import json
import re
from dataclasses import asdict, fields
from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import dataio, synth
from evacnet.synth import Scenario, builtin_scenarios, generate

import synth_reference
from features_reference import as_records


def load_records(meta, records):
    """The loaded records as rows, in file order."""
    detectors, columns = dataio.load_csv(meta, records)
    return as_records(columns, detectors)


def test_builtin_names_and_seeds_frozen():
    scens = builtin_scenarios()
    assert set(scens) == {"S1", "S2", "S3"}
    assert scens["S1"].seed == 101
    assert scens["S3"].congestion_waves


def test_s1_row_count(tmp_path):
    meta, records, notes = generate(builtin_scenarios()["S1"], tmp_path)
    lines = records.read_text().strip().splitlines()
    assert len(lines) - 1 == 6 * 240
    assert notes["n_detectors"] == 6


def test_same_seed_byte_identical(tmp_path):
    s = builtin_scenarios()["S1"]
    m1, r1, _ = generate(s, tmp_path / "a")
    m2, r2, _ = generate(s, tmp_path / "b")
    assert m1.read_bytes() == m2.read_bytes()
    assert r1.read_bytes() == r2.read_bytes()


def test_generated_files_pass_ingestion(tmp_path):
    for name, scen in builtin_scenarios().items():
        meta, records, _ = generate(scen, tmp_path / name)
        detectors, recs = dataio.load_csv(meta, records)
        assert len(detectors.ids) >= 6


def test_flow_and_speed_bounds(tmp_path):
    meta, records, _ = generate(builtin_scenarios()["S1"], tmp_path)
    for r in load_records(meta, records):
        if r.flow is not None:
            assert r.flow >= 0
        if r.speed is not None:
            assert synth.SPEED_FLOOR_MPH <= r.speed <= synth.FREE_FLOW_MPH


def test_zero_surge_zero_noise_flow_equals_diurnal(tmp_path):
    scen = Scenario(name="flat", seed=1, noise_std=0.0,
                    surge_peak_multiplier=1.0, incident_rate_per_hour=0.0)
    _, records, _ = generate(scen, tmp_path)
    by_hour = {}
    for r in load_records(tmp_path / "meta.csv", records):
        if r.detector_id == "I75_000":
            by_hour[r.timestamp.hour] = r.flow
    for hod, flow in by_hour.items():
        expected = scen.base_flow * synth._diurnal(hod,
                                                   scen.diurnal_amplitude)
        assert flow == pytest.approx(expected, abs=1e-4)


def test_incident_slows_traffic(tmp_path):
    scen = Scenario(name="inc", seed=2, noise_std=0.0,
                    diurnal_amplitude=0.0, surge_peak_multiplier=1.0,
                    incident_rate_per_hour=0.0)
    # no random incidents; inject one analytically by comparing two runs
    _, records_clean, _ = generate(scen, tmp_path / "clean")
    scen_inc = Scenario(name="inc", seed=2, noise_std=0.0,
                        diurnal_amplitude=0.0, surge_peak_multiplier=1.0,
                        incident_rate_per_hour=0.05,
                        incident_capacity_drop=0.5)
    _, records_inc, _ = generate(scen_inc, tmp_path / "inc")
    clean = load_records(tmp_path / "clean" / "meta.csv", records_clean)
    inc = load_records(tmp_path / "inc" / "meta.csv", records_inc)
    speeds_clean = {(r.detector_id, r.timestamp): r.speed for r in clean}
    slowed = [r for r in inc if r.exog["incident_flag"] == 1]
    assert slowed, "scenario produced no incidents"
    for r in slowed:
        assert r.speed < speeds_clean[(r.detector_id, r.timestamp)]


def test_s1_surge_mean_exceeds_nonevac(tmp_path):
    _, _, notes = generate(builtin_scenarios()["S1"], tmp_path)
    assert notes["surge_mean_flow"] > 1.5 * notes["nonevac_mean_flow"]


def test_s2_has_outage_across_window_boundary(tmp_path):
    _, records, notes = generate(builtin_scenarios()["S2"], tmp_path)
    assert notes["n_outage_hours"] > 0
    recs = load_records(tmp_path / "meta.csv", records)
    missing_hours = sorted({(r.timestamp - recs[0].timestamp).days * 24
                            + (r.timestamp - recs[0].timestamp).seconds // 3600
                            for r in recs if r.flow is None
                            and r.detector_id == "I75_001"})
    # forced outage spans hours 127..133 inclusive of boundary 130
    assert set(range(127, 134)) <= set(missing_hours)


def test_s3_fusion_signal_fraction(tmp_path):
    _, _, notes = generate(builtin_scenarios()["S3"], tmp_path)
    assert notes["fusion_signal_fraction"] >= 0.30


def test_scenario_roundtrip_json(tmp_path):
    scen = builtin_scenarios()["S2"]
    generate(scen, tmp_path)
    loaded = synth.load_scenario_file(tmp_path / "scenario.json")
    assert loaded == scen


def test_scenario_file_with_the_dropped_wave_period_generates_s3(tmp_path):
    # scenario.json files written before the field was dropped carry it
    s3 = builtin_scenarios()["S3"]
    generate(s3, tmp_path / "now")
    old = tmp_path / "old.json"
    old.write_text(json.dumps({"scenario": {**asdict(s3),
                                            "wave_period_hours": 6}}))
    generate(synth.load_scenario_file(old), tmp_path / "old")
    for name in ("meta.csv", "records.csv"):
        assert (tmp_path / "old" / name).read_bytes() \
            == (tmp_path / "now" / name).read_bytes()
    old.write_text(json.dumps({**asdict(s3), "wave_period_hours": "6"}))
    with pytest.raises(ValueError, match="wave_period_hours must be int"):
        synth.load_scenario_file(old)


def test_invalid_scenario_rejected():
    with pytest.raises(ValueError):
        Scenario(name="bad", seed=0, order_hour=200,
                 landfall_hour=100).validate()
    # h * speed would overflow by the last hour, and the wave vanish
    with pytest.raises(ValueError, match=r"wave_speed_det_per_hour \* "
                       r"\(horizon_hours - 1\) must be finite, got inf"):
        Scenario(name="bad", seed=0, congestion_waves=True,
                 wave_speed_det_per_hour=1e308).validate()
    Scenario(name="fast", seed=0,
             wave_speed_det_per_hour=1.7e308 / 239).validate()


def test_scenario_over_the_detector_hours_cap_rejected():
    scen = Scenario(name="huge", seed=0, corridors=[("I75", 10 ** 7, 1.0)])
    with pytest.raises(ValueError, match="10000000 detectors over 240 "
                       "hours make 2400000000 detector-hours, more than "
                       "2000000"):
        scen.validate()
    # the cap itself is accepted
    Scenario(name="at-cap", seed=0, horizon_hours=250,
             corridors=[("I75", dataio.MAX_DETECTOR_HOURS // 250, 1.0)]
             ).validate()


@st.composite
def scenarios(draw):
    """Scenarios of small horizons and detector counts. Each field is drawn
    from a range `validate` accepts, alone, except at most one, drawn from
    a range around or past its bound. Together these reach past every bound
    of the loader: MAX_FLOW (base flow, amplitude, surge peak and noise
    together), MAX_MAGNITUDE (lanes, population, the landfall distance,
    incident minutes), MAX_MILEPOST (spacing), the span, the detector-hours
    cap and the last datetime. MIN_SPEED is out of reach: the speed curve
    floors at SPEED_FLOOR_MPH."""
    bad = draw(st.sampled_from((None,) + tuple(
        f.name for f in fields(Scenario) if f.name != "name")))

    def field(name, good, past):
        return draw(past if name == bad else good)

    horizon = field("horizon_hours", st.integers(60, 100),
                    st.integers(0, 59) | st.just(dataio.MAX_SPAN_HOURS + 1))
    order = field("order_hour", st.integers(0, max(0, horizon - 1)),
                  st.integers(-2, 200))
    spacing = st.floats(1e-3, 5e3) | st.just(5e-324)
    return Scenario(
        name="drawn",
        seed=field("seed", st.integers(0, 2 ** 64), st.integers(-5, -1)),
        horizon_hours=horizon,
        start=field("start", st.datetimes(), st.datetimes(
            datetime(9999, 12, 27, 12))).isoformat(),
        corridors=field(
            "corridors",
            st.lists(st.tuples(st.sampled_from(dataio.HIGHWAYS),
                               st.integers(1, 4), spacing),
                     min_size=1, max_size=3, unique_by=lambda c: c[0]),
            st.lists(st.tuples(st.sampled_from(dataio.HIGHWAYS + ("I5",)),
                               st.integers(0, 4)
                               | st.just(dataio.MAX_DETECTOR_HOURS),
                               spacing | st.floats(-1.0, 0.0)), max_size=3)),
        lanes=field("lanes", st.integers(1, 4),
                    st.integers(-1, 0) | st.integers(10 ** 9 - 1,
                                                     10 ** 9 + 1)),
        base_flow=field("base_flow", st.floats(1e-3, 2e3),
                        st.floats(-1.0, 0.0) | st.floats(2e3, 2e6)),
        diurnal_amplitude=field("diurnal_amplitude", st.floats(-3.0, 3.0),
                                st.floats(-1e4, 1e4)),
        noise_std=field("noise_std", st.floats(0.0, 1e3),
                        st.floats(-1.0, -1e-9) | st.floats(1e3, 1e7)),
        order_hour=order,
        landfall_hour=field("landfall_hour",
                            st.integers(order + 1, max(order + 1, horizon)),
                            st.integers(-2, 200)),
        surge_peak_multiplier=field("surge_peak_multiplier",
                                    st.floats(1e-3, 10.0),
                                    st.floats(-1.0, 0.0)
                                    | st.floats(10.0, 1e5)),
        surge_spatial_decay_miles=field("surge_spatial_decay_miles",
                                        st.floats(5e-324, 1e3),
                                        st.floats(-1.0, 0.0)),
        landfall_milepost=field("landfall_milepost",
                                st.floats(-100.0, 100.0),
                                st.floats(-1.01e9, -0.99e9)
                                | st.floats(0.99e9, 1.01e9)),
        population_total=field("population_total", st.floats(0.0, 1e7),
                               st.floats(-1.0, 0.0) | st.floats(0.99e9, 2e9)),
        incident_rate_per_hour=field("incident_rate_per_hour",
                                     st.floats(0.01, 0.3),
                                     st.floats(-0.1, 1.0)),
        incident_mean_duration_hours=field(
            "incident_mean_duration_hours", st.floats(0.0, 100.0),
            st.floats(-1.0, 0.0) | st.floats(1e3, 1e12) | st.just(1e308)),
        incident_capacity_drop=field("incident_capacity_drop",
                                     st.floats(0.0, 0.99),
                                     st.floats(-0.5, 1.5)),
        outage_rate_per_hour=field("outage_rate_per_hour",
                                   st.floats(0.01, 0.3),
                                   st.floats(-0.1, 1.0)),
        outage_mean_duration_hours=field(
            "outage_mean_duration_hours", st.floats(0.0, 100.0),
            st.floats(-1.0, 0.0) | st.floats(1e3, 1e12) | st.just(1e308)),
        forced_outages=field(
            "forced_outages",
            # each ends inside the horizon
            st.lists(st.integers(0, max(0, horizon - 1)).flatmap(
                lambda start: st.tuples(
                    st.just(0), st.just(start),
                    st.integers(1, max(1, min(50, horizon - start))))),
                max_size=2),
            st.lists(st.tuples(st.integers(-1, 12), st.integers(-1, 10 ** 20),
                               st.integers(0, 10 ** 20)), min_size=1,
                     max_size=2)),
        congestion_waves=draw(st.booleans()),
        wave_speed_det_per_hour=field("wave_speed_det_per_hour",
                                      st.floats(-10.0, 10.0),
                                      st.floats(-1e308, 1e308)),
        wave_strength=field("wave_strength", st.floats(0.0, 1.0),
                            st.floats(-10.0, 10.0)))


@settings(max_examples=300, deadline=None)
@given(scenario=scenarios())
def test_validate_names_a_field_or_generate_writes_a_loadable_corpus(
        tmp_path_factory, scenario):
    """Either `validate` rejects a scenario by a message naming a field,
    or `generate` writes a corpus that `load_csv` accepts whole, and the
    same files and notes, byte for byte, as the scalar reference."""
    try:
        scenario.validate()
    except ValueError as exc:
        assert any(re.search(rf"\b{f.name}\b", str(exc))
                   for f in fields(Scenario)), str(exc)
        return
    out, ref = tmp_path_factory.mktemp("drawn"), tmp_path_factory.mktemp("ref")
    meta, records, notes = generate(scenario, out)
    assert synth_reference.generate(scenario, ref)[2] == notes
    for name in ("meta.csv", "records.csv", "scenario.json"):
        assert (out / name).read_bytes() == (ref / name).read_bytes(), name
    detectors, columns = dataio.load_csv(meta, records)
    n_det = sum(n for _, n, _ in scenario.corridors)
    assert len(detectors.ids) == n_det
    assert len(columns.hour) == n_det * scenario.horizon_hours
