import numpy as np
import pytest

from evacnet import dataio, synth
from evacnet.synth import Scenario, builtin_scenarios, generate

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


def test_invalid_scenario_rejected():
    with pytest.raises(ValueError):
        Scenario(name="bad", seed=0, order_hour=200,
                 landfall_hour=100).validate()


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
