"""`engineer_features` against the loop implementation it replaced
(`features_reference.py`, fed through its `as_records` and `as_metas`
adapters): the same
arrays on the built-in scenarios, on a corridors100-sized corpus and on
random record sets."""

from datetime import datetime

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import dataio, synth
from evacnet.dataio import Detectors, RecordColumns, engineer_features

from features_reference import as_metas, as_records
from features_reference import engineer_features as reference_features

# the benchmark's corridors100 workload (perfbench/workloads.py), seed 1
CORRIDORS100 = synth.Scenario(
    name="corridors100", seed=1, horizon_hours=336,
    corridors=[("I75", 25, 3.0), ("I4", 25, 3.0), ("I95", 25, 3.0),
               ("I10", 25, 3.0)],
    order_hour=168, landfall_hour=302, noise_std=20.0,
    incident_rate_per_hour=0.01, outage_rate_per_hour=0.003)


def assert_matches_reference(columns, detectors):
    new = engineer_features(columns, detectors)
    ref = reference_features(as_records(columns, detectors),
                             as_metas(detectors))
    assert new.detectors.ids == ref.detector_ids
    assert new.timeline == ref.timeline
    np.testing.assert_array_equal(new.active, ref.active)
    for name in ("temporal", "spatial", "flow", "speed"):
        # also fails on a different shape or nan pattern
        np.testing.assert_allclose(getattr(new, name), getattr(ref, name),
                                   rtol=1e-12, atol=0, err_msg=name)
    return new


@pytest.mark.parametrize("name", ["S1", "S2", "corridors100"])
def test_matches_reference_on_scenarios(name, tmp_path):
    scenario = (CORRIDORS100 if name == "corridors100"
                else synth.builtin_scenarios()[name])
    meta, recs, _ = synth.generate(scenario, tmp_path)
    detectors, columns = dataio.load_csv(meta, recs)
    data = assert_matches_reference(columns, detectors)
    assert data.active.any()


# the previous-day and previous-period statistics, which the reference
# sums in another order than `dataio._moments`
STATISTICS = [dataio.TEMPORAL_FEATURES.index(name) for name in (
    "prev_day_mean", "prev_day_std", "prev_period_mean", "prev_period_std")]


@pytest.mark.parametrize("name", ["S1", "S2"])
def test_bit_identical_to_reference_on_scenarios(name, tmp_path):
    """Every array of `engineer_features` equals the reference's bit for
    bit, and so does the timeline, except for the four statistics columns,
    which agree to 1e-12 (`test_matches_reference_on_scenarios`)."""
    meta, recs, _ = synth.generate(synth.builtin_scenarios()[name], tmp_path)
    detectors, columns = dataio.load_csv(meta, recs)
    new = engineer_features(columns, detectors)
    ref = reference_features(as_records(columns, detectors),
                             as_metas(detectors))
    assert new.detectors.ids == ref.detector_ids
    assert new.timeline == ref.timeline
    exact = np.setdiff1d(np.arange(len(dataio.TEMPORAL_FEATURES)),
                         STATISTICS)
    pairs = [("temporal", new.temporal[..., exact], ref.temporal[..., exact])]
    pairs += [(field, getattr(new, field), getattr(ref, field))
              for field in ("spatial", "active", "flow", "speed")]
    for field, a, b in pairs:
        assert a.dtype == b.dtype and a.shape == b.shape, field
        assert a.tobytes() == b.tobytes(), field


@st.composite
def corpora(draw):
    """Random record columns: a first hour anywhere in the day, a last
    day of any length (one-day timelines included), detectors that report
    nothing, rows missing altogether, outages (flow and speed nan) and
    missing exogenous cells, in a shuffled row order."""
    n_det = draw(st.integers(1, 3))
    start_hour = draw(st.integers(0, 23))
    n_hours = draw(st.integers(1, 96))
    drop_rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    outage_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    exog_missing_rate = draw(st.sampled_from([0.0, 0.1, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    detectors = Detectors(ids=[f"d{k}" for k in range(n_det)],
                          highway=np.array(dataio.HIGHWAYS[:n_det]),
                          milepost=2.0 * np.arange(n_det),
                          lanes=1 + np.arange(n_det))
    t0 = np.datetime64(datetime(2024, 10, 5, start_hour), "h")  # a Saturday
    n_exog = len(dataio.RECORD_COLUMNS) - 4
    detector, hour, values = [], [], []
    for det in range(n_det):
        for h in range(n_hours):
            # the first and last hour always have a row, so they span
            # the timeline
            if 0 < h < n_hours - 1 and rng.random() < drop_rate:
                continue
            out = rng.random() < outage_rate
            exog = np.where(rng.random(n_exog) < exog_missing_rate, np.nan,
                            rng.integers(0, 50, n_exog).astype(float))
            detector.append(det)
            hour.append(h)
            values.append([np.nan if out else float(rng.integers(0, 3000)),
                           np.nan if out else float(rng.integers(5, 71)),
                           *exog])
    order = rng.permutation(len(hour))
    return RecordColumns(detector=np.array(detector, np.intp)[order],
                         hour=t0 + np.array(hour)[order],
                         values=np.array(values)[order]), detectors


@settings(max_examples=150, deadline=None)
@given(corpora())
def test_matches_reference_on_random_records(corpus):
    columns, detectors = corpus
    data = assert_matches_reference(columns, detectors)
    days = {ts.date() for ts in data.timeline}
    if len(days) == 1:  # no earlier day, so no statistics and no target
        assert not data.active.any()
