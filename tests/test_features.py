"""`engineer_features` against the loop implementation it replaced
(`features_reference.py`): the same arrays on the built-in scenarios, on a
corridors100-sized corpus and on random record sets."""

from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import dataio, synth
from evacnet.dataio import DetectorMeta, HourlyRecord, engineer_features

from features_reference import engineer_features as reference_features

# the benchmark's corridors100 workload (perfbench/workloads.py), seed 1
CORRIDORS100 = synth.Scenario(
    name="corridors100", seed=1, horizon_hours=336,
    corridors=[("I75", 25, 3.0), ("I4", 25, 3.0), ("I95", 25, 3.0),
               ("I10", 25, 3.0)],
    order_hour=168, landfall_hour=302, noise_std=20.0,
    incident_rate_per_hour=0.01, outage_rate_per_hour=0.003)


def assert_matches_reference(records, metas):
    new = engineer_features(records, metas)
    ref = reference_features(records, metas)
    assert new.detector_ids == ref.detector_ids
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
    metas, records = dataio.load_csv(meta, recs)
    data = assert_matches_reference(records, metas)
    assert data.active.any()


@st.composite
def corpora(draw):
    """Random records: a first hour anywhere in the day, a last day of
    any length (one-day timelines included), detectors that report
    nothing, rows missing altogether, outages (flow/speed None) and
    missing exogenous cells."""
    n_det = draw(st.integers(1, 3))
    start_hour = draw(st.integers(0, 23))
    n_hours = draw(st.integers(1, 96))
    drop_rate = draw(st.sampled_from([0.0, 0.05, 0.3]))
    outage_rate = draw(st.sampled_from([0.0, 0.1, 0.5]))
    exog_missing_rate = draw(st.sampled_from([0.0, 0.1, 0.6]))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    metas = {f"d{k}": DetectorMeta(f"d{k}", dataio.HIGHWAYS[k], 2.0 * k, 1 + k,
                                   28.0, -82.0) for k in range(n_det)}
    t0 = datetime(2024, 10, 5, start_hour)  # a Saturday
    exog_cols = dataio.RECORD_COLUMNS[4:]
    records = []
    for det in metas:
        for h in range(n_hours):
            # the first and last hour always have a row, so they span
            # the timeline
            if 0 < h < n_hours - 1 and rng.random() < drop_rate:
                continue
            out = rng.random() < outage_rate
            exog = {col: (None if rng.random() < exog_missing_rate
                          else float(rng.integers(0, 50)))
                    for col in exog_cols}
            records.append(HourlyRecord(
                det, t0 + timedelta(hours=h),
                None if out else float(rng.integers(0, 3000)),
                None if out else float(rng.integers(5, 71)), exog))
    return records, metas


@settings(max_examples=150, deadline=None)
@given(corpora())
def test_matches_reference_on_random_records(corpus):
    records, metas = corpus
    data = assert_matches_reference(records, metas)
    days = {ts.date() for ts in data.timeline}
    if len(days) == 1:  # no earlier day, so no statistics and no target
        assert not data.active.any()
