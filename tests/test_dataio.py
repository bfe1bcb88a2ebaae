from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import dataio, graphs, rlagent, synth
from evacnet.dataio import (INPUT_MODALITIES, SchemaError, engineer_features,
                            input_table, load_csv, make_windows, split_and_fit)

T0 = datetime(2024, 10, 1, 0)

META_HEADER = "detector_id,highway,milepost,lanes,lat,lon"
REC_HEADER = ",".join(dataio.RECORD_COLUMNS)


def write_meta(path, rows=None):
    rows = rows if rows is not None else [
        "det_a,I75,0.0,3,28.0,-82.0",
        "det_b,I75,2.5,3,28.1,-82.0",
    ]
    path.write_text(META_HEADER + "\n" + "\n".join(rows) + "\n")


def record_row(det, ts, flow, speed=60.0):
    exog = ["0", "0", "0", "0", "0", "0", "0", "0",  # incident columns
            "0", "10", "50", "48", "0", "0", "0"]
    f = "" if flow is None else str(flow)
    s = "" if speed is None else str(speed)
    return ",".join([det, ts.isoformat(), f, s] + exog)


def write_records(path, hours, flow_fn, detectors=("det_a", "det_b")):
    rows = [record_row(d, T0 + timedelta(hours=h), flow_fn(d, h))
            for d in detectors for h in range(hours)]
    path.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")


@pytest.fixture
def csv_pair(tmp_path):
    meta = tmp_path / "meta.csv"
    recs = tmp_path / "records.csv"
    write_meta(meta)
    return meta, recs


def test_load_well_formed(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 48, lambda d, h: 100.0)
    metas, records = load_csv(meta, recs)
    assert set(metas) == {"det_a", "det_b"}
    assert len(records) == 96
    assert records == sorted(records,
                             key=lambda r: (r.detector_id, r.timestamp))


def test_negative_flow_names_line(csv_pair):
    meta, recs = csv_pair
    rows = [record_row("det_a", T0, 100.0),
            record_row("det_a", T0 + timedelta(hours=1), -5.0)]
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match="line 3.*negative flow"):
        load_csv(meta, recs)


def test_duplicate_timestamp_rejected(csv_pair):
    meta, recs = csv_pair
    rows = [record_row("det_a", T0, 100.0), record_row("det_a", T0, 120.0)]
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match="duplicate"):
        load_csv(meta, recs)


def test_utc_offset_names_line(csv_pair):
    meta, recs = csv_pair
    rows = [record_row("det_a", T0, 100.0),
            record_row("det_a", T0 + timedelta(hours=1), 100.0)
            .replace(":00:00,", ":00:00Z,", 1)]
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match="line 3.*UTC offset"):
        load_csv(meta, recs)


def test_unknown_detector_rejected(csv_pair):
    meta, recs = csv_pair
    recs.write_text(REC_HEADER + "\n" + record_row("nope", T0, 1.0) + "\n")
    with pytest.raises(SchemaError, match="unknown detector"):
        load_csv(meta, recs)


def test_prev_day_stats_constant_flow(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 72, lambda d, h: 100.0)
    data = engineer_features(*reversed(load_csv(meta, recs)))
    col = {n: k for k, n in enumerate(dataio.TEMPORAL_FEATURES)}
    i = data.detector_ids.index("det_a")
    assert data.temporal[i, 30, col["prev_day_mean"]] == pytest.approx(100.0)
    assert data.temporal[i, 30, col["prev_day_std"]] == pytest.approx(0.0)
    assert data.temporal[i, 60, col["prev_period_mean"]] == pytest.approx(100.0)


def test_prev_day_mean_alternating(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 48, lambda d, h: 50.0 if h % 2 == 0 else 150.0)
    data = engineer_features(*reversed(load_csv(meta, recs)))
    col = {n: k for k, n in enumerate(dataio.TEMPORAL_FEATURES)}
    i = data.detector_ids.index("det_a")
    assert data.temporal[i, 30, col["prev_day_mean"]] == pytest.approx(100.0)


def test_first_day_rows_inactive(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 72, lambda d, h: 100.0)
    data = engineer_features(*reversed(load_csv(meta, recs)))
    assert not data.active[:, :24].any()
    assert data.active[:, 24:].all()


def test_short_gap_interpolated_long_gap_not(csv_pair):
    meta, recs = csv_pair
    gap_2 = {30, 31}
    gap_4 = {50, 51, 52, 53}
    write_records(recs, 96,
                  lambda d, h: None if h in gap_2 | gap_4 else 100.0 + h)
    data = engineer_features(*reversed(load_csv(meta, recs)))
    i = data.detector_ids.index("det_a")
    # linear fill between flow[29]=129 and flow[32]=132
    np.testing.assert_allclose(data.flow[i, 30], 130.0)
    np.testing.assert_allclose(data.flow[i, 31], 131.0)
    assert np.isnan(data.flow[i, 51])
    assert not data.active[i, 51]


# series of values and missing (None) hours, with long and short nan runs
series = st.lists(st.one_of(st.none(), st.none(),
                            st.floats(-1e4, 1e4, allow_nan=False)),
                  max_size=30)


def nan_runs(values):
    """(start, end) of every maximal run of nan, end exclusive."""
    runs, start = [], None
    for k, missing in enumerate(np.append(np.isnan(values), False)):
        if missing and start is None:
            start = k
        elif not missing and start is not None:
            runs.append((start, k))
            start = None
    return runs


def interpolate(cells):
    values = np.array([np.nan if c is None else c for c in cells], float)
    return values, dataio._interpolate_short_gaps(values.copy())


@settings(max_examples=300, deadline=None)
@given(series)
def test_interpolation_leaves_data_untouched(cells):
    values, out = interpolate(cells)
    present = ~np.isnan(values)
    np.testing.assert_array_equal(out[present], values[present])


@settings(max_examples=300, deadline=None)
@given(series)
def test_short_inner_gap_filled_on_straight_line(cells):
    values, out = interpolate(cells)
    for i, j in nan_runs(values):
        if i == 0 or j == len(values) or j - i > dataio.MAX_INTERP_GAP:
            continue
        left, right = values[i - 1], values[j]
        line = left + (right - left) * np.arange(1, j - i + 1) / (j - i + 1)
        np.testing.assert_allclose(out[i:j], line, rtol=1e-12, atol=1e-9)


@settings(max_examples=300, deadline=None)
@given(series)
def test_long_or_edge_gap_stays_nan(cells):
    values, out = interpolate(cells)
    for i, j in nan_runs(values):
        if i == 0 or j == len(values) or j - i > dataio.MAX_INTERP_GAP:
            assert np.isnan(out[i:j]).all()


def test_split_90_10(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 100, lambda d, h: 100.0 + h)
    data = engineer_features(*reversed(load_csv(meta, recs)))
    train_end, norm, target_norm = split_and_fit(data)
    assert train_end == 90
    assert data.timeline[train_end - 1] < data.timeline[train_end]


def test_normalizer_fit_on_train_only(csv_pair):
    meta, recs = csv_pair
    # enormous flow outlier confined to the validation tail
    write_records(recs, 100, lambda d, h: 1e7 if h >= 95 else 100.0 + (h % 7))
    data = engineer_features(*reversed(load_csv(meta, recs)))
    train_end, norm, _ = split_and_fit(data)
    k = data.registry.index("flow")
    train_vals = data.temporal[:, :train_end, k][data.active[:, :train_end]]
    assert norm.shift[k] == pytest.approx(train_vals.mean())
    assert norm.shift[k] < 1000


def test_zscored_train_flow(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 100, lambda d, h: 100.0 + 10 * (h % 5))
    data = engineer_features(*reversed(load_csv(meta, recs)))
    train_end, norm, _ = split_and_fit(data)
    k = data.registry.index("flow")
    vals = data.temporal[:, :train_end, k][data.active[:, :train_end]]
    z = (vals - norm.shift[k]) / norm.scale[k]
    assert abs(z.mean()) < 1e-9
    assert abs(z.std() - 1.0) < 1e-9


def test_normalize_round_trip(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 72, lambda d, h: 100.0 + h)
    data = engineer_features(*reversed(load_csv(meta, recs)))
    _, norm, _ = split_and_fit(data)
    x = np.linspace(-3, 3, len(data.registry))
    np.testing.assert_allclose(norm.inverse(norm.transform(x)), x, atol=1e-9)


def window_fixture(tmp_path, hours, flow_fn, l=6, p=6):
    meta = tmp_path / "m.csv"
    recs = tmp_path / "r.csv"
    write_meta(meta)
    write_records(recs, hours, flow_fn)
    data = engineer_features(*reversed(load_csv(meta, recs)))
    _, norm, tnorm = split_and_fit(data)
    return data, input_table(data, norm), tnorm


def test_window_count_formula(tmp_path):
    data, table, tnorm = window_fixture(tmp_path, 240,
                                        lambda d, h: 100.0 + h % 24)
    # day 0 is inactive (no previous-day statistics), so the fully
    # active span is hours [24, 240); the anchor-count formula holds there
    windows = make_windows(data, table, tnorm, l=6, p=6, start=24)
    assert len(windows) == (240 - 24) - 12 + 1


def test_minimal_window(tmp_path):
    data, table, tnorm = window_fixture(tmp_path, 72, lambda d, h: 100.0)
    windows = make_windows(data, table, tnorm, l=1, p=1, start=40, end=42)
    assert len(windows) == 1


def test_span_too_short(tmp_path):
    data, table, tnorm = window_fixture(tmp_path, 72, lambda d, h: 100.0)
    with pytest.raises(ValueError, match="shorter"):
        make_windows(data, table, tnorm, l=6, p=6, start=0, end=10)


def test_dark_detector_excluded_from_window(tmp_path):
    dark = set(range(50, 54))  # det_b offline for 4 hours
    data, table, tnorm = window_fixture(
        tmp_path, 96,
        lambda d, h: None if (d == "det_b" and h in dark) else 100.0 + h % 24)
    windows = make_windows(data, table, tnorm, l=6, p=6)
    by_anchor = {w.anchor_index: w for w in windows}
    det_b = data.detector_ids.index("det_b")
    assert det_b not in by_anchor[48].det_indices
    assert det_b in by_anchor[60].det_indices
    # det_b still appears as a step extra where it is active: hours 48
    # and 49 of the window's input hours 48-53
    w = by_anchor[48]
    assert [list(e) for e in w.extra_temporal] == [[det_b]] * 2 + [[]] * 4
    # so those hours' graphs join det_a to det_b, and the later ones hold
    # det_a alone, whose product with its own row is that row
    rows = w.inputs(("identity",))[:, 0, 0]
    for g in ("d", "tt"):
        prop = w.inputs((g,))[:, 0, 0]
        assert not (prop[:2] == rows[:2]).all(axis=1).any()
        np.testing.assert_array_equal(prop[2:], rows[2:])
        k = INPUT_MODALITIES.index(g)
        assert table[48:50, k, det_b].any(axis=1).all()
        assert not table[50:54, k, det_b].any()


def test_step_extras_match_membership_loop(tmp_path):
    meta, records, _ = synth.generate(synth.builtin_scenarios()["S2"],
                                      tmp_path)
    ds = dataio.prepare(meta, records, l=6, p=6)
    data = ds.data
    table = ds.train_windows[0].table
    n_extras = 0
    for w in ds.train_windows + ds.val_windows:
        assert w.table is table  # shared, not a copy
        pred = w.det_indices
        for step in range(ds.l):
            t = w.anchor_index + step
            step_active = np.where(data.active[:, t])[0]
            ref = [i for i in step_active if i not in set(pred)]
            # the hour's graph products cover exactly its active detectors
            for g in ("d", "tt"):
                k = INPUT_MODALITIES.index(g)
                np.testing.assert_array_equal(
                    np.flatnonzero(table[t, k].any(axis=1)), step_active)
            assert sorted(list(pred) + ref) == list(step_active)
            assert list(w.extra_temporal[step]) == ref
            n_extras += len(ref)
    assert n_extras > 0  # outages must give S2 step extras


def test_propagated_rows_match_window_order_graph(tmp_path):
    """Each window's rows equal the graph over its predicted nodes then its
    step extras, times the masked raw rows, kept for the predicted nodes."""
    meta, records, _ = synth.generate(synth.builtin_scenarios()["S2"],
                                      tmp_path)
    ds = dataio.prepare(meta, records, l=6, p=6)
    data = ds.data
    mask = rlagent.apply_mask(2, ds.f_t, ds.f_s)
    m = np.concatenate([mask.m_temp, mask.m_spatial])
    windows = [w for w in ds.train_windows + ds.val_windows
               if any(len(e) for e in w.extra_temporal)]
    assert windows
    for w in windows:
        pred = w.det_indices
        for step in range(ds.l):
            t = w.anchor_index + step
            order = list(pred) + [i for i in np.flatnonzero(data.active[:, t])
                                  if i not in set(pred)]
            ids = [data.detector_ids[i] for i in order]
            snap = graphs.build_snapshot(
                [data.metas[d] for d in ids],
                {d: float(data.speed[i, t]) for d, i in zip(ids, order)})
            raw = np.nan_to_num(ds.norm.transform(np.concatenate(
                [data.temporal[order, t], data.spatial[order]], axis=1)))
            np.testing.assert_array_equal(
                w.inputs(("identity",))[step, 0], raw[:len(pred)])
            for g, norm_adj in (("d", snap.norm_d), ("tt", snap.norm_tt)):
                np.testing.assert_allclose(
                    w.inputs((g,))[step, 0] * m,
                    (norm_adj @ (raw * m))[:len(pred)],
                    rtol=1e-12, atol=1e-12)


def test_one_snapshot_per_covered_hour(tmp_path, monkeypatch):
    meta, records, _ = synth.generate(synth.builtin_scenarios()["S2"],
                                      tmp_path)
    data = engineer_features(*reversed(load_csv(meta, records)))
    train_end, norm, tnorm = split_and_fit(data)
    built = []
    real = graphs.build_snapshot

    def counting(metas, speeds):
        built.append(real(metas, speeds))
        return built[-1]

    monkeypatch.setattr(graphs, "build_snapshot", counting)
    table = input_table(data, norm)
    windows = make_windows(data, table, tnorm, l=6, p=6, end=train_end)
    covered = sorted({w.anchor_index + step for w in windows
                      for step in range(6)})
    # one graph per covered hour, over the detectors active then, and no
    # graph product at any other hour
    assert [s.node_ids for s in built] == [
        [data.detector_ids[i] for i in np.flatnonzero(data.active[:, t])]
        for t in covered]
    assert len(covered) < 6 * len(windows)
    np.testing.assert_array_equal(
        np.flatnonzero(table[:, 1:].any(axis=(1, 2, 3))), covered)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), rate=st.floats(0.0, 0.05),
       outages=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 100),
                                  st.integers(1, 12)), max_size=4))
def test_prepare_windows_under_random_outages(tmp_path_factory, seed, rate,
                                              outages):
    scenario = synth.Scenario(
        name="outages", seed=seed, horizon_hours=110,
        corridors=[("I75", 3, 4.0), ("I4", 2, 5.0)], order_hour=40,
        landfall_hour=90, outage_rate_per_hour=rate,
        forced_outages=[list(o) for o in outages])
    meta, records, _ = synth.generate(scenario,
                                      tmp_path_factory.mktemp("outages"))
    ds = dataio.prepare(meta, records, l=4, p=3)
    read = {}  # (hour, detector) -> the rows the first window read there
    for w in ds.train_windows + ds.val_windows:
        a = w.anchor_index
        assert ds.data.active[w.det_indices, a:a + ds.l + ds.p].all()
        np.testing.assert_allclose(
            ds.target_norm.inverse(w.det_indices, w.targets), w.targets_raw,
            rtol=1e-12, atol=0)
        rows = w.inputs(INPUT_MODALITIES)
        for step in range(ds.l):
            for k, i in enumerate(w.det_indices):
                np.testing.assert_array_equal(
                    read.setdefault((a + step, i), rows[step, :, k]),
                    rows[step, :, k])
