import gc
import re
import tracemalloc
import weakref
from datetime import datetime, timedelta
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from evacnet import dataio, graphs, rlagent, synth
from evacnet.dataio import (INPUT_MODALITIES, SchemaError, engineer_features,
                            input_table, load_csv, make_windows, split_and_fit)

import graphs_reference
import loader_reference
from conftest import repropagate
import normalizer_reference
import windows_reference
from features_reference import as_records

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
    detectors, columns = load_csv(meta, recs)
    assert detectors.ids == ["det_a", "det_b"]
    assert columns.values.shape == (96, len(dataio.RECORD_COLUMNS) - 2)
    # file order: det_a's 48 hours, then det_b's
    np.testing.assert_array_equal(columns.detector, np.repeat([0, 1], 48))
    np.testing.assert_array_equal(
        columns.hour, np.datetime64(T0, "h") + np.tile(np.arange(48), 2))
    assert (columns.values[:, 0] == 100.0).all()


def test_values_are_float_of_each_cell(tmp_path):
    """Each loaded value is float() of its cell, nan where the cell is
    empty, in file order (S2 has empty flow and speed cells)."""
    meta, recs, _ = synth.generate(synth.builtin_scenarios()["S2"], tmp_path)
    detectors, columns = load_csv(meta, recs)
    rows = [line.split(",") for line in recs.read_text().splitlines()[1:]]
    assert [detectors.ids[k] for k in columns.detector] == [r[0] for r in rows]
    assert columns.hour.tolist() == [datetime.fromisoformat(r[1])
                                     for r in rows]
    expected = np.array([[float(v) if v else np.nan for v in r[2:]]
                         for r in rows])
    assert np.isnan(expected).any()
    assert columns.values.tobytes() == expected.tobytes()


def test_first_failing_line_wins_then_check_order(csv_pair):
    meta, recs = csv_pair
    rows = [record_row("det_a", T0, 100.0),
            record_row("det_a", T0 + timedelta(hours=1), -5.0, "fast"),
            record_row("nope", T0 + timedelta(hours=2), 100.0)]
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    # line 3 fails the speed and the flow sign checks, and speed is first
    with pytest.raises(SchemaError,
                       match="^line 3: column speed is not a number: 'fast'$"):
        load_csv(meta, recs)


def test_span_error_names_first_earliest_and_last_latest_line(csv_pair):
    meta, recs = csv_pair
    far = T0.replace(year=2999)
    rows = [record_row("det_a", T0, 1.0), record_row("det_b", T0, 1.0),
            record_row("det_a", far, 1.0), record_row("det_b", far, 1.0)]
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match=r"^records from line 2 \(2024-10-01 "
                       r"00:00:00\) to line 5 \(2999-10-01 00:00:00\) span"):
        load_csv(meta, recs)


def test_detector_hours_cap_counts_every_meta_detector(csv_pair,
                                                       monkeypatch):
    # three detectors in the meta file, records for two over 10 hours: the
    # arrays are sized for all three, so 30 detector-hours
    meta, recs = csv_pair
    write_meta(meta, ["det_a,I75,0.0,3,28.0,-82.0",
                      "det_b,I75,2.5,3,28.1,-82.0",
                      "det_c,I75,5.0,3,28.2,-82.0"])
    write_records(recs, 10, lambda d, h: 100.0)
    monkeypatch.setattr(dataio, "MAX_DETECTOR_HOURS", 30)
    load_csv(meta, recs)
    monkeypatch.setattr(dataio, "MAX_DETECTOR_HOURS", 29)
    with pytest.raises(SchemaError, match="^3 detectors over the 10 hours of "
                       "records from line 2 to line 21 make 30 "
                       "detector-hours, more than 29$"):
        load_csv(meta, recs)


def test_meta_rows_past_the_cap_are_not_read(csv_pair, monkeypatch):
    """Under a cap of 2 detector-hours the meta file's third row, line 4,
    is one detector too many; the loader reads no further, so the unknown
    highway on line 5 is not reached, while one on line 3 wins."""
    meta, recs = csv_pair
    rows = ["det_a,I75,0.0,3,28.0,-82.0", "det_b,I75,2.5,3,28.1,-82.0",
            "det_c,I75,5.0,3,28.2,-82.0", "det_d,I5,7.5,3,28.3,-82.0"]
    write_meta(meta, rows)
    write_records(recs, 10, lambda d, h: 100.0)
    with pytest.raises(SchemaError, match="^line 5: unknown highway 'I5'"):
        load_csv(meta, recs)
    monkeypatch.setattr(dataio, "MAX_DETECTOR_HOURS", 2)
    with pytest.raises(SchemaError, match="^line 4: more than 2 detectors "
                       "make more detector-hours than that$"):
        load_csv(meta, recs)
    write_meta(meta, [rows[0], rows[3], *rows[1:3]])
    with pytest.raises(SchemaError, match="^line 3: unknown highway 'I5'"):
        load_csv(meta, recs)
    # at the cap itself, the file is read whole
    monkeypatch.setattr(dataio, "MAX_DETECTOR_HOURS", 3)
    write_meta(meta, rows[:3])
    monkeypatch.setattr(dataio, "_load_records", lambda path, ids: ids)
    assert load_csv(meta, recs)[1] == ["det_a", "det_b", "det_c"]


def test_header_only_records_is_short_span(csv_pair):
    meta, recs = csv_pair
    recs.write_text(REC_HEADER + "\n")
    with pytest.raises(dataio.ShortSpanError, match="no records"):
        dataio.prepare(meta, recs)


def test_one_hour_of_records_is_short_span(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 1, lambda d, h: 100.0)
    with pytest.raises(dataio.ShortSpanError, match="split of 1 hours"):
        dataio.prepare(meta, recs)


def test_negative_flow_names_line(csv_pair):
    meta, recs = csv_pair
    rows = [record_row("det_a", T0, 100.0),
            record_row("det_a", T0 + timedelta(hours=1), -5.0)]
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match="line 3.*negative flow"):
        load_csv(meta, recs)


def test_error_names_file_line_after_multiline_cell(csv_pair):
    meta, recs = csv_pair
    rows = [record_row("det_a", T0 + timedelta(hours=h), 100.0)
            for h in range(5)]
    # a quoted incident_flag cell "0\n" puts row 1 on lines 3 and 4
    rows[1] = rows[1].replace(",60.0,0,", ',60.0,"0\n",', 1)
    rows[4] = record_row("det_a", T0 + timedelta(hours=4), -5.0)
    text = REC_HEADER + "\n" + "\n".join(rows) + "\n"
    assert text.splitlines()[6].startswith("det_a,2024-10-01T04:00:00,-5.0")
    recs.write_text(text)
    with pytest.raises(SchemaError, match=r"^line 7: negative flow$"):
        load_csv(meta, recs)
    rows[4] = record_row("det_a", T0 + timedelta(hours=9000), 100.0)
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match=r"^records from line 2 .* to line "
                                          r"7 "):
        load_csv(meta, recs)


def test_meta_error_names_file_line_after_multiline_cell(csv_pair):
    meta, recs = csv_pair
    write_meta(meta, ['det_a,I75,0.0,3,"28.0\n",-82.0',
                      "det_b,I75,2.5,3,28.1,-82.0",
                      "det_c,I99,5.0,3,28.2,-82.0"])
    with pytest.raises(SchemaError, match=r"^line 5: unknown highway 'I99'"):
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
    i = data.detectors.ids.index("det_a")
    assert data.temporal[i, 30, col["prev_day_mean"]] == pytest.approx(100.0)
    assert data.temporal[i, 30, col["prev_day_std"]] == pytest.approx(0.0)
    assert data.temporal[i, 60, col["prev_period_mean"]] == pytest.approx(100.0)


def test_prev_day_mean_alternating(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 48, lambda d, h: 50.0 if h % 2 == 0 else 150.0)
    data = engineer_features(*reversed(load_csv(meta, recs)))
    col = {n: k for k, n in enumerate(dataio.TEMPORAL_FEATURES)}
    i = data.detectors.ids.index("det_a")
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
    i = data.detectors.ids.index("det_a")
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
    # the largest flow the loader accepts, confined to the validation tail
    write_records(recs, 100, lambda d, h: dataio.MAX_FLOW if h >= 95
                  else 100.0 + (h % 7))
    data = engineer_features(*reversed(load_csv(meta, recs)))
    train_end, norm, _ = split_and_fit(data)
    k = dataio.REGISTRY.index("flow")
    train_vals = data.temporal[:, :train_end, k][data.active[:, :train_end]]
    assert norm.shift[k] == pytest.approx(train_vals.mean())
    assert norm.shift[k] < 1000


def test_zscored_train_flow(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 100, lambda d, h: 100.0 + 10 * (h % 5))
    data = engineer_features(*reversed(load_csv(meta, recs)))
    train_end, norm, _ = split_and_fit(data)
    k = dataio.REGISTRY.index("flow")
    vals = data.temporal[:, :train_end, k][data.active[:, :train_end]]
    z = (vals - norm.shift[k]) / norm.scale[k]
    assert abs(z.mean()) < 1e-9
    assert abs(z.std() - 1.0) < 1e-9


def test_normalize_round_trip(csv_pair):
    meta, recs = csv_pair
    write_records(recs, 72, lambda d, h: 100.0 + h)
    data = engineer_features(*reversed(load_csv(meta, recs)))
    _, norm, _ = split_and_fit(data)
    x = np.linspace(-3, 3, len(dataio.REGISTRY))
    np.testing.assert_allclose(norm.inverse(norm.transform(x)), x, atol=1e-9)


# a few repeated values make constant groups; fill makes whole runs
cells = st.one_of(st.sampled_from([np.nan, 0.0, 1.0, -2.5, 7e5]),
                  st.floats(-1e6, 1e6))
fills = st.sampled_from([np.nan, 0.0, 1.0])


@st.composite
def fit_inputs(draw):
    """A stand-in for `EngineeredData`: feature blocks with nan cells and
    runs of one value, the binary columns among them, and per-detector
    flows over drawn active hours (non-nan where active, as the loader
    guarantees), so groups come out empty, constant or single-valued."""
    n_det, n_hours = draw(st.integers(1, 4)), draw(st.integers(2, 14))
    f_t, f_s = len(dataio.TEMPORAL_FEATURES), len(dataio.SPATIAL_FEATURES)
    active = draw(arrays(bool, (n_det, n_hours), elements=st.booleans()))
    flow = draw(arrays(float, (n_det, n_hours), elements=st.one_of(
        st.sampled_from([0.0, 250.0]), st.floats(0, dataio.MAX_FLOW)),
        fill=st.just(250.0)))
    return SimpleNamespace(
        timeline=[None] * n_hours, active=active,
        temporal=draw(arrays(float, (n_det, n_hours, f_t), elements=cells,
                             fill=fills)),
        spatial=draw(arrays(float, (n_det, f_s), elements=cells,
                            fill=fills)),
        flow=np.where(active, flow, np.nan),
        registry=list(dataio.TEMPORAL_FEATURES + dataio.SPATIAL_FEATURES))


def same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and (
        a.tobytes() == b.tobytes())


@settings(max_examples=300, deadline=None)
@given(data=fit_inputs(), rows=st.data())
def test_normalizer_matches_the_two_class_oracle(data, rows):
    """One `Normalizer` per features and per detector fits, transforms
    and inverts bit for bit as the per-feature and per-detector classes
    it replaced did."""
    train_end, features, flows = split_and_fit(data)
    ref_end, ref, ref_flows = normalizer_reference.split_and_fit(data)
    assert train_end == ref_end
    assert same_bits(features.shift, ref.shift)
    assert same_bits(features.scale, ref.scale)
    assert same_bits(flows.shift, ref_flows.mean)
    assert same_bits(flows.scale, ref_flows.std)
    x = np.concatenate([data.temporal, np.broadcast_to(
        data.spatial[:, None], (*data.temporal.shape[:2],
                                data.spatial.shape[1]))], axis=2)
    dets = np.array(rows.draw(st.lists(
        st.integers(0, len(data.flow) - 1), min_size=1, max_size=6)))
    y = rows.draw(arrays(float, (len(dets), 3), elements=cells))
    with np.errstate(all="ignore"):  # a tiny std may overflow; both alike
        assert same_bits(features.transform(x), ref.transform(x))
        assert same_bits(features.inverse(x), ref.inverse(x))
        assert same_bits(flows.transform(y, dets),
                         ref_flows.transform(dets, y))
        assert same_bits(flows.inverse(y, dets), ref_flows.inverse(dets, y))


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
    det_b = data.detectors.ids.index("det_b")
    assert det_b not in by_anchor[48].det_indices
    assert det_b in by_anchor[60].det_indices
    # det_b still appears as a step extra where it is active: hours 48
    # and 49 of the window's input hours 48-53
    w = by_anchor[48]
    assert [list(e) for e in w.extra_temporal] == [[det_b]] * 2 + [[]] * 4
    # so those hours' graphs join det_a to det_b: det_a's rows are its row
    # of the two-node graph's product (by the dense oracle), rounded to the
    # table's float32; the later hours hold det_a alone, whose product with
    # its own row is that row
    rows = dataio.gather_inputs([w], ("identity",))[:, 0, 0]
    det = data.detectors
    pair = [det.ids.index("det_a"), det_b]
    joined = [graphs.build_snapshot(det.highway[pair], det.milepost[pair],
                                    data.speed[pair, t]) for t in (48, 49)]
    for g in ("d", "tt"):
        prop = dataio.gather_inputs([w], (g,))[:, 0, 0]
        np.testing.assert_array_equal(prop[:2], [
            graphs_reference.product(graphs_reference.dense(
                2, s.i, s.j, getattr(s, f"adj_{g}")), table[t, 0, pair])[0]
            .astype(np.float32) for s, t in zip(joined, (48, 49))])
        np.testing.assert_array_equal(prop[2:], rows[2:])
        k = INPUT_MODALITIES.index(g)
        assert table[48:50, k, det_b].any(axis=1).all()
        assert not table[50:54, k, det_b].any()


def test_step_extras_match_membership_loop(tmp_path):
    meta, records, _ = synth.generate(synth.builtin_scenarios()["S2"],
                                      tmp_path)
    ds = dataio.prepare(meta, records, l=6, p=6)
    data = engineer_features(*reversed(load_csv(meta, records)))
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
    data = engineer_features(*reversed(load_csv(meta, records)))
    m = rlagent.apply_mask(2, ds.f_t, ds.f_s)
    windows = [w for w in ds.train_windows + ds.val_windows
               if any(len(e) for e in w.extra_temporal)]
    assert windows
    det = data.detectors
    for w in windows:
        pred = w.det_indices
        for step in range(ds.l):
            t = w.anchor_index + step
            order = list(pred) + [i for i in np.flatnonzero(data.active[:, t])
                                  if i not in set(pred)]
            snap = graphs.build_snapshot(det.highway[order],
                                         det.milepost[order],
                                         data.speed[order, t])
            # the table's float32 rows, and their products in float64
            # rounded to float32
            raw = np.nan_to_num(ds.norm.transform(np.concatenate(
                [data.temporal[order, t], data.spatial[order]],
                axis=1))).astype(np.float32)
            np.testing.assert_array_equal(
                dataio.gather_inputs([w], ("identity",))[step, 0],
                raw[:len(pred)])
            for g in ("d", "tt"):
                adj = graphs_reference.dense(len(order), snap.i, snap.j,
                                             getattr(snap, f"adj_{g}"))
                np.testing.assert_allclose(
                    dataio.gather_inputs([w], (g,))[step, 0] * m,
                    graphs_reference.product(adj, raw * m)
                    .astype(np.float32)[:len(pred)], rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("name", ["S1", "S2"])
def test_table_equals_dense_oracle(tmp_path, name):
    """Every graph product of the input table equals, bit for bit, the
    dense oracle's over that hour's active detectors: its n × n
    normalization times the table's rows, in float64, rounded once to
    float32."""
    meta, records, _ = synth.generate(synth.builtin_scenarios()[name],
                                      tmp_path)
    ds = dataio.prepare(meta, records, l=6, p=6)
    data = engineer_features(*reversed(load_csv(meta, records)))
    table = ds.train_windows[0].table
    det = data.detectors
    covered = sorted({w.anchor_index + s for w in ds.train_windows
                      + ds.val_windows for s in range(ds.l)})
    assert len(covered) > 100
    for t in covered:
        act = np.flatnonzero(data.active[:, t])
        ref = graphs_reference.build_snapshot(
            [SimpleNamespace(detector_id=k, highway=det.highway[k],
                             milepost=det.milepost[k]) for k in act],
            dict(zip(act, data.speed[act, t])))
        hour = table[t:t + 1][:, :, act]  # a copy of the hour's rows
        hour[:, 1:] = np.nan
        repropagate(hour, [ref], graphs_reference.propagate)
        assert hour.tobytes() == table[t:t + 1][:, :, act].tobytes(), t


def test_graph_products_only_at_covered_hours(tmp_path):
    """The table holds graph products at exactly the hours the windows
    cover, over exactly the detectors active then, and nowhere else."""
    meta, records, _ = synth.generate(synth.builtin_scenarios()["S2"],
                                      tmp_path)
    data = engineer_features(*reversed(load_csv(meta, records)))
    train_end, norm, tnorm = split_and_fit(data)
    table = input_table(data, norm)
    windows = make_windows(data, table, tnorm, l=6, p=6, end=train_end)
    covered = np.zeros(len(data.timeline), bool)
    for w in windows:
        covered[w.anchor_index:w.anchor_index + 6] = True
    assert covered.sum() < 6 * len(windows)
    for g in ("d", "tt"):
        np.testing.assert_array_equal(
            table[:, INPUT_MODALITIES.index(g)].any(axis=2),
            data.active.T & covered[:, None])


def window_case(active, highway, milepost, speed, seed=0):
    """A prepared timeline over detectors with the given (n, T) active
    mask, highways, mileposts and (n, T) speeds: random flows, a random
    per-detector flow normalizer, and an input table with random rows and
    no graph products."""
    rng = np.random.default_rng(seed)
    n, n_hours = active.shape
    data = SimpleNamespace(
        timeline=np.arange(n_hours), active=active, speed=speed,
        flow=rng.uniform(0.0, 3000.0, (n, n_hours)),
        detectors=SimpleNamespace(highway=highway, milepost=milepost))
    table = np.zeros((n_hours, len(INPUT_MODALITIES), n, 4), np.float32)
    table[:, 0] = rng.normal(size=(n_hours, n, 4))
    tnorm = dataio.Normalizer(rng.normal(size=n), rng.uniform(0.5, 2.0, n))
    return data, table, tnorm


def assert_windows_equal_reference(data, table, tnorm, **span):
    """`make_windows` writes the per-hour reference's table bytes and
    returns its windows, array for array and dtype for dtype."""
    want_table = table.copy()
    want = windows_reference.make_windows(data, want_table, tnorm, **span)
    got = make_windows(data, table, tnorm, **span)
    assert table.tobytes() == want_table.tobytes()
    assert [w.anchor_index for w in got] == [w.anchor_index for w in want]
    for g, w in zip(got, want):
        for name in ("det_indices", "targets", "targets_raw"):
            a, b = getattr(g, name), getattr(w, name)
            assert (a.dtype, a.shape, a.tobytes()) == \
                (b.dtype, b.shape, b.tobytes()), name
        assert [(e.dtype, e.tolist()) for e in g.extra_temporal] == \
            [(e.dtype, e.tolist()) for e in w.extra_temporal]
        assert g.table is table
    return got


@st.composite
def window_cases(draw):
    """Up to 7 detectors on up to 2 highways over up to 30 hours: a drawn
    active mask, mileposts on a grid (so equal spacings, and hours whose
    edges all weigh the same, are common), speeds from a few values that
    include stalled ones (a mean endpoint speed <= 0), l, p, a span and
    the hours per block."""
    n = draw(st.integers(1, 7))
    l, p = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    n_hours = draw(st.integers(l + p, 30))
    active = draw(arrays(np.bool_, (n, n_hours),
                         elements=st.sampled_from([True, True, False])))
    highway = np.array(draw(st.lists(st.sampled_from(["I4", "I75"]),
                                     min_size=n, max_size=n)))
    milepost = 2.5 * np.array(draw(st.permutations(range(n))), float)
    speed = draw(arrays(np.float64, (n, n_hours),
                        elements=st.sampled_from([-3.0, 0.0, 30.0, 60.0])))
    start = draw(st.integers(0, n_hours - l - p))
    end = draw(st.integers(start + l + p, n_hours))
    block_rows = draw(st.integers(1, 3 * n))
    return (active, highway, milepost, speed,
            dict(l=l, p=p, start=start, end=end), block_rows)


@settings(max_examples=300, deadline=None)
@given(window_cases(), st.integers(0, 2**32 - 1))
def test_make_windows_equals_per_hour_reference(case, seed):
    """The sliding window pass and the blocked graph pass give the per-hour
    loop's table and windows bit for bit, with blocks of a few hours (as
    few as one) whose edges split a window's hours."""
    active, highway, milepost, speed, span, block_rows = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "BLOCK_ROWS", block_rows)
        assert_windows_equal_reference(
            *window_case(active, highway, milepost, speed, seed), **span)


def test_make_windows_equals_per_hour_reference_hand_case(monkeypatch):
    """One case that holds each kind of hour at once: covered hours with
    1, 2, 3 and 4 active detectors and an hour with none; hours whose
    edges weigh all the same; stalled speeds; and 2-hour blocks that
    split every window's input hours."""
    n_hours = 16
    active = np.ones((4, n_hours), bool)
    active[3, 4:6] = False  # 2, then 3 active detectors
    active[2, 4] = False
    active[1:, 9] = False  # 1
    active[:, 12] = False  # none
    highway = np.array(["I75"] * 4)
    milepost = np.array([0.0, 2.0, 4.0, 6.0])  # equal spacing
    speed = np.full((4, n_hours), 50.0)  # equal weights ...
    speed[:2, 2:4] = [[-1.0, 0.0], [0.0, 10.0]]  # ... but stalled here
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 8)  # 2 hours of 4 detectors
    windows = assert_windows_equal_reference(
        *window_case(active, highway, milepost, speed), l=3, p=2)
    covered = sorted({w.anchor_index + s for w in windows for s in range(3)})
    assert set(active[:, covered].sum(axis=0)) == {1, 2, 3, 4}
    assert 12 not in covered
    assert any(len(e) for w in windows for e in w.extra_temporal)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**16), rate=st.floats(0.0, 0.05),
       # each ends by the 110-hour horizon, as `validate` requires
       outages=st.lists(st.integers(0, 100).flatmap(lambda start: st.tuples(
           st.integers(0, 4), st.just(start),
           st.integers(1, min(12, 110 - start)))), max_size=4))
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
    active = engineer_features(*reversed(load_csv(meta, records))).active
    read = {}  # (hour, detector) -> the rows the first window read there
    for w in ds.train_windows + ds.val_windows:
        a = w.anchor_index
        assert active[w.det_indices, a:a + ds.l + ds.p].all()
        np.testing.assert_allclose(
            ds.target_norm.inverse(w.targets, w.det_indices), w.targets_raw,
            rtol=1e-12, atol=0)
        rows = dataio.gather_inputs([w], INPUT_MODALITIES)
        for step in range(ds.l):
            for k, i in enumerate(w.det_indices):
                np.testing.assert_array_equal(
                    read.setdefault((a + step, i), rows[step, :, k]),
                    rows[step, :, k])



def test_prepare_keeps_no_feature_array(tmp_path, monkeypatch):
    """What `engineer_features` builds is garbage once `prepare` returns:
    the dataset keeps the detectors, the statistics and the windows."""
    meta, records, _ = synth.generate(synth.builtin_scenarios()["S2"],
                                      tmp_path)
    refs = []
    real = dataio.engineer_features

    def recording(*args):
        data = real(*args)
        refs.extend(map(weakref.ref, (data, data.temporal, data.spatial,
                                      data.active, data.flow, data.speed)))
        return data

    monkeypatch.setattr(dataio, "engineer_features", recording)
    ds = dataio.prepare(meta, records, l=6, p=6)
    gc.collect()
    assert len(refs) == 6 and ds.train_windows and ds.val_windows
    assert all(ref() is None for ref in refs)
    assert len(ds.detectors.ids) == 8


# ---- malformed corpora: the loader's error contract ----

NUMERIC = range(2, len(dataio.RECORD_COLUMNS))  # flow onwards


@pytest.fixture(scope="module")
def s1_corpus(tmp_path_factory):
    """The built-in S1 corpus's files and records lines, and a config for
    a one-epoch training small enough to run per example."""
    work = tmp_path_factory.mktemp("mutated")
    meta, records, _ = synth.generate(synth.builtin_scenarios()["S1"],
                                      work / "corpus")
    config = work / "config.json"
    config.write_text('{"epochs": 1, "hidden": 4, "l": 2, "p": 1, '
                      '"batch_size": 64}', encoding="utf-8")
    return work, meta, records.read_text(encoding="utf-8").splitlines(), \
        config


def _field(line, column):
    fields = line.split(",")
    return fields[column] if column < len(fields) else ""


def _set_field(line, column, value):
    fields = line.split(",")
    fields += [""] * (column + 1 - len(fields))
    fields[column] = value
    return ",".join(fields)


MUTATIONS = ("text", "empty", "nonfinite", "negative", "huge", "slow",
             "vast", "field_count", "duplicate", "offset", "far_year", "crlf",
             "bom", "truncated")


@st.composite
def mutations(draw, kind, lines):
    """(lines, the file line that changed, whether the file ends with a
    newline) after one change of `kind` to one line of a valid records
    file's `lines`, header included."""
    lines = list(lines)
    i = draw(st.integers(1, len(lines) - 1))  # a data line, 0-based
    line = lines[i]
    if kind == "text":
        text = draw(st.text(alphabet="abcxyz.-_ ", min_size=1, max_size=5))
        lines[i] = _set_field(line, draw(st.sampled_from(NUMERIC)), text)
    elif kind == "empty":
        lines[i] = _set_field(
            line, draw(st.integers(0, len(dataio.RECORD_COLUMNS) - 1)), "")
    elif kind == "nonfinite":
        lines[i] = _set_field(line, draw(st.sampled_from(NUMERIC)),
                              draw(st.sampled_from(["nan", "NaN", "inf",
                                                    "-inf", "Infinity",
                                                    "+inf"])))
    elif kind == "negative":
        lines[i] = _set_field(line, draw(st.sampled_from(NUMERIC)),
                              draw(st.sampled_from(["-1", "-0.5", "-250"])))
    elif kind == "huge":  # a finite flow above MAX_FLOW
        lines[i] = _set_field(line, 2, draw(st.sampled_from(
            ["1e300", "1e160", "2e6"])))
    elif kind == "slow":  # a positive speed below MIN_SPEED
        lines[i] = _set_field(line, 3, draw(st.sampled_from(
            ["1e-308", "5e-324", "0.0099"])))
    elif kind == "vast":  # a speed or exogenous value above MAX_MAGNITUDE
        lines[i] = _set_field(line, draw(st.sampled_from(NUMERIC[1:])),
                              draw(st.sampled_from(["1e200", "-1e200",
                                                    "1e10", "-2e9"])))
    elif kind == "field_count":
        fields = line.split(",")
        column = draw(st.integers(0, len(fields) - 1))
        if draw(st.booleans()):
            fields.pop(column)
        else:
            fields.insert(column, "0")
        lines[i] = ",".join(fields)
    elif kind == "duplicate":  # a copy of line i right after it
        lines.insert(i + 1, line)
        i += 1
    elif kind == "offset":
        lines[i] = _set_field(line, 1, _field(line, 1) + draw(
            st.sampled_from(["Z", "+00:00", "-05:00", "+05:30"])))
    elif kind == "far_year":
        year = draw(st.sampled_from(["2999", "9999"]))
        lines[i] = _set_field(line, 1, year + _field(line, 1)[4:])
    elif kind == "crlf":  # this line, or every line
        if draw(st.booleans()):
            lines[i] += "\r"
        else:
            lines = [ln + "\r" for ln in lines]
    elif kind == "bom":
        lines[i] = "\ufeff" + line
    elif kind == "truncated":  # the last line, without its newline
        i = len(lines) - 1
        lines[i] = lines[i][:draw(st.integers(0, max(len(lines[i]) - 1, 0)))]
    return lines, i + 1, kind != "truncated"


@pytest.mark.parametrize("kind", MUTATIONS)
@settings(max_examples=6, deadline=None)
@given(data=st.data())
def test_mutated_line_loads_or_is_named(s1_corpus, kind, data):
    """One malformed line of a valid S1 records file either loads, or is a
    SchemaError naming that line (or a ShortSpanError); `evacnet train`
    then exits 0 or 1, never 2 (an internal error)."""
    from evacnet import cli
    work, meta, lines, config = s1_corpus
    lines, line_no, final_newline = data.draw(mutations(kind, lines))
    corpus = work / "data"
    corpus.mkdir(exist_ok=True)
    (corpus / "meta.csv").write_bytes(meta.read_bytes())
    text = "\n".join(lines) + ("\n" if final_newline else "")
    (corpus / "records.csv").write_text(text, encoding="utf-8", newline="")
    try:
        dataio.prepare(corpus / "meta.csv", corpus / "records.csv", l=2, p=1)
        expected = 0
    except SchemaError as exc:
        assert re.search(rf"\bline {line_no}\b", str(exc)), str(exc)
        expected = 1
    except dataio.ShortSpanError:
        expected = 1
    assert cli.main(["train", "--data", str(corpus), "--config", str(config),
                     "--out", str(work / "out"), "--log-level", "ERROR"]) \
        == expected


def _train_exit_code(work, meta_lines, records_lines, config):
    """`evacnet train`'s exit code on a corpus of the given lines."""
    from evacnet import cli
    corpus = work / "edited"
    corpus.mkdir(exist_ok=True)
    for name, lines in (("meta.csv", meta_lines),
                        ("records.csv", records_lines)):
        (corpus / name).write_text("\n".join(lines) + "\n", encoding="utf-8")
    return cli.main(["train", "--data", str(corpus), "--config", str(config),
                     "--out", str(work / "out"), "--log-level", "ERROR"])


def _set_speeds(lines, prefixes, speed):
    """The lines with the speed of each line starting with one of the
    prefixes set; and the file line numbers of those lines."""
    hits = [k for k, line in enumerate(lines) if line.startswith(prefixes)]
    lines = list(lines)
    for k in hits:
        lines[k] = _set_field(lines[k], 3, speed)
    return lines, [k + 1 for k in hits]


def test_tiny_positive_speed_is_named_not_trained_on(s1_corpus, caplog):
    """Speeds of 1e-308 at two neighbouring detectors made their travel
    time overflow to inf, the snapshot's graph nan and `train` exit 2."""
    work, meta, lines, config = s1_corpus
    lines, line_nos = _set_speeds(lines, ("I75_000,2024-10-03T02:00",
                                          "I75_001,2024-10-03T02:00"),
                                  "1e-308")
    assert len(line_nos) == 2
    assert _train_exit_code(work, meta.read_text().splitlines(), lines,
                            config) == 1
    assert f"line {line_nos[0]}: positive speed below " \
           f"{dataio.MIN_SPEED} mph" in caplog.text


def test_huge_milepost_is_named_not_trained_on(s1_corpus, caplog):
    """A milepost of 1e308 and two neighbouring speeds of 0.5 mph at one
    hour made that edge's travel time overflow and `train` exit 2."""
    work, meta, lines, config = s1_corpus
    meta_lines = meta.read_text().splitlines()
    assert meta_lines[6].startswith("I75_005,I75,")
    meta_lines[6] = _set_field(meta_lines[6], 2, "1e308")
    lines, _ = _set_speeds(lines, ("I75_004,2024-10-03T02:00",
                                   "I75_005,2024-10-03T02:00"), "0.5")
    assert _train_exit_code(work, meta_lines, lines, config) == 1
    assert f"line 7: milepost must be <= {dataio.MAX_MILEPOST:.0f}" \
        in caplog.text


def test_huge_lanes_is_named_not_trained_on(s1_corpus, caplog):
    """Lanes of 1e300 overflowed the lanes feature's standard deviation:
    `train` warned and exited 0, having trained on that feature divided by
    an infinite scale."""
    work, meta, lines, config = s1_corpus
    meta_lines = meta.read_text().splitlines()
    meta_lines[1] = _set_field(meta_lines[1], 3, "1e300")
    assert _train_exit_code(work, meta_lines, lines, config) == 1
    assert f"line 2: column lanes exceeds {dataio.MAX_MAGNITUDE:.0e} in " \
           f"magnitude" in caplog.text


@pytest.mark.parametrize("line_no, column", [
    (102, "speed"), (102, "cum_pop_under_orders"), (2, "dist_landfall_mi")])
def test_huge_record_value_is_named_not_trained_on(s1_corpus, caplog,
                                                   line_no, column):
    """A value of 1e200 overflowed its feature's standard deviation, a
    temporal one (speed, cum_pop_under_orders) or the spatial one a
    detector's first dist_landfall_mi fills: `train` warned and exited
    0."""
    work, meta, lines, config = s1_corpus
    lines = list(lines)
    k = dataio.RECORD_COLUMNS.index(column)
    lines[line_no - 1] = _set_field(lines[line_no - 1], k, "1e200")
    assert _train_exit_code(work, meta.read_text().splitlines(), lines,
                            config) == 1
    assert f"line {line_no}: column {column} exceeds " \
           f"{dataio.MAX_MAGNITUDE:.0e} in magnitude" in caplog.text


def test_bounds_themselves_load(csv_pair):
    meta, recs = csv_pair
    write_meta(meta, ["det_a,I75,0.0,3,28.0,-82.0",
                      f"det_b,I75,{dataio.MAX_MILEPOST},3,28.1,-82.0"])
    rows = [record_row(d, T0 + timedelta(hours=h), 100.0,
                       speed=dataio.MIN_SPEED if h else 0.0)
            for d in ("det_a", "det_b") for h in range(2)]
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    detectors, columns = load_csv(meta, recs)
    assert detectors.milepost.tolist() == [0.0, dataio.MAX_MILEPOST]
    assert sorted(set(columns.values[:, 1])) == [0.0, dataio.MIN_SPEED]


def test_magnitude_bound_itself_loads(csv_pair):
    meta, recs = csv_pair
    write_meta(meta, ["det_a,I75,0.0,1000000000,28.0,-82.0",
                      "det_b,I75,2.5,3,28.1,-82.0"])
    k = dataio.RECORD_COLUMNS.index("hrs_before_landfall")
    rows = [_set_field(record_row(d, T0, 100.0, speed=dataio.MAX_MAGNITUDE),
                       k, str(-dataio.MAX_MAGNITUDE))
            for d in ("det_a", "det_b")]
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    detectors, columns = load_csv(meta, recs)
    assert detectors.lanes.tolist() == [10**9, 3]
    assert (columns.values[:, 1] == dataio.MAX_MAGNITUDE).all()
    assert (columns.values[:, k - 2] == -dataio.MAX_MAGNITUDE).all()


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Two detectors' 30 hours: the meta file, the loaded detectors and the
    records lines."""
    work = tmp_path_factory.mktemp("small")
    meta, recs = work / "meta.csv", work / "records.csv"
    write_meta(meta)
    write_records(recs, 30, lambda d, h: 100.0 + h)
    detectors, _ = load_csv(meta, recs)
    return work, meta, detectors, recs.read_text().splitlines()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_same_error_or_values_as_row_wise_loader(small_corpus, data):
    """With up to three malformed lines, the columnar loader raises the
    row-wise loader's SchemaError, message for message, or reads the same
    records."""
    _same_error_or_values_as_row_wise_loader(small_corpus, data)


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_same_error_or_values_as_row_wise_loader_in_blocks_of_3(
        small_corpus, data):
    """The same, reading the records 3 rows at a time, so that a failing
    row, a duplicate and the row it repeats fall in different blocks."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(dataio, "BLOCK_ROWS", 3)
        _same_error_or_values_as_row_wise_loader(small_corpus, data)


def _same_error_or_values_as_row_wise_loader(small_corpus, data):
    work, meta, detectors, lines = small_corpus
    final_newline = True
    for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1,
                                   max_size=3)):
        lines, _, keeps_newline = data.draw(mutations(kind, lines))
        final_newline &= keeps_newline
    recs = work / "mutated.csv"
    recs.write_text("\n".join(lines) + ("\n" if final_newline else ""),
                    encoding="utf-8", newline="")
    try:
        expected = loader_reference.load_records(recs, set(detectors.ids))
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            load_csv(meta, recs)
        assert str(got.value) == str(exc)
        return
    _, columns = load_csv(meta, recs)
    records = as_records(columns, detectors)
    assert sorted(records, key=lambda r: (r.detector_id, r.timestamp)) == \
        expected


def test_csv_error_is_a_failure_of_its_row(csv_pair):
    """A field over the csv module's size limit fails its own row, so an
    earlier failing row wins, as it does row by row; the whole text used
    to be read, and the limit's error raised, first."""
    meta, recs = csv_pair
    rows = [record_row("det_a", T0 + timedelta(hours=h), 100.0)
            for h in range(4)]
    rows[3] = rows[3].replace(",60.0,", ',"' + "9" * 200_000 + '",', 1)
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match=r"^line 5: field larger than "
                                          r"field limit"):
        load_csv(meta, recs)
    rows[1] = record_row("det_a", T0 + timedelta(hours=1), -5.0)
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match=r"^line 3: negative flow$"):
        load_csv(meta, recs)


def test_reading_stops_after_one_row_more_than_the_cap(csv_pair,
                                                       monkeypatch):
    """30 rows already make 32 detector-hours, more than a cap of 29: the
    loader reads no further, so the negative flow on the file's last line
    is not reached."""
    meta, recs = csv_pair
    rows = [record_row(d, T0 + timedelta(hours=h), 100.0)
            for d in ("det_a", "det_b") for h in range(16)]
    rows[-1] = record_row("det_b", T0 + timedelta(hours=15), -5.0)
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    with pytest.raises(SchemaError, match="^line 33: negative flow$"):
        load_csv(meta, recs)
    monkeypatch.setattr(dataio, "MAX_DETECTOR_HOURS", 29)
    with pytest.raises(SchemaError, match="^2 detectors over the 16 hours of "
                       "records from line 2 to line 17 make 32 "
                       "detector-hours, more than 29$"):
        load_csv(meta, recs)


# load_csv's tracemalloc peak may be at most this multiple of the records
# file's size. It keeps 152 bytes per row parsed, about 1.5 times a
# generated file, and twice that while it joins the blocks' arrays,
# beside one block's cell texts; reading the whole text into cells first
# took about 14 times.
LOADER_MEMORY_FACTOR = 5


@pytest.fixture(scope="module")
def large_records(tmp_path_factory):
    """A generated corpus of 40 detectors over 480 hours, 19,200 records
    (2 MB)."""
    scenario = synth.Scenario(
        name="large", seed=5, horizon_hours=480,
        corridors=[("I75", 40, 1.0)], noise_std=20.0,
        incident_rate_per_hour=0.01, outage_rate_per_hour=0.003)
    meta, records, _ = synth.generate(scenario,
                                      tmp_path_factory.mktemp("large"))
    return meta, records


def _load_peak(meta, records):
    """(load_csv's result or SchemaError, its tracemalloc peak in bytes)."""
    tracemalloc.start()
    try:
        try:
            result = load_csv(meta, records)
        except SchemaError as exc:
            result = exc
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loader_memory_is_a_small_multiple_of_the_file(large_records):
    meta, records = large_records
    (_, columns), peak = _load_peak(meta, records)
    assert len(columns.hour) == 40 * 480
    assert peak < LOADER_MEMORY_FACTOR * records.stat().st_size


def test_loader_peak_is_two_copies_of_its_arrays(large_records,
                                                  monkeypatch):
    """In blocks small enough that one block's cell texts count for little,
    the loader peaks while it joins the blocks' arrays: 2 x 152 bytes per
    row (see MAX_DETECTOR_HOURS), within 5 %."""
    monkeypatch.setattr(dataio, "BLOCK_ROWS", 256)
    meta, records = large_records
    (_, columns), peak = _load_peak(meta, records)
    assert peak < 1.05 * 2 * 152 * len(columns.hour)


def test_many_duplicate_rows_are_rejected_within_the_bound(
        large_records, tmp_path, monkeypatch):
    """50,000 copies of one row under a cap of 1000 detector-hours: the
    first copy is named, and reading stops after 1001 rows, where it
    used to read them all before any check. Reading them all in blocks
    would hold about 3 times the file, not under half of it."""
    meta, records = large_records
    header, row = records.read_text(encoding="utf-8").splitlines()[:2]
    copies = tmp_path / "records.csv"
    copies.write_text("\n".join([header] + [row] * 50_000) + "\n",
                      encoding="utf-8")
    monkeypatch.setattr(dataio, "MAX_DETECTOR_HOURS", 1000)
    error, peak = _load_peak(meta, copies)
    assert isinstance(error, SchemaError)
    assert str(error).startswith("line 3: duplicate (detector, timestamp)")
    assert peak < LOADER_MEMORY_FACTOR * copies.stat().st_size
    assert peak < copies.stat().st_size / 2


@pytest.fixture(scope="module")
def s2_meta(tmp_path_factory):
    """The built-in S2 corpus's meta lines, whose ids are not in file order
    (the I75 rows come first), and a records file with no rows."""
    work = tmp_path_factory.mktemp("meta")
    meta, _, _ = synth.generate(synth.builtin_scenarios()["S2"],
                                work / "corpus")
    recs = work / "records.csv"
    recs.write_text(REC_HEADER + "\n")
    return work, meta.read_text().splitlines(), recs


META_MUTATIONS = ("field_count", "repeated_id", "repeated_position", "empty",
                  "text", "nonfinite", "range", "highway")


@st.composite
def meta_mutations(draw, lines):
    """`lines`, a valid meta file's header and rows, after one change to
    one row."""
    lines = list(lines)
    i = draw(st.integers(1, len(lines) - 1))
    other = lines[draw(st.integers(1, len(lines) - 1))]
    line, kind = lines[i], draw(st.sampled_from(META_MUTATIONS))
    if kind == "field_count":
        fields = line.split(",")
        column = draw(st.integers(0, len(fields) - 1))
        if draw(st.booleans()):
            fields.pop(column)
        else:
            fields.insert(column, "0")
        lines[i] = ",".join(fields)
    elif kind == "repeated_id":
        lines[i] = _set_field(line, 0, _field(other, 0))
    elif kind == "repeated_position":  # the milepost maybe spelled longer
        milepost = _field(other, 2) + draw(st.sampled_from(["", "0"]))
        lines[i] = _set_field(_set_field(line, 1, _field(other, 1)), 2,
                              milepost)
    elif kind == "empty":
        lines[i] = _set_field(line, draw(st.integers(0, 5)), "")
    elif kind == "text":
        text = draw(st.text(alphabet="abcxyz.-_ ", min_size=1, max_size=5))
        lines[i] = _set_field(line, draw(st.integers(2, 5)), text)
    elif kind == "nonfinite":
        lines[i] = _set_field(line, draw(st.integers(2, 5)), draw(
            st.sampled_from(["nan", "inf", "-inf", "Infinity"])))
    elif kind == "range":
        column, value = draw(st.sampled_from(
            [(2, v) for v in ("-1", "-0", "-0.0", "1e4", "10000.5", "1e308")]
            + [(3, v) for v in ("0", "-1", "2.5", "1e9", "1e10", "1e300")]
            + [(k, v) for k in (4, 5) for v in ("1e300", "-1e300")]))
        lines[i] = _set_field(line, column, value)
    elif kind == "highway":
        lines[i] = _set_field(line, 1, draw(st.sampled_from(
            ["I99", "i75", "I75 ", "I4\x00", *dataio.HIGHWAYS])))
    return lines


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_same_meta_error_or_detectors_as_row_wise_loader(s2_meta, data):
    """With one to three changed cells or rows, the columnar meta loader
    raises the row-wise loader's SchemaError, message for message, or
    reads the same detectors, in ascending id order."""
    work, lines, recs = s2_meta
    for _ in range(data.draw(st.integers(1, 3))):
        lines = data.draw(meta_mutations(lines))
    meta = work / "mutated.csv"
    meta.write_text("\n".join(lines) + "\n", encoding="utf-8")
    try:
        expected = loader_reference.load_meta(meta)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            load_csv(meta, recs)
        assert str(got.value) == str(exc)
        return
    detectors, _ = load_csv(meta, recs)
    assert detectors.ids == sorted(expected)
    rows = [expected[d] for d in detectors.ids]
    assert detectors.highway.tolist() == [m.highway for m in rows]
    assert detectors.milepost.tobytes() == np.array(
        [m.milepost for m in rows]).tobytes()
    assert detectors.lanes.tolist() == [m.lanes for m in rows]


def test_byte_order_mark_is_ignored(s1_corpus, tmp_path):
    work, meta, lines, _ = s1_corpus
    records = work / "corpus" / "records.csv"
    assert records.read_text().splitlines() == lines
    for path in (meta, records):
        (tmp_path / path.name).write_bytes(b"\xef\xbb\xbf"
                                           + path.read_bytes())
    plain_detectors, plain = load_csv(meta, records)
    detectors, columns = load_csv(tmp_path / meta.name,
                                  tmp_path / records.name)
    assert detectors.ids == plain_detectors.ids
    for field in ("highway", "milepost", "lanes"):
        np.testing.assert_array_equal(getattr(detectors, field),
                                      getattr(plain_detectors, field))
    for field in ("detector", "hour", "values"):
        np.testing.assert_array_equal(getattr(columns, field),
                                      getattr(plain, field))


@pytest.mark.parametrize("name", ["meta.csv", "records.csv"])
def test_undecodable_byte_after_byte_order_mark_names_line(s1_corpus,
                                                           tmp_path, name):
    work, meta, _, _ = s1_corpus
    for path in (meta, work / "corpus" / "records.csv"):
        (tmp_path / path.name).write_bytes(path.read_bytes())
    lines = (tmp_path / name).read_bytes().split(b"\n")
    lines[0] = b"\xef\xbb\xbf" + lines[0]
    lines[2] = b"\xff" + lines[2]  # file line 3
    (tmp_path / name).write_bytes(b"\n".join(lines))
    with pytest.raises(SchemaError,
                       match=r"^line 3: byte 0xff is not UTF-8$"):
        load_csv(tmp_path / "meta.csv", tmp_path / "records.csv")
