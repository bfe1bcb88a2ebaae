import re
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import dataio, graphs, rlagent, synth
from evacnet.dataio import (INPUT_MODALITIES, SchemaError, engineer_features,
                            input_table, load_csv, make_windows, split_and_fit)

import loader_reference
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
    metas, columns = load_csv(meta, recs)
    assert set(metas) == {"det_a", "det_b"}
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
    metas, columns = load_csv(meta, recs)
    rows = [line.split(",") for line in recs.read_text().splitlines()[1:]]
    detector_ids = sorted(metas)
    assert [detector_ids[k] for k in columns.detector] == [r[0] for r in rows]
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
    # the largest flow the loader accepts, confined to the validation tail
    write_records(recs, 100, lambda d, h: dataio.MAX_FLOW if h >= 95
                  else 100.0 + (h % 7))
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
    rows = dataio.gather_inputs([w], ("identity",))[:, 0, 0]
    for g in ("d", "tt"):
        prop = dataio.gather_inputs([w], (g,))[:, 0, 0]
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
    m = rlagent.apply_mask(2, ds.f_t, ds.f_s)
    windows = [w for w in ds.train_windows + ds.val_windows
               if any(len(e) for e in w.extra_temporal)]
    assert windows
    highway, milepost = data.layout()
    for w in windows:
        pred = w.det_indices
        for step in range(ds.l):
            t = w.anchor_index + step
            order = list(pred) + [i for i in np.flatnonzero(data.active[:, t])
                                  if i not in set(pred)]
            snap = graphs.build_snapshot(
                [data.detector_ids[i] for i in order], highway[order],
                milepost[order], data.speed[order, t])
            raw = np.nan_to_num(ds.norm.transform(np.concatenate(
                [data.temporal[order, t], data.spatial[order]], axis=1)))
            np.testing.assert_array_equal(
                dataio.gather_inputs([w], ("identity",))[step, 0],
                raw[:len(pred)])
            for g, norm_adj in (("d", snap.norm_d), ("tt", snap.norm_tt)):
                np.testing.assert_allclose(
                    dataio.gather_inputs([w], (g,))[step, 0] * m,
                    (norm_adj @ (raw * m))[:len(pred)],
                    rtol=1e-12, atol=1e-12)


def test_one_snapshot_per_covered_hour(tmp_path, monkeypatch):
    meta, records, _ = synth.generate(synth.builtin_scenarios()["S2"],
                                      tmp_path)
    data = engineer_features(*reversed(load_csv(meta, records)))
    train_end, norm, tnorm = split_and_fit(data)
    built = []
    real = graphs.build_snapshot

    def counting(*args):
        built.append(real(*args))
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
        rows = dataio.gather_inputs([w], INPUT_MODALITIES)
        for step in range(ds.l):
            for k, i in enumerate(w.det_indices):
                np.testing.assert_array_equal(
                    read.setdefault((a + step, i), rows[step, :, k]),
                    rows[step, :, k])


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
             "field_count", "duplicate", "offset", "far_year", "crlf", "bom",
             "truncated")


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


def test_bounds_themselves_load(csv_pair):
    meta, recs = csv_pair
    write_meta(meta, ["det_a,I75,0.0,3,28.0,-82.0",
                      f"det_b,I75,{dataio.MAX_MILEPOST},3,28.1,-82.0"])
    rows = [record_row(d, T0 + timedelta(hours=h), 100.0,
                       speed=dataio.MIN_SPEED if h else 0.0)
            for d in ("det_a", "det_b") for h in range(2)]
    recs.write_text(REC_HEADER + "\n" + "\n".join(rows) + "\n")
    metas, columns = load_csv(meta, recs)
    assert metas["det_b"].milepost == dataio.MAX_MILEPOST
    assert sorted(set(columns.values[:, 1])) == [0.0, dataio.MIN_SPEED]


@pytest.fixture(scope="module")
def small_corpus(tmp_path_factory):
    """Two detectors' 30 hours: the meta file, the loaded metas and the
    records lines."""
    work = tmp_path_factory.mktemp("small")
    meta, recs = work / "meta.csv", work / "records.csv"
    write_meta(meta)
    write_records(recs, 30, lambda d, h: 100.0 + h)
    metas, _ = load_csv(meta, recs)
    return work, meta, metas, recs.read_text().splitlines()


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_same_error_or_values_as_row_wise_loader(small_corpus, data):
    """With up to three malformed lines, the columnar loader raises the
    row-wise loader's SchemaError, message for message, or reads the same
    records."""
    work, meta, metas, lines = small_corpus
    final_newline = True
    for kind in data.draw(st.lists(st.sampled_from(MUTATIONS), min_size=1,
                                   max_size=3)):
        lines, _, keeps_newline = data.draw(mutations(kind, lines))
        final_newline &= keeps_newline
    recs = work / "mutated.csv"
    recs.write_text("\n".join(lines) + ("\n" if final_newline else ""),
                    encoding="utf-8", newline="")
    try:
        expected = loader_reference.load_records(recs, metas)
    except SchemaError as exc:
        with pytest.raises(SchemaError) as got:
            load_csv(meta, recs)
        assert str(got.value) == str(exc)
        return
    _, columns = load_csv(meta, recs)
    records = as_records(columns, metas)
    assert sorted(records, key=lambda r: (r.detector_id, r.timestamp)) == \
        expected


def test_byte_order_mark_is_ignored(s1_corpus, tmp_path):
    work, meta, lines, _ = s1_corpus
    records = work / "corpus" / "records.csv"
    assert records.read_text().splitlines() == lines
    for path in (meta, records):
        (tmp_path / path.name).write_bytes(b"\xef\xbb\xbf"
                                           + path.read_bytes())
    plain_metas, plain = load_csv(meta, records)
    metas, columns = load_csv(tmp_path / meta.name, tmp_path / records.name)
    assert metas == plain_metas
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
