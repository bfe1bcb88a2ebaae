"""Detector CSV ingestion, feature engineering, normalization and
sliding-window slicing.

The records file is read once into columns (`RecordColumns`) and checked
column by column; the meta file, about one row per detector, row by row.

Input schema (both files UTF-8, a leading byte order mark allowed, with a
header row):
  meta:    detector_id,highway,milepost,lanes,lat,lon
  records: detector_id,timestamp_iso8601,flow,speed,incident_flag,
           n_incidents,max_lanes_closed,vehicles_involved,
           avg_incident_dur_min,max_incident_dur_min,avg_elapsed_min,
           max_elapsed_min,cum_pop_under_orders,dist_evac_zone_mi,
           dist_landfall_mi,hrs_before_landfall,hrs_after_order,
           evac_day,landfall_day
Empty record fields mean missing.
"""

from __future__ import annotations

import csv
import io
import math
import operator
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from itertools import islice, repeat
from pathlib import Path

import numpy as np

from . import graphs

HIGHWAYS = ("I4", "I10", "I75", "I95", "TPK")

# Exogenous record columns passed through as temporal features, in order.
INCIDENT_COLUMNS = ("incident_flag", "n_incidents", "max_lanes_closed",
                    "vehicles_involved", "avg_incident_dur_min",
                    "max_incident_dur_min", "avg_elapsed_min",
                    "max_elapsed_min")
EVAC_TEMPORAL_COLUMNS = ("cum_pop_under_orders", "hrs_before_landfall",
                         "hrs_after_order", "evac_day", "landfall_day")

TEMPORAL_FEATURES = (
    ("flow", "speed", "prev_day_mean", "prev_day_std",
     "prev_period_mean", "prev_period_std",
     "tod_night", "tod_morning", "tod_noon", "tod_evening", "weekday")
    + INCIDENT_COLUMNS + EVAC_TEMPORAL_COLUMNS)
SPATIAL_FEATURES = tuple(f"hw_{h}" for h in HIGHWAYS) + (
    "lanes", "dist_evac_zone_mi", "dist_landfall_mi")

BINARY_FEATURES = frozenset(
    {"tod_night", "tod_morning", "tod_noon", "tod_evening", "weekday",
     "incident_flag", "evac_day", "landfall_day"}
    | {f"hw_{h}" for h in HIGHWAYS})

RECORD_COLUMNS = ("detector_id", "timestamp_iso8601", "flow", "speed",
                  *INCIDENT_COLUMNS, "cum_pop_under_orders",
                  "dist_evac_zone_mi", "dist_landfall_mi",
                  "hrs_before_landfall", "hrs_after_order",
                  "evac_day", "landfall_day")
META_COLUMNS = ("detector_id", "highway", "milepost", "lanes", "lat", "lon")

# Longest run of consecutive missing flow/speed hours that is linearly
# interpolated; longer gaps leave the detector inactive there.
MAX_INTERP_GAP = 2
# Longest timeline, first record to last, in hours. The feature arrays are
# sized from it, so one mistyped year would otherwise allocate gigabytes.
MAX_SPAN_HOURS = 366 * 24
# Largest flow a record may carry, veh/h: far above any detector's
# capacity, and far below the flows whose feature statistics overflow.
MAX_FLOW = 1e6
# Smallest positive speed a record may carry, mph; a stalled detector
# records 0. With MAX_MILEPOST it keeps a travel-time edge's hours, miles
# over the mean endpoint speed, far below overflow.
MIN_SPEED = 0.01
# Largest milepost, miles: far beyond any highway's length.
MAX_MILEPOST = 1e4


class SchemaError(ValueError):
    """A CSV row violated the input contract; message names the line."""


class ShortSpanError(ValueError):
    """The data span fewer hours than one window's l + p."""


@dataclass(frozen=True)
class DetectorMeta:
    detector_id: str
    highway: str
    milepost: float
    lanes: int
    lat: float
    lon: float


@dataclass
class RecordColumns:
    """The records file as columns, one entry per data row in file order."""
    detector: np.ndarray  # (n,) index into the sorted detector ids
    hour: np.ndarray  # (n,) datetime64[h]: the timestamp truncated to its hour
    values: np.ndarray  # (n, 2 + exogenous) RECORD_COLUMNS[2:], nan if empty


# Exogenous record columns whose values may not be negative.
NON_NEGATIVE_COLUMNS = frozenset(
    {*INCIDENT_COLUMNS, "cum_pop_under_orders", "dist_evac_zone_mi",
     "dist_landfall_mi", "hrs_after_order"})

# Why a cell is unusable, 0 where it is usable (`_parse_column` and
# `_parse_hours`).
NOT_A_NUMBER, NOT_FINITE = 1, 2
NOT_A_TIMESTAMP, HAS_UTC_OFFSET = 1, 2


def _read_cells(path, columns, name):
    """(widths, cells, line_of) of a CSV whose header must be `columns`: the
    field count of each row after the header, the fields of all those rows
    in one list, and `line_of(k)`, the file line on which row k starts.
    One leading byte order mark is dropped. Undecodable bytes and fields
    over the csv module's size limit are schema errors that name their
    line."""
    raw = Path(path).read_bytes()
    try:
        text = raw.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        line_no = raw.count(b"\n", 0, exc.start) + 1
        raise SchemaError(f"line {line_no}: byte 0x{raw[exc.start]:02x} is "
                          f"not UTF-8") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    widths, cells = [], []
    try:
        if next(reader, None) != list(columns):
            raise SchemaError(f"{name} header mismatch: expected "
                              + ",".join(columns))
        for row in reader:  # rows die at once: no garbage collection runs
            widths.append(len(row))
            cells += row
    except csv.Error as exc:
        raise SchemaError(f"line {reader.line_num}: {exc}") from None
    return widths, cells, partial(_row_line, text)


def _row_line(text, k):
    """The file line on which row k after the header starts. A quoted cell
    can span lines, so row k need not be line k + 2; the text is read again
    to find it, which only error messages do."""
    reader = csv.reader(io.StringIO(text, newline=""))
    for _ in islice(reader, k + 1):  # the header and rows 0 .. k - 1
        pass
    return reader.line_num + 1


def _parse_float(value, column):
    if value == "":
        raise SchemaError(f"column {column} must not be empty")
    try:
        out = float(value)
    except ValueError:
        raise SchemaError(f"column {column} is not a number: "
                          f"{value!r}") from None
    if not math.isfinite(out):
        raise SchemaError(f"column {column} is not finite")
    return out


def _load_meta(path):
    metas = {}
    seen_positions = set()
    widths, cells, line_of = _read_cells(path, META_COLUMNS, "meta")
    start = 0
    for k, width in enumerate(widths):
        row = cells[start:start + width]
        start += width
        try:
            meta = _meta_row(row, metas, seen_positions)
        except SchemaError as exc:
            raise SchemaError(f"line {line_of(k)}: {exc}") from None
        metas[meta.detector_id] = meta
    return metas


def _meta_row(row, metas, seen_positions):
    """The DetectorMeta of one meta row, given the rows before it; a
    SchemaError without the line for a bad one."""
    if len(row) != len(META_COLUMNS):
        raise SchemaError(f"expected {len(META_COLUMNS)} fields, got "
                          f"{len(row)}")
    det, highway = row[0], row[1]
    if highway not in HIGHWAYS:
        raise SchemaError(f"unknown highway {highway!r} (expected one of "
                          f"{HIGHWAYS})")
    milepost = _parse_float(row[2], "milepost")
    lanes = _parse_float(row[3], "lanes")
    if milepost < 0:
        raise SchemaError("milepost must be >= 0")
    if milepost > MAX_MILEPOST:
        raise SchemaError(f"milepost must be <= {MAX_MILEPOST:.0f}")
    if lanes < 1 or lanes != int(lanes):
        raise SchemaError("lanes must be a positive integer")
    if det in metas:
        raise SchemaError(f"duplicate detector id {det}")
    if (highway, milepost) in seen_positions:
        raise SchemaError(f"duplicate (highway, milepost) = ({highway}, "
                          f"{milepost})")
    seen_positions.add((highway, milepost))
    return DetectorMeta(det, highway, milepost, int(lanes),
                        _parse_float(row[4], "lat"),
                        _parse_float(row[5], "lon"))


def _parse_column(texts):
    """(values, status) of one numeric column: float() of each text, nan
    where it is empty; status 0 where the cell is usable, else
    NOT_A_NUMBER or NOT_FINITE."""
    n = len(texts)
    empty = bad = np.zeros(n, bool)
    try:
        values = np.fromiter(map(float, texts), float, n)
    except ValueError:  # empty cells, or text that is not a number
        empty = np.fromiter(map(operator.not_, texts), bool, n)
        texts = list(texts)
        for k in np.flatnonzero(empty):
            texts[k] = "nan"
        try:
            values = np.fromiter(map(float, texts), float, n)
        except ValueError:  # some text is not a number: find it
            values = np.full(n, np.nan)
            bad = np.zeros(n, bool)
            for k, text in enumerate(texts):
                try:
                    values[k] = float(text)
                except ValueError:
                    bad[k] = True
    status = np.where(np.isfinite(values) | empty, 0, NOT_FINITE)
    status[bad] = NOT_A_NUMBER
    return values, status


def _parse_hours(texts):
    """(hour, status) per timestamp text, each distinct text parsed once:
    the hour it falls in, and status 0, NOT_A_TIMESTAMP or
    HAS_UTC_OFFSET."""
    index = {text: k for k, text in enumerate(dict.fromkeys(texts))}
    hour = np.zeros(len(index), "datetime64[h]")
    status = np.zeros(len(index), np.int8)
    for text, k in index.items():
        try:
            ts = datetime.fromisoformat(text)
        except ValueError:
            status[k] = NOT_A_TIMESTAMP
            continue
        if ts.tzinfo is not None:
            status[k] = HAS_UTC_OFFSET
        else:
            hour[k] = ts.replace(minute=0, second=0, microsecond=0)
    which = np.fromiter(map(index.__getitem__, texts), np.intp, len(texts))
    return hour[which], status[which]


def _load_records(path, detector_ids):
    """The records file as `RecordColumns`. Every check runs over whole
    columns; when one fails, the error names the first failing line, and
    of the checks failing there the one that comes first in this order:
    field count, detector id, timestamp, UTC offset, duplicate, flow,
    speed, the sign and bound of flow, the sign and lower bound of speed,
    then each exogenous column. Only a file that passes them all has its
    time span checked."""
    widths, cells, line_of = _read_cells(path, RECORD_COLUMNS, "records")
    failures = []  # (row, message) of each failed check's first row

    def check(bad, message):
        if bad.any():
            k = int(bad.argmax())
            failures.append((k, message(k)))

    width = np.array(widths, np.intp)
    n_cols = len(RECORD_COLUMNS)
    check(width != n_cols,
          lambda k: f"expected {n_cols} fields, got {width[k]}")
    # every later check sees only the rows before a bad field count
    n = failures[0][0] if failures else len(width)
    cols = [cells[k:n * n_cols:n_cols] for k in range(n_cols)]
    del cells

    index = {d: k for k, d in enumerate(detector_ids)}
    detector = np.fromiter(map(index.get, cols[0], repeat(-1)), np.intp, n)
    check(detector < 0, lambda k: f"unknown detector id {cols[0][k]}")
    hour, status = _parse_hours(cols[1])
    check(status == NOT_A_TIMESTAMP,
          lambda k: f"bad timestamp {cols[1][k]!r}")
    check(status == HAS_UTC_OFFSET,
          lambda k: f"timestamp {cols[1][k]!r} carries a UTC offset; "
                    f"timestamps are local clock hours without one")
    keyed = np.flatnonzero((detector >= 0) & (status == 0))
    if keyed.size:
        offset = (hour[keyed] - hour[keyed].min()).astype(np.int64)
        _, first = np.unique(detector[keyed] * (offset.max() + 1) + offset,
                             return_index=True)
        repeated = np.zeros(n, bool)
        repeated[keyed] = True
        repeated[keyed[first]] = False
        check(repeated, lambda k: f"duplicate (detector, timestamp) = "
                                  f"({cols[0][k]}, "
                                  f"{hour[k].item().isoformat()})")

    numeric = RECORD_COLUMNS[2:]
    values = np.empty((n, len(numeric)))
    statuses = []
    for j, column in enumerate(numeric):
        values[:, j], cell_status = _parse_column(cols[j + 2])
        statuses.append(cell_status)

    def check_parsed(j):
        check(statuses[j] != 0, lambda k: (
            f"column {numeric[j]} is not a number: {cols[j + 2][k]!r}"
            if statuses[j][k] == NOT_A_NUMBER
            else f"column {numeric[j]} is not finite"))

    check_parsed(0)
    check_parsed(1)
    check(values[:, 0] < 0, lambda k: "negative flow")
    check(values[:, 0] > MAX_FLOW,
          lambda k: f"flow above {MAX_FLOW:.0f} veh/h")
    check(values[:, 1] < 0, lambda k: "negative speed")
    check((values[:, 1] > 0) & (values[:, 1] < MIN_SPEED),
          lambda k: f"positive speed below {MIN_SPEED} mph")
    for j in range(2, len(numeric)):
        check_parsed(j)
        if numeric[j] in NON_NEGATIVE_COLUMNS:
            check(values[:, j] < 0,
                  lambda k: f"column {numeric[j]} must be non-negative")
    if failures:
        k, message = min(failures, key=lambda f: f[0])  # ties: check order
        raise SchemaError(f"line {line_of(k)}: {message}")

    if n:
        first = int(hour.argmin())  # of the earliest hour, the first line
        last = n - 1 - int(hour[::-1].argmax())  # of the latest, the last
        if (hour[last] - hour[first]).astype(np.int64) >= MAX_SPAN_HOURS:
            raise SchemaError(f"records from line {line_of(first)} "
                              f"({hour[first].item()}) to line "
                              f"{line_of(last)} "
                              f"({hour[last].item()}) span more than "
                              f"{MAX_SPAN_HOURS} hours")
    return RecordColumns(detector=detector, hour=hour, values=values)


def load_csv(meta_path, records_path):
    """Parse and validate both CSVs.

    Returns (metas, columns): detector_id -> DetectorMeta, and the records
    as `RecordColumns` in file order, detectors indexed in sorted id
    order. The meta file is read row by row; the records file is read
    once and checked column by column.
    """
    metas = _load_meta(meta_path)
    return metas, _load_records(records_path, sorted(metas))


# ---- feature engineering ----

@dataclass
class EngineeredData:
    """Dense per-(detector, hour) arrays over a common hourly timeline."""
    detector_ids: list
    metas: dict
    timeline: list  # hourly datetimes
    temporal: np.ndarray  # (n_det, T, F_t), raw units, nan where unavailable
    spatial: np.ndarray  # (n_det, F_s)
    active: np.ndarray  # (n_det, T) bool: usable for prediction targets
    flow: np.ndarray  # (n_det, T) raw flow, nan where missing
    speed: np.ndarray  # (n_det, T)

    @property
    def registry(self):
        return list(TEMPORAL_FEATURES) + list(SPATIAL_FEATURES)

    def layout(self):
        """(highway, milepost) arrays in detector order."""
        metas = [self.metas[d] for d in self.detector_ids]
        return (np.array([m.highway for m in metas]),
                np.array([m.milepost for m in metas], dtype=float))


def _interpolate_short_gaps(values, max_gap=MAX_INTERP_GAP):
    """Fill nan runs of length <= max_gap flanked by data along the last
    axis, in place: a hole k between known hours a < k < b gets
    v[a] + (v[b] - v[a]) * (k - a) / (b - a)."""
    n = values.shape[-1]
    t = np.arange(n)
    known = ~np.isnan(values)
    left = np.maximum.accumulate(np.where(known, t, -1), axis=-1)
    right = np.flip(np.minimum.accumulate(
        np.flip(np.where(known, t, n), -1), axis=-1), -1)
    hole = ~known & (left >= 0) & (right < n) & (right - left <= max_gap + 1)
    *rows, k = np.nonzero(hole)
    a, b = left[hole], right[hole]
    va, vb = values[(*rows, a)], values[(*rows, b)]
    values[hole] = va + (vb - va) * ((k - a) / (b - a))
    return values


def _moments(x, axis):
    """Mean and population std of the non-nan values along `axis`, the
    std two-pass as `np.std` computes it; both nan where there are none."""
    valid = ~np.isnan(x)
    n = valid.sum(axis=axis)
    mean = np.divide(np.where(valid, x, 0.0).sum(axis=axis), n,
                     out=np.full(n.shape, np.nan), where=n > 0)
    dev = np.where(valid, x - np.expand_dims(mean, axis), 0.0)
    var = np.divide((dev * dev).sum(axis=axis), n,
                    out=np.full(n.shape, np.nan), where=n > 0)
    return mean, np.sqrt(var)


def engineer_features(columns, metas):
    """Derive the per-(detector, hour) temporal/spatial feature arrays
    from the `RecordColumns` of `load_csv`.

    The record values are written into one (detector, hour, column) block
    in a single indexed assignment; exogenous columns carry their last
    value forward through gaps; the previous-day and previous-period (same
    hour, earlier days) flow statistics are grouped reductions over a
    (detector, day, hour of day) grid that starts at midnight of the first
    day.
    """
    if not len(columns.hour):
        raise ShortSpanError("no records, so the data span 0 hours")
    t0 = columns.hour.min()
    n_hours = int((columns.hour.max() - t0).astype(np.int64)) + 1
    hours = t0 + np.arange(n_hours)
    detector_ids = sorted(metas)
    n_det = len(detector_ids)
    exog_cols = RECORD_COLUMNS[4:]
    values = np.full((n_det, n_hours, 2 + len(exog_cols)), np.nan)
    values[columns.detector, (columns.hour - t0).astype(np.intp)] = (
        columns.values)
    flow = _interpolate_short_gaps(values[:, :, 0].copy())
    speed = _interpolate_short_gaps(values[:, :, 1].copy())
    # exogenous context carries forward through short detector gaps: each
    # hour takes the value at the last hour with one (nan before the first)
    exog = values[:, :, 2:]
    last = np.where(np.isnan(exog), 0, np.arange(n_hours)[:, None])
    exog = np.take_along_axis(exog, np.maximum.accumulate(last, axis=1), 1)

    days = hours.astype("datetime64[D]")
    hour_of_day = (hours - days).astype(int)
    col = {name: k for k, name in enumerate(TEMPORAL_FEATURES)}
    temporal = np.full((n_det, n_hours, len(TEMPORAL_FEATURES)), np.nan)
    temporal[:, :, col["flow"]] = flow
    temporal[:, :, col["speed"]] = speed
    tod = col["tod_night"]  # then morning, noon, evening: 6 hours each
    temporal[:, :, tod:tod + 4] = hour_of_day[:, None] // 6 == np.arange(4)
    temporal[:, :, col["weekday"]] = np.is_busday(days)
    passthrough = (*INCIDENT_COLUMNS, *EVAC_TEMPORAL_COLUMNS)
    temporal[:, :, [col[name] for name in passthrough]] = exog[
        :, :, [exog_cols.index(name) for name in passthrough]]

    # previous-day and previous-period (same hour, earlier days) statistics
    # over flow laid out as (detector, day, hour of day), nan-padded
    h0 = hour_of_day[0]
    n_days = (h0 + n_hours - 1) // 24 + 1
    grid = np.full((n_det, n_days * 24), np.nan)
    grid[:, h0:h0 + n_hours] = flow
    grid = grid.reshape(n_det, n_days, 24)
    day_mean, day_std = _moments(grid, axis=2)
    stats = np.full((n_det, n_days, 24, 4), np.nan)
    stats[:, 1:, :, 0] = day_mean[:, :-1, None]
    stats[:, 1:, :, 1] = day_std[:, :-1, None]
    for d in range(1, n_days):
        stats[:, d, :, 2], stats[:, d, :, 3] = _moments(grid[:, :d], axis=1)
    # a mean exists iff its group has flow: the previous day must have
    # some, and so must the same hour on at least one earlier day
    stats_ok = ~np.isnan(stats[..., [0, 2]]).any(axis=-1)
    stats[~stats_ok] = np.nan
    span = slice(h0, h0 + n_hours)
    temporal[:, :, col["prev_day_mean"]:col["prev_period_std"] + 1] = (
        stats.reshape(n_det, n_days * 24, 4)[:, span])
    stats_ok = stats_ok.reshape(n_det, n_days * 24)[:, span]

    spatial = np.zeros((n_det, len(SPATIAL_FEATURES)))
    scol = {name: k for k, name in enumerate(SPATIAL_FEATURES)}
    for i, det in enumerate(detector_ids):
        spatial[i, scol[f"hw_{metas[det].highway}"]] = 1.0
        spatial[i, scol["lanes"]] = metas[det].lanes
    for name in ("dist_evac_zone_mi", "dist_landfall_mi"):
        dist = exog[:, :, exog_cols.index(name)]
        first = np.isnan(dist).argmin(axis=1)  # first hour with a value
        spatial[:, scol[name]] = np.nan_to_num(
            dist[np.arange(n_det), first], nan=0.0)

    active = (~np.isnan(flow)) & (~np.isnan(speed)) & stats_ok
    return EngineeredData(detector_ids=detector_ids, metas=metas,
                          timeline=hours.tolist(), temporal=temporal,
                          spatial=spatial, active=active,
                          flow=flow, speed=speed)


# ---- normalization ----

@dataclass
class Normalizer:
    """Per-feature affine transform fitted on the training split only.

    transform(x) = (x - shift) / scale; binary features pass through and
    every other feature is z-scored.
    """
    names: list
    shift: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, names, values_per_feature):
        """values_per_feature: list of 1-d arrays of training values."""
        shift = np.zeros(len(names))
        scale = np.ones(len(names))
        for k, (name, vals) in enumerate(zip(names, values_per_feature)):
            vals = np.asarray(vals, dtype=float)
            vals = vals[~np.isnan(vals)]
            if name in BINARY_FEATURES or vals.size == 0:
                continue
            shift[k] = vals.mean()
            s = vals.std()
            scale[k] = s if s > 0 else 1.0
        return cls(list(names), shift, scale)

    def transform(self, x):
        return (x - self.shift) / self.scale

    def inverse(self, x):
        return x * self.scale + self.shift


@dataclass
class TargetNormalizer:
    """Per-detector z-score of flow, from training-split statistics."""
    mean: np.ndarray  # (n_det,)
    std: np.ndarray

    @classmethod
    def fit(cls, flow, active, train_end):
        n_det = flow.shape[0]
        mean = np.zeros(n_det)
        std = np.ones(n_det)
        for i in range(n_det):
            vals = flow[i, :train_end][active[i, :train_end]]
            if vals.size:
                mean[i] = vals.mean()
                s = vals.std()
                std[i] = s if s > 0 else 1.0
        return cls(mean, std)

    def transform(self, det_indices, values):
        det_indices = np.asarray(det_indices)
        return ((values - self.mean[det_indices][:, None])
                / self.std[det_indices][:, None])

    def inverse(self, det_indices, values):
        det_indices = np.asarray(det_indices)
        return (values * self.std[det_indices][:, None]
                + self.mean[det_indices][:, None])


def split_and_fit(data, train_frac=0.9):
    """Chronological split; fit feature and target normalizers on train.

    Returns (train_end, Normalizer, TargetNormalizer) where hours
    [0, train_end) are training and [train_end, T) validation.
    """
    n_hours = len(data.timeline)
    train_end = int(n_hours * train_frac)
    if train_end < 1 or train_end >= n_hours:
        raise ShortSpanError(f"a split of {n_hours} hours produces an empty "
                             f"train or validation set")

    mask = data.active[:, :train_end]
    f_t = len(TEMPORAL_FEATURES)
    temporal_vals = [data.temporal[:, :train_end, k][mask]
                     for k in range(f_t)]
    spatial_vals = [data.spatial[:, k] for k in range(len(SPATIAL_FEATURES))]
    norm = Normalizer.fit(data.registry, temporal_vals + spatial_vals)
    target_norm = TargetNormalizer.fit(data.flow, data.active, train_end)
    return train_end, norm, target_norm


# ---- windowing ----

# Modality axis of the input table: the normalized rows themselves at 0,
# then their products with each hour's distance and travel-time graphs.
INPUT_MODALITIES = ("identity", "d", "tt")


def input_table(data, norm):
    """(T, 3, n_det, F) model inputs per hour and detector, shared by every
    window over `data`: modality "identity" holds the normalized rows
    [temporal_t ‖ spatial], filled here; "d" and "tt" hold Ã·rows over the
    detectors active at that hour, which `make_windows` fills for the hours
    its windows cover and which stay zero everywhere else.
    """
    # inactive slots can carry nan (missing history/exogenous columns); they
    # only enter the model as neighbors, and zero is the neutral fill
    rows = np.nan_to_num(norm.transform(
        np.concatenate([data.temporal,
                        np.broadcast_to(data.spatial[:, None, :],
                                        (*data.temporal.shape[:2],
                                         data.spatial.shape[1]))], axis=2)),
        nan=0.0)
    n_det, n_hours, n_features = rows.shape
    table = np.zeros((n_hours, len(INPUT_MODALITIES), n_det, n_features))
    table[:, 0] = rows.transpose(1, 0, 2)
    return table


@dataclass
class WindowSample:
    """One anchor's predicted detectors and targets; its inputs are rows of
    the shared input table, read through `gather_inputs`."""
    anchor_index: int  # timeline index of the first input hour
    l: int  # input hours
    det_indices: np.ndarray  # predicted detectors, indices into data order
    targets: np.ndarray  # (n_nodes, p) normalized flow
    targets_raw: np.ndarray  # (n_nodes, p) veh/h
    # per input hour, the indices of the active detectors that are not
    # predicted (the step extras); the benchmark harness counts their
    # lengths under this name, so it stays
    extra_temporal: list
    table: np.ndarray  # `input_table`, shared, not a copy


def gather_inputs(windows, modalities):
    """(l, M, N, F) input rows of a batch of windows of equal l over one
    input table, N their predicted detectors in window order, one block
    per modality in `INPUT_MODALITIES`: one fancy index of the table, at
    hours anchor + arange(l) of each row's window."""
    table = windows[0].table
    if any(w.table is not table for w in windows):
        raise ValueError("windows of a batch read different input tables")
    dets = [w.det_indices for w in windows]
    anchors = np.repeat([w.anchor_index for w in windows],
                        [len(d) for d in dets])
    hours = anchors + np.arange(windows[0].l)[:, None]  # (l, N)
    k = [INPUT_MODALITIES.index(g) for g in modalities]
    return table[hours[:, None], np.array(k)[:, None], np.concatenate(dets)]


def make_windows(data, table, target_norm, l=6, p=6, start=0, end=None):
    """One WindowSample per anchor whose full l+p span fits in [start, end).

    A detector is predicted in a window only if active at every one of
    the l+p hours; the other detectors active at an input hour are its
    step extras, so transient neighbors contribute context. Each hour a
    window covers gets one snapshot over every detector active then, in
    ascending detector order; its products Ã·rows are written into
    `table` (see `input_table`) and the snapshot is dropped.
    """
    if l < 1 or p < 1:
        raise ValueError("l and p must be >= 1")
    n_hours = len(data.timeline)
    end = n_hours if end is None else end
    if end - start < l + p:
        raise ShortSpanError(f"span of {end - start} hours is shorter "
                             f"than l + p = {l + p}")
    windows = []
    for a in range(start, end - (l + p) + 1):
        pred = np.flatnonzero(data.active[:, a:a + l + p].all(axis=1))
        if pred.size == 0:
            continue
        extras = data.active[:, a:a + l].copy()
        extras[pred] = False
        raw = data.flow[pred, a + l:a + l + p]
        windows.append(WindowSample(
            anchor_index=a, l=l, det_indices=pred,
            targets=target_norm.transform(pred, raw), targets_raw=raw,
            extra_temporal=[np.flatnonzero(e) for e in extras.T],
            table=table))

    ids = np.array(data.detector_ids)
    highway, milepost = data.layout()
    for t in sorted({w.anchor_index + s for w in windows for s in range(l)}):
        act = np.flatnonzero(data.active[:, t])
        snap = graphs.build_snapshot(ids[act].tolist(), highway[act],
                                     milepost[act], data.speed[act, t])
        for g, rows in graphs.propagate(snap, table[t, 0, act]).items():
            table[t, INPUT_MODALITIES.index(g), act] = rows
    return windows


@dataclass
class Dataset:
    """Everything the trainer needs, built once from the two CSVs."""
    data: EngineeredData
    norm: Normalizer
    target_norm: TargetNormalizer
    train_windows: list
    val_windows: list
    l: int
    p: int

    @property
    def registry(self):
        return self.data.registry

    @property
    def f_t(self):
        return len(TEMPORAL_FEATURES)

    @property
    def f_s(self):
        return len(SPATIAL_FEATURES)


def prepare(meta_path, records_path, l=6, p=6, train_frac=0.9):
    metas, columns = load_csv(meta_path, records_path)
    data = engineer_features(columns, metas)
    train_end, norm, target_norm = split_and_fit(data, train_frac)
    table = input_table(data, norm)
    train = make_windows(data, table, target_norm, l, p, 0, train_end)
    if len(data.timeline) - train_end >= l + p:
        val = make_windows(data, table, target_norm, l, p,
                           train_end, len(data.timeline))
    else:
        val = []
    return Dataset(data=data, norm=norm, target_norm=target_norm,
                   train_windows=train, val_windows=val, l=l, p=p)
