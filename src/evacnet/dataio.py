"""Detector CSV ingestion, feature engineering, normalization and
sliding-window slicing.

Both files are read through a stream into columns and checked column by
column by one rule (`_CheckedCsv`): the meta file at once, as
`Detectors`, arrays in ascending id order, and the records file
BLOCK_ROWS rows at a time, as `RecordColumns`. After the
loader, a detector is an index into those arrays.

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

import codecs
import csv
import operator
from dataclasses import dataclass
from datetime import datetime
from functools import partial
from itertools import islice, repeat

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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
# The feature registry: the columns of a model input row, in order.
REGISTRY = TEMPORAL_FEATURES + SPATIAL_FEATURES

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
# Most detectors (of the meta file) × timeline hours. The feature arrays
# and the input table are sized from them; the table takes 3 modalities ×
# 32 float32 features = 384 B per detector-hour, 0.77 GB at the cap.
# corridors100 is 100 × 336 = 33,600. It also bounds both loaders: each
# reads at most MAX_DETECTOR_HOURS + 1 rows, since more detectors, or more
# records that repeat no key, make more detector-hours than the cap. The
# records loader keeps 152 B per row (its detector, hour and 17 float64
# values); joining the blocks' arrays briefly holds them twice, 304 B per
# row, 0.6 GB at the cap.
MAX_DETECTOR_HOURS = 2_000_000
# Data rows of the records file parsed and checked at a time: their cell
# texts, one Python string each, are all the loader holds besides the
# parsed arrays of the rows before them.
BLOCK_ROWS = 4096
# Bytes of a CSV file decoded at a time by the UTF-8 check before parsing.
UTF8_CHUNK = 1 << 16
# Largest flow a record may carry, veh/h: far above any detector's
# capacity, and far below the flows whose feature statistics overflow.
MAX_FLOW = 1e6
# Smallest positive speed a record may carry, mph; a stalled detector
# records 0. With MAX_MILEPOST it keeps a travel-time edge's hours, miles
# over the mean endpoint speed, far below overflow.
MIN_SPEED = 0.01
# Largest milepost, miles: far beyond any highway's length.
MAX_MILEPOST = 1e4
# Largest magnitude of any other number the files carry, except lat and
# lon, which nothing computes with: speed, lanes and the exogenous record
# columns. A feature's standard deviation squares deviations of at most
# 2e9 and sums at most MAX_DETECTOR_HOURS of them, 8e24, far below the
# 1.8e308 where float64 overflows; unbounded, one value above about 1e154
# made that standard deviation infinite.
MAX_MAGNITUDE = 1e9


class SchemaError(ValueError):
    """A CSV row violated the input contract; message names the line."""


class ShortSpanError(ValueError):
    """The data span fewer hours than one window's l + p."""


@dataclass
class Detectors:
    """The meta file as arrays, one entry per detector in ascending id
    order (Python's string order)."""
    ids: list  # detector ids; only the records loader reads them
    highway: np.ndarray  # (n,) str, one of HIGHWAYS
    milepost: np.ndarray  # (n,) float
    lanes: np.ndarray  # (n,) int


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
EMPTY, NOT_A_NUMBER, NOT_FINITE = 1, 2, 3
NOT_A_TIMESTAMP, HAS_UTC_OFFSET = 1, 2


def _check_utf8(path):
    """Raise a SchemaError naming the line of the first byte of the file
    that is not UTF-8, decoding it UTF8_CHUNK bytes at a time."""
    decoder = codecs.getincrementaldecoder("utf-8")()
    lines = 0  # newlines before the chunk
    with open(path, "rb") as fh:
        while True:
            chunk = fh.read(UTF8_CHUNK)
            try:
                decoder.decode(chunk, final=not chunk)
            except UnicodeDecodeError as exc:
                # exc.object is the chunk after the pending bytes of a
                # character that the chunk boundary split: no newline
                data = exc.object
                line_no = lines + data.count(b"\n", 0, exc.start) + 1
                raise SchemaError(f"line {line_no}: byte "
                                  f"0x{data[exc.start]:02x} is not UTF-8"
                                  ) from None
            if not chunk:
                return
            lines += chunk.count(b"\n")


def _cell_blocks(path, columns, name, rows=None, limit=None):
    """Yield (widths, cells, error) for each block of up to `rows` rows
    (all of them if None) of the first `limit` rows (all if None) after
    the header of a CSV whose header must be `columns`: the field count of
    each row, the fields of those rows in one list, and None, or (message,
    line) of a csv module error (a field over its size limit) met in the
    row after them, which ends the file. The last block is the first that
    is short or meets an error, and may be empty. The file is checked to
    be UTF-8 before it is parsed, and one leading byte order mark is
    dropped."""
    _check_utf8(path)
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
        except csv.Error as exc:
            raise SchemaError(f"line {reader.line_num}: {exc}") from None
        if header != list(columns):
            raise SchemaError(f"{name} header mismatch: expected "
                              + ",".join(columns))
        data = islice(reader, limit)
        while True:
            widths, cells, error = [], [], None
            try:
                for row in islice(data, rows):  # rows die at once
                    widths.append(len(row))
                    cells += row
            except csv.Error as exc:
                error = (str(exc), reader.line_num)
            yield widths, cells, error
            if error or rows is None or len(widths) < rows:
                return


def _row_line(path, k):
    """The file line on which row k after the header starts. A quoted cell
    can span lines, so row k need not be line k + 2; the file is read again
    to find it, which only error messages do."""
    with open(path, encoding="utf-8-sig", newline="") as fh:
        reader = csv.reader(fh)
        for _ in islice(reader, k + 1):  # the header and rows 0 .. k - 1
            pass
        return reader.line_num + 1


class _CheckedCsv:
    """A block of rows of a CSV whose header is `columns`, as one list of
    cell texts per column, and the checks made on it. Rows are numbered
    from the first after the header, so the block's first row is row
    `offset`. Each check keeps its first failing row and its position in
    the order of checks; `raise_first` raises the earliest of those rows,
    naming its line, and of the checks failing there the one made first.
    The field count is checked first, and every later check sees only the
    rows before the first one of another width (`n` rows)."""

    def __init__(self, columns, widths, cells, offset, line_of):
        self.columns, self.offset, self.line_of = columns, offset, line_of
        self.failures = []  # (row, position, message, line or None)
        self.checks = 0  # checks made so far: the position of the next
        self.deferred = None  # the position `defer` keeps
        width = np.array(widths, np.intp)
        n_cols = len(columns)
        self.check(width != n_cols,
                   lambda k: f"expected {n_cols} fields, got {width[k]}")
        self.n = self.failures[0][0] - offset if self.failures \
            else len(width)
        self.text = [cells[j:self.n * n_cols:n_cols] for j in range(n_cols)]

    @classmethod
    def blocks(cls, path, columns, name, rows=None, limit=None):
        """Yield the file as blocks of up to `rows` rows of its first
        `limit` rows (see `_cell_blocks`). A csv module error is a failure
        of the row it is met in, made before any check of it."""
        line_of, offset = partial(_row_line, path), 0
        for widths, cells, error in _cell_blocks(path, columns, name, rows,
                                                 limit):
            block = cls(columns, widths, cells, offset, line_of)
            offset += len(widths)
            del widths, cells  # or they hold the cells during the next read
            if error:
                message, line = error
                block.failures.append((offset, -1, message, line))
            yield block

    def check(self, bad, message):
        """Keep the first row where `bad` holds, and `message(k)`, k that
        row's index in the block."""
        if bad.any():
            k = int(bad.argmax())
            self.failures.append((self.offset + k, self.checks, message(k),
                                  None))
        self.checks += 1

    def defer(self):
        """Keep this position in `deferred`, for a check that the caller
        makes once more rows than the block's are read."""
        self.deferred = self.checks
        self.checks += 1

    def number(self, j, empty_ok):
        """float() of each cell of column j, nan where it is empty, after
        checking that each is a finite number, or empty where `empty_ok`."""
        values, status = _parse_column(self.text[j])
        if empty_ok:
            status[status == EMPTY] = 0
        name, text = self.columns[j], self.text[j]
        self.check(status != 0, lambda k: f"column {name} " + (
            "must not be empty" if status[k] == EMPTY
            else f"is not a number: {text[k]!r}" if status[k] == NOT_A_NUMBER
            else "is not finite"))
        return values

    def check_magnitude(self, values, j):
        """Check that no value of column j exceeds MAX_MAGNITUDE in
        magnitude."""
        self.check(np.abs(values) > MAX_MAGNITUDE,
                   lambda k: f"column {self.columns[j]} exceeds "
                             f"{MAX_MAGNITUDE:.0e} in magnitude")

    def raise_first(self):
        if self.failures:
            k, _, message, line = min(self.failures, key=lambda f: f[:2])
            raise SchemaError(f"line {line or self.line_of(k)}: {message}")


def _repeated(keys):
    """Whether each key of the list equals one before it."""
    n = len(keys)
    first = dict(zip(reversed(keys), range(n - 1, -1, -1)))
    return np.fromiter(map(first.__getitem__, keys), np.intp, n) \
        != np.arange(n)


def _load_meta(path):
    """The meta file as `Detectors`, of at most MAX_DETECTOR_HOURS + 1 rows
    read. The checks, in this order within a row: field count, a row past
    MAX_DETECTOR_HOURS, highway, milepost (empty, not a number, not
    finite), lanes (the same), milepost in [0, MAX_MILEPOST], lanes a
    positive integer of at most MAX_MAGNITUDE, duplicate id, duplicate
    (highway, milepost), then lat and lon."""
    (meta,) = _CheckedCsv.blocks(path, META_COLUMNS, "meta",
                                 limit=MAX_DETECTOR_HOURS + 1)
    # every detector is sized for at least one hour
    meta.check(np.arange(meta.n) >= MAX_DETECTOR_HOURS,
               lambda k: f"more than {MAX_DETECTOR_HOURS} detectors make "
                         f"more detector-hours than that")
    ids, highway = meta.text[0], meta.text[1]
    meta.check(~np.fromiter(map(HIGHWAYS.__contains__, highway), bool, meta.n),
               lambda k: f"unknown highway {highway[k]!r} (expected one of "
                         f"{HIGHWAYS})")
    milepost = meta.number(2, empty_ok=False)
    lanes = meta.number(3, empty_ok=False)
    meta.check(milepost < 0, lambda k: "milepost must be >= 0")
    meta.check(milepost > MAX_MILEPOST,
               lambda k: f"milepost must be <= {MAX_MILEPOST:.0f}")
    meta.check((lanes < 1) | (lanes != np.floor(lanes)),
               lambda k: "lanes must be a positive integer")
    meta.check_magnitude(lanes, 3)
    meta.check(_repeated(ids), lambda k: f"duplicate detector id {ids[k]}")
    positions = list(zip(highway, milepost.tolist()))
    meta.check(_repeated(positions),
               lambda k: "duplicate (highway, milepost) = ({}, {})".format(
                   *positions[k]))
    meta.number(4, empty_ok=False)
    meta.number(5, empty_ok=False)
    meta.raise_first()
    order = sorted(range(meta.n), key=ids.__getitem__)
    return Detectors(ids=[ids[k] for k in order],
                     highway=np.array([highway[k] for k in order], str),
                     milepost=milepost[order],
                     lanes=lanes[order].astype(np.int64))


def _parse_column(texts):
    """(values, status) of one numeric column: float() of each text, nan
    where it is empty; status 0 where the cell is a finite number, else
    EMPTY, NOT_A_NUMBER or NOT_FINITE."""
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
    status = np.where(np.isfinite(values), 0, NOT_FINITE)
    status[empty] = EMPTY
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


def _record_block(records, index):
    """(detector, hour, values) of the rows of a records block that pass
    its field count, and the checks of those rows, in this order: the
    detector id, timestamp, UTC offset, duplicate (made by the caller
    over every row read, at the position `defer` keeps), flow,
    speed, the sign and bound of flow, the sign, lower bound and
    MAX_MAGNITUDE of speed, then each exogenous column: a number, its sign
    where it may not be negative, and MAX_MAGNITUDE. A row that is not a
    key (an unknown detector or a bad timestamp) has detector -1 or hour
    NaT."""
    n, cols, check = records.n, records.text, records.check
    detector = np.fromiter(map(index.get, cols[0], repeat(-1)), np.intp, n)
    check(detector < 0, lambda k: f"unknown detector id {cols[0][k]}")
    hour, status = _parse_hours(cols[1])
    check(status == NOT_A_TIMESTAMP,
          lambda k: f"bad timestamp {cols[1][k]!r}")
    check(status == HAS_UTC_OFFSET,
          lambda k: f"timestamp {cols[1][k]!r} carries a UTC offset; "
                    f"timestamps are local clock hours without one")
    hour[status != 0] = np.datetime64("NaT")
    records.defer()  # the duplicate check

    values = np.empty((n, len(RECORD_COLUMNS) - 2))
    flow, speed = values[:, 0], values[:, 1]
    flow[:] = records.number(2, empty_ok=True)
    speed[:] = records.number(3, empty_ok=True)
    check(flow < 0, lambda k: "negative flow")
    check(flow > MAX_FLOW, lambda k: f"flow above {MAX_FLOW:.0f} veh/h")
    check(speed < 0, lambda k: "negative speed")
    check((speed > 0) & (speed < MIN_SPEED),
          lambda k: f"positive speed below {MIN_SPEED} mph")
    records.check_magnitude(speed, 3)
    for j in range(4, len(RECORD_COLUMNS)):
        column = values[:, j - 2]
        column[:] = records.number(j, empty_ok=True)
        if RECORD_COLUMNS[j] in NON_NEGATIVE_COLUMNS:
            check(column < 0, lambda k: f"column {RECORD_COLUMNS[j]} must "
                                        f"be non-negative")
        records.check_magnitude(column, j)
    return detector, hour, values


def _load_records(path, detector_ids):
    """The records file as `RecordColumns`, read and checked BLOCK_ROWS
    rows at a time (`_record_block`), reading no further than the first
    block with a failing row. The duplicate check then runs over every row
    read, so the earliest failing row wins, and of the checks failing
    there the one made first. Only rows that pass them all have their time
    span checked, then their detectors × hours.

    Reading also stops after MAX_DETECTOR_HOURS + 1 rows: that many rows
    fail a check, repeat a (detector, timestamp) or make more
    detector-hours than the cap, so the error names lines among them and
    the rest of the file is not read."""
    index = {d: k for k, d in enumerate(detector_ids)}
    blocks = []  # (detector, hour, values) of each block read
    for records in _CheckedCsv.blocks(path, RECORD_COLUMNS, "records",
                                      BLOCK_ROWS, MAX_DETECTOR_HOURS + 1):
        blocks.append(_record_block(records, index))
        if records.failures:
            break
        records.text = None  # its cells die before the next block is read
    detector, hour, values = map(np.concatenate, zip(*blocks))
    del blocks  # or the blocks' arrays outlive the duplicate check
    n = len(detector)

    keyed = np.flatnonzero((detector >= 0) & ~np.isnat(hour))
    if keyed.size:
        offset = (hour[keyed] - hour[keyed].min()).astype(np.int64)
        _, first = np.unique(detector[keyed] * (offset.max() + 1) + offset,
                             return_index=True)
        repeated = np.ones(keyed.size, bool)
        repeated[first] = False
        if repeated.any():
            k = int(keyed[repeated.argmax()])
            records.failures.append((k, records.deferred, (
                f"duplicate (detector, timestamp) = "
                f"({detector_ids[detector[k]]}, "
                f"{hour[k].item().isoformat()})"), None))
    records.raise_first()

    line_of = records.line_of
    if n:
        first = int(hour.argmin())  # of the earliest hour, the first line
        last = n - 1 - int(hour[::-1].argmax())  # of the latest, the last
        n_hours = int((hour[last] - hour[first]).astype(np.int64)) + 1
        if n_hours > MAX_SPAN_HOURS:
            raise SchemaError(f"records from line {line_of(first)} "
                              f"({hour[first].item()}) to line "
                              f"{line_of(last)} "
                              f"({hour[last].item()}) span more than "
                              f"{MAX_SPAN_HOURS} hours")
        n_det = len(detector_ids)
        if n_det * n_hours > MAX_DETECTOR_HOURS:
            raise SchemaError(f"{n_det} detectors over the {n_hours} hours "
                              f"of records from line {line_of(first)} to "
                              f"line {line_of(last)} make "
                              f"{n_det * n_hours} detector-hours, more than "
                              f"{MAX_DETECTOR_HOURS}")
    return RecordColumns(detector=detector, hour=hour, values=values)


def load_csv(meta_path, records_path):
    """Parse and validate both CSVs.

    Returns (detectors, columns): the meta file as `Detectors`, and the
    records as `RecordColumns` in file order, each row's detector an index
    into `detectors`. Each file is decoded once, UTF8_CHUNK bytes at a
    time, to find a byte that is not UTF-8, then parsed once and checked
    column by column (`_CheckedCsv`), the records BLOCK_ROWS rows at a
    time. An error naming a row's line reads the file once more to find
    it.
    """
    detectors = _load_meta(meta_path)
    return detectors, _load_records(records_path, detectors.ids)


# ---- feature engineering ----

@dataclass
class EngineeredData:
    """Dense per-(detector, hour) arrays over a common hourly timeline,
    detectors in the order of `detectors`."""
    detectors: Detectors
    timeline: list  # hourly datetimes
    temporal: np.ndarray  # (n_det, T, F_t), raw units, nan where unavailable
    spatial: np.ndarray  # (n_det, F_s)
    active: np.ndarray  # (n_det, T) bool: usable for prediction targets
    flow: np.ndarray  # (n_det, T) raw flow, nan where missing
    speed: np.ndarray  # (n_det, T)


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


def engineer_features(columns, detectors):
    """Derive the per-(detector, hour) temporal/spatial feature arrays
    from the `Detectors` and `RecordColumns` of `load_csv`.

    The record values are written into one (detector, hour, column) block
    in a single indexed assignment; exogenous columns carry their last
    value forward through gaps; the previous-day and previous-period (same
    hour, earlier days) flow statistics are grouped reductions over a
    (detector, day, hour of day) grid that starts at midnight of the first
    day. The highway one-hot and lanes columns come from `detectors`.
    """
    if not len(columns.hour):
        raise ShortSpanError("no records, so the data span 0 hours")
    t0 = columns.hour.min()
    n_hours = int((columns.hour.max() - t0).astype(np.int64)) + 1
    hours = t0 + np.arange(n_hours)
    n_det = len(detectors.ids)
    exog_cols = RECORD_COLUMNS[4:]
    values = np.full((n_det, n_hours, 2 + len(exog_cols)), np.nan)
    values[columns.detector, (columns.hour - t0).astype(np.intp)] = (
        columns.values)
    flow = _interpolate_short_gaps(values[:, :, 0].copy())
    speed = _interpolate_short_gaps(values[:, :, 1].copy())
    # exogenous context carries forward through short detector gaps: each
    # hour takes the value at the last hour with one (nan before the
    # first), one column at a time in place
    for j in range(2, values.shape[2]):
        column = values[:, :, j]
        last = np.where(np.isnan(column), 0, np.arange(n_hours))
        np.maximum.accumulate(last, axis=1, out=last)
        column[:] = np.take_along_axis(column, last, 1)

    days = hours.astype("datetime64[D]")
    hour_of_day = (hours - days).astype(int)
    col = {name: k for k, name in enumerate(TEMPORAL_FEATURES)}
    temporal = np.full((n_det, n_hours, len(TEMPORAL_FEATURES)), np.nan)
    temporal[:, :, col["flow"]] = flow
    temporal[:, :, col["speed"]] = speed
    tod = col["tod_night"]  # then morning, noon, evening: 6 hours each
    temporal[:, :, tod:tod + 4] = hour_of_day[:, None] // 6 == np.arange(4)
    temporal[:, :, col["weekday"]] = np.is_busday(days)
    for name in (*INCIDENT_COLUMNS, *EVAC_TEMPORAL_COLUMNS):
        temporal[:, :, col[name]] = values[:, :, 2 + exog_cols.index(name)]

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
    spatial[:, :len(HIGHWAYS)] = detectors.highway[:, None] == HIGHWAYS
    spatial[:, scol["lanes"]] = detectors.lanes
    for name in ("dist_evac_zone_mi", "dist_landfall_mi"):
        dist = values[:, :, 2 + exog_cols.index(name)]
        first = np.isnan(dist).argmin(axis=1)  # first hour with a value
        spatial[:, scol[name]] = np.nan_to_num(
            dist[np.arange(n_det), first], nan=0.0)

    active = (~np.isnan(flow)) & (~np.isnan(speed)) & stats_ok
    return EngineeredData(detectors=detectors, timeline=hours.tolist(),
                          temporal=temporal, spatial=spatial, active=active,
                          flow=flow, speed=speed)


# ---- normalization ----

TRAIN_FRAC = 0.9  # the leading share of hours that fits the statistics


@dataclass
class Normalizer:
    """Affine statistics fitted on the training split, one entry per
    group: per feature for the model inputs, per detector for flows.

    transform(x) = (x - shift) / scale along x's last axis, or, given
    `rows`, row k of x by entry rows[k].
    """
    shift: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, groups, skip=()):
        """Each group's mean and population std over its non-nan values;
        a group indexed in `skip` or without values keeps 0 and 1, and a
        zero std gives scale 1."""
        shift = np.zeros(len(groups))
        scale = np.ones(len(groups))
        for k, vals in enumerate(groups):
            vals = np.asarray(vals, dtype=float)
            vals = vals[~np.isnan(vals)]
            if k in skip or vals.size == 0:
                continue
            shift[k] = vals.mean()
            s = vals.std()
            scale[k] = s if s > 0 else 1.0
        return cls(shift, scale)

    def _at(self, rows):
        if rows is None:
            return self.shift, self.scale
        return self.shift[rows][:, None], self.scale[rows][:, None]

    def transform(self, x, rows=None):
        shift, scale = self._at(rows)
        return (x - shift) / scale

    def inverse(self, x, rows=None):
        shift, scale = self._at(rows)
        return x * scale + shift


def split_and_fit(data):
    """Chronological split at TRAIN_FRAC of the hours; returns (train_end,
    features, flows), hours [0, train_end) training and the rest
    validation. `features` is fitted per registry feature over the active
    training hours, binary features passed through; `flows` per detector
    over its active training hours.
    """
    n_hours = len(data.timeline)
    train_end = int(n_hours * TRAIN_FRAC)
    if train_end < 1 or train_end >= n_hours:
        raise ShortSpanError(f"a split of {n_hours} hours produces an empty "
                             f"train or validation set")
    mask = data.active[:, :train_end]
    features = Normalizer.fit(
        [data.temporal[:, :train_end, k][mask]
         for k in range(len(TEMPORAL_FEATURES))] + list(data.spatial.T),
        skip={k for k, name in enumerate(REGISTRY) if name in BINARY_FEATURES})
    flows = Normalizer.fit([f[m] for f, m in zip(data.flow[:, :train_end],
                                                 mask)])
    return train_end, features, flows


# ---- windowing ----

# Modality axis of the input table: the normalized rows themselves at 0,
# then their products with each hour's distance and travel-time graphs.
INPUT_MODALITIES = ("identity", "d", "tt")


def _block_hours(n_det):
    """Hours per block of detector-hours: BLOCK_ROWS rows at most, one
    hour at least."""
    return max(1, BLOCK_ROWS // n_det)


def input_table(data, norm):
    """(T, 3, n_det, F) float32 model inputs per hour and detector, shared
    by every window over `data`: modality "identity" holds the normalized
    rows [temporal_t ‖ spatial], computed in float64 and rounded here; "d"
    and "tt" hold Ã·rows over the detectors active at that hour, which
    `make_windows` fills for the hours its windows cover and which stay
    zero everywhere else. The rows are made BLOCK_ROWS detector-hours at a
    time, so no whole-table float64 copy exists.
    """
    n_det, n_hours, f_t = data.temporal.shape
    table = np.zeros((n_hours, len(INPUT_MODALITIES), n_det,
                      f_t + data.spatial.shape[1]), np.float32)
    step = _block_hours(n_det)
    for h in range(0, n_hours, step):
        rows = np.empty((n_det, min(step, n_hours - h), table.shape[3]))
        rows[:, :, :f_t] = data.temporal[:, h:h + step]
        rows[:, :, f_t:] = data.spatial[:, None, :]
        rows -= norm.shift
        rows /= norm.scale
        # inactive slots can carry nan (missing history/exogenous
        # columns); they only enter the model as neighbors, and zero is
        # the neutral fill
        np.nan_to_num(rows, copy=False, nan=0.0)
        table[h:h + step, 0] = rows.transpose(1, 0, 2)
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


def _batch_index(windows):
    """The input table of a batch of windows of equal l over one table and
    the (hours, detectors) index of its rows: the (l, N) hours anchor +
    arange(l) of each row's window and each window's predicted
    detectors, N their total, in window order."""
    if not windows:
        raise ValueError("empty batch of windows")
    l, table = windows[0].l, windows[0].table
    for w in windows:
        if len(w.det_indices) == 0:
            raise ValueError("window has an empty predicted node set")
        if w.l != l:
            raise ValueError("windows in a batch differ in input length")
        if w.table is not table:
            raise ValueError("windows of a batch read different input tables")
    dets = [w.det_indices for w in windows]
    anchors = np.repeat([w.anchor_index for w in windows],
                        [len(d) for d in dets])
    return table, anchors + np.arange(l)[:, None], dets


def gather_inputs(windows, modalities, static_chain=None, state_block=False):
    """(l, M, N, F) input rows of a batch of windows of equal l over one
    input table, N their predicted detectors in window order, one block
    per modality in `INPUT_MODALITIES`: one fancy index of the table, at
    hours anchor + arange(l) of each row's window. With `state_block`,
    the first modality's (l, N, F) rows come apart, as their own array
    before the other modalities' (l, M - 1, N, F): the RL state's block
    and the forecaster's, indexed at the same (hours, detectors), so
    neither holds the other alive. `static_chain`, the static-graph
    baseline's frozen chain over every detector (an array of
    `graphs.EDGE`), replaces the rows by their product with its
    normalized restriction to each window's predicted detectors, in
    float64 and rounded once to the table's dtype."""
    table, hours, dets = _batch_index(windows)
    k = np.array([INPUT_MODALITIES.index(g) for g in modalities])
    det_at = np.concatenate(dets)
    if state_block:
        blocks = (table[hours, k[0], det_at],
                  table[hours[:, None], k[1:, None], det_at])
    else:
        blocks = (table[hours[:, None], k[:, None], det_at],)
    if static_chain is not None:
        # each detector's row in each window, -1 where it is not predicted;
        # an edge needs both ends predicted in a window, so gaps stay gaps
        lens = [len(d) for d in dets]
        pos = np.full((len(dets), table.shape[2]), -1)
        pos[np.repeat(np.arange(len(dets)), lens), det_at] = \
            np.arange(len(det_at))
        i, j = pos[:, static_chain["i"]], pos[:, static_chain["j"]]
        keep = (i >= 0) & (j >= 0)
        i, j, w = i[keep], j[keep], static_chain["w"][keep.nonzero()[1]]
        norm = graphs.inv_sqrt_degree(len(det_at), i, j, w)
        for rows in blocks:
            rows[...] = graphs.normalized_product(i, j, w, norm, rows)
    return blocks if state_block else blocks[0]


def gather_grid(windows, modalities):
    """The batch's input rows with each (hour, detector) cell once: the
    (T, M, n_u, F) grid of its T distinct input hours by the n_u
    detectors any window predicts, one block per modality as in
    `gather_inputs`, and the (l, N) positions t * n_u + d of the cell
    holding each row `gather_inputs` would read, in its order. Windows
    overlap in hours, so the grid has fewer cells than the batch has
    row-hours. It has no static-graph rows: those depend on each window's
    predicted detectors."""
    table, hours, dets = _batch_index(windows)
    k = np.array([INPUT_MODALITIES.index(g) for g in modalities])
    t, hour_at = _ranks(hours, table.shape[0])
    d, det_at = _ranks(np.concatenate(dets), table.shape[2])
    return table[t[:, None, None], k[:, None], d], hour_at * len(d) + det_at


def _ranks(index, size):
    """The distinct values of an integer array in [0, size), ascending, and
    each entry's rank among them: `np.unique(index, return_inverse=True)`
    by a mark per value, with no sort."""
    used = np.zeros(size, bool)
    used[index] = True
    return np.flatnonzero(used), (np.cumsum(used) - 1)[index]


def _starts(group, n):
    """Where each label 0..n-1 begins in the sorted labels `group`, then
    where the last ends: n + 1 offsets, as a list."""
    return [0] + np.cumsum(np.bincount(group, minlength=n)).tolist()


def make_windows(data, table, target_norm, l=6, p=6, start=0, end=None):
    """One WindowSample per anchor whose full l+p span fits in [start, end).

    A detector is predicted in a window only if active at every one of
    the l+p hours; the other detectors active at an input hour are its
    step extras, so transient neighbors contribute context. The windows
    come from one sliding pass over the active mask. The hours they cover
    get their graphs `_block_hours` hours at a time, as one
    `graphs.build_snapshot` over every (hour, detector) cell active then,
    grouped by hour, from their highways, mileposts and speeds, hour-major
    and in detector order within an hour. Its products Ã·rows, in float64
    over the table's rows, are rounded into `table` (see `input_table`)
    one modality at a time, so a block holds one float64 product, and the
    snapshot is dropped.
    """
    if l < 1 or p < 1:
        raise ValueError("l and p must be >= 1")
    n_hours = len(data.timeline)
    end = n_hours if end is None else end
    if end - start < l + p:
        raise ShortSpanError(f"span of {end - start} hours is shorter "
                             f"than l + p = {l + p}")
    # (n_det, anchor) whether a detector is active over the anchor's l + p
    # hours, and (n_det, anchor, l) whether at each input hour, for the
    # anchors with a predicted detector
    full = sliding_window_view(data.active[:, start:end], l + p,
                               axis=1).all(axis=2)
    anchors = np.flatnonzero(full.any(axis=0))
    full = full[:, anchors]
    inputs = sliding_window_view(data.active[:, start:end - p], l,
                                 axis=1)[:, anchors]
    at, pred = np.nonzero(full.T)  # window-major
    anchors += start
    raw = data.flow[pred[:, None], (anchors[at] + l)[:, None] + np.arange(p)]
    targets = target_norm.transform(raw, pred)
    # each (window, input hour)'s step extras, window-major
    step, extra = np.nonzero((inputs & ~full[:, :, None])
                             .reshape(len(full), -1).T)
    cut = _starts(at, len(anchors))
    cut_step = _starts(step, len(anchors) * l)
    windows = []
    for k, a in enumerate(anchors.tolist()):
        of_k = slice(cut[k], cut[k + 1])
        windows.append(WindowSample(
            anchor_index=a, l=l, det_indices=pred[of_k],
            targets=targets[of_k], targets_raw=raw[of_k],
            extra_temporal=[extra[cut_step[s]:cut_step[s + 1]]
                            for s in range(k * l, (k + 1) * l)],
            table=table))

    covered = np.zeros(n_hours, bool)
    covered[anchors[:, None] + np.arange(l)] = True
    hours = np.flatnonzero(covered)
    det = data.detectors
    block = _block_hours(len(det.milepost))
    for b in range(0, len(hours), block):
        cell_hour, d = np.nonzero(data.active[:, hours[b:b + block]].T)
        t = hours[b + cell_hour]
        snap = graphs.build_snapshot(det.highway[d], det.milepost[d],
                                     data.speed[d, t], cell_hour)
        x = table[t, 0, d]
        for g in ("d", "tt"):
            w, norm = getattr(snap, "adj_" + g), getattr(snap, "norm_" + g)
            table[t, INPUT_MODALITIES.index(g), d] = \
                graphs.normalized_product(snap.i, snap.j, w, norm, x)
    return windows


@dataclass
class Dataset:
    """Everything the trainer reads, built once from the two CSVs; the
    arrays of `engineer_features` die when `prepare` returns."""
    detectors: Detectors
    norm: Normalizer  # per feature
    target_norm: Normalizer  # per detector, of flow
    train_windows: list
    val_windows: list
    l: int
    p: int

    @property
    def registry(self):
        return list(REGISTRY)

    @property
    def eval_windows(self):
        """The windows that are scored: the validation split's, or the
        training split's when it has none."""
        return self.val_windows or self.train_windows

    @property
    def f_t(self):
        return len(TEMPORAL_FEATURES)

    @property
    def f_s(self):
        return len(SPATIAL_FEATURES)


def prepare(meta_path, records_path, l=6, p=6):
    detectors, columns = load_csv(meta_path, records_path)
    data = engineer_features(columns, detectors)
    del columns  # 152 B per record, and nothing below reads them
    train_end, norm, target_norm = split_and_fit(data)
    table = input_table(data, norm)
    train = make_windows(data, table, target_norm, l, p, 0, train_end)
    if len(data.timeline) - train_end >= l + p:
        val = make_windows(data, table, target_norm, l, p,
                           train_end, len(data.timeline))
    else:
        val = []
    return Dataset(detectors=detectors, norm=norm, target_norm=target_norm,
                   train_windows=train, val_windows=val, l=l, p=p)
