"""Reference oracles for `dataio.load_csv`: the row-by-row loaders that
its columnar checks replaced, kept so that the columnar loader can be
checked to raise the same `SchemaError` message on the same file and to
read the same values.

`load_records` is the records loader. Only the imports, the signature (it
takes the set of detector ids) and the record type (a SimpleNamespace)
differ, and it has since gained the `MAX_FLOW`, `MIN_SPEED` and
`MAX_MAGNITUDE` bounds.

`load_meta` is the meta loader (`_load_meta`), with its `_meta_row`,
`DetectorMeta` and `_meta_float` (`_parse_float`). Only the imports and
those two names differ, it has since gained the `MAX_MAGNITUDE` bound
on lanes, and it reads its cells through `_cell_blocks` as one block.
"""

import csv
import math
from dataclasses import dataclass
from datetime import datetime, timedelta
from functools import partial
from types import SimpleNamespace

from evacnet.dataio import (HIGHWAYS, INCIDENT_COLUMNS, MAX_FLOW,
                            MAX_MAGNITUDE, MAX_MILEPOST, MAX_SPAN_HOURS,
                            META_COLUMNS, MIN_SPEED, RECORD_COLUMNS,
                            SchemaError, _cell_blocks, _row_line)


def _parse_float(value, line_no, column, allow_missing=True):
    if value == "":
        if allow_missing:
            return None
        raise SchemaError(f"line {line_no}: column {column} must not be empty")
    try:
        out = float(value)
    except ValueError:
        raise SchemaError(f"line {line_no}: column {column} is not a number: "
                          f"{value!r}") from None
    if not math.isfinite(out):
        raise SchemaError(f"line {line_no}: column {column} is not finite")
    return out


def load_records(records_path, detector_ids):
    """The records of `records_path` sorted by (detector_id, timestamp)."""
    records = []
    seen_keys = set()
    first = last = None  # (timestamp, line) of the earliest/latest record
    with open(records_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(RECORD_COLUMNS):
            raise SchemaError("records header mismatch: expected "
                              + ",".join(RECORD_COLUMNS))
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(RECORD_COLUMNS):
                raise SchemaError(f"line {line_no}: expected "
                                  f"{len(RECORD_COLUMNS)} fields, got "
                                  f"{len(row)}")
            det = row[0]
            if det not in detector_ids:
                raise SchemaError(f"line {line_no}: unknown detector id {det}")
            try:
                ts = datetime.fromisoformat(row[1])
            except ValueError:
                raise SchemaError(f"line {line_no}: bad timestamp "
                                  f"{row[1]!r}") from None
            if ts.tzinfo is not None:
                raise SchemaError(f"line {line_no}: timestamp {row[1]!r} "
                                  f"carries a UTC offset; timestamps are "
                                  f"local clock hours without one")
            ts = ts.replace(minute=0, second=0, microsecond=0)
            key = (det, ts)
            if key in seen_keys:
                raise SchemaError(f"line {line_no}: duplicate (detector, "
                                  f"timestamp) = ({det}, {ts.isoformat()})")
            seen_keys.add(key)
            first = min(first or (ts, line_no), (ts, line_no))
            last = max(last or (ts, line_no), (ts, line_no))
            flow = _parse_float(row[2], line_no, "flow")
            speed = _parse_float(row[3], line_no, "speed")
            if flow is not None and flow < 0:
                raise SchemaError(f"line {line_no}: negative flow")
            if flow is not None and flow > MAX_FLOW:
                raise SchemaError(f"line {line_no}: flow above "
                                  f"{MAX_FLOW:.0f} veh/h")
            if speed is not None and speed < 0:
                raise SchemaError(f"line {line_no}: negative speed")
            if speed is not None and 0 < speed < MIN_SPEED:
                raise SchemaError(f"line {line_no}: positive speed below "
                                  f"{MIN_SPEED} mph")
            if speed is not None and abs(speed) > MAX_MAGNITUDE:
                raise SchemaError(f"line {line_no}: column speed exceeds "
                                  f"{MAX_MAGNITUDE:.0e} in magnitude")
            exog = {}
            for col, value in zip(RECORD_COLUMNS[4:], row[4:]):
                parsed = _parse_float(value, line_no, col)
                if parsed is not None and parsed < 0 and col in (
                        *INCIDENT_COLUMNS, "cum_pop_under_orders",
                        "dist_evac_zone_mi", "dist_landfall_mi",
                        "hrs_after_order"):
                    raise SchemaError(f"line {line_no}: column {col} must be "
                                      f"non-negative")
                if parsed is not None and abs(parsed) > MAX_MAGNITUDE:
                    raise SchemaError(f"line {line_no}: column {col} exceeds "
                                      f"{MAX_MAGNITUDE:.0e} in magnitude")
                exog[col] = parsed
            records.append(SimpleNamespace(detector_id=det, timestamp=ts,
                                           flow=flow, speed=speed, exog=exog))

    if first and last[0] - first[0] >= timedelta(hours=MAX_SPAN_HOURS):
        raise SchemaError(f"records from line {first[1]} ({first[0]}) to "
                          f"line {last[1]} ({last[0]}) span more than "
                          f"{MAX_SPAN_HOURS} hours")
    records.sort(key=lambda r: (r.detector_id, r.timestamp))
    return records


@dataclass(frozen=True)
class DetectorMeta:
    detector_id: str
    highway: str
    milepost: float
    lanes: int
    lat: float
    lon: float


def _meta_float(value, column):
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


def load_meta(path):
    metas = {}
    seen_positions = set()
    (widths, cells, error), = _cell_blocks(path, META_COLUMNS, "meta")
    if error:
        raise SchemaError("line {1}: {0}".format(*error))
    line_of = partial(_row_line, path)
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
    milepost = _meta_float(row[2], "milepost")
    lanes = _meta_float(row[3], "lanes")
    if milepost < 0:
        raise SchemaError("milepost must be >= 0")
    if milepost > MAX_MILEPOST:
        raise SchemaError(f"milepost must be <= {MAX_MILEPOST:.0f}")
    if lanes < 1 or lanes != int(lanes):
        raise SchemaError("lanes must be a positive integer")
    if lanes > MAX_MAGNITUDE:
        raise SchemaError(f"column lanes exceeds {MAX_MAGNITUDE:.0e} in "
                          f"magnitude")
    if det in metas:
        raise SchemaError(f"duplicate detector id {det}")
    if (highway, milepost) in seen_positions:
        raise SchemaError(f"duplicate (highway, milepost) = ({highway}, "
                          f"{milepost})")
    seen_positions.add((highway, milepost))
    return DetectorMeta(det, highway, milepost, int(lanes),
                        _meta_float(row[4], "lat"),
                        _meta_float(row[5], "lon"))
