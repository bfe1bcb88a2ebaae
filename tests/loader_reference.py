"""Reference oracle for the records half of `dataio.load_csv`: the
row-by-row loader it replaced, kept so that the columnar one can be checked
to raise the same `SchemaError` message on the same file and to read the
same values. Only the imports, the signature (it takes the loaded metas)
and the record type (a SimpleNamespace) differ, and it has since gained
the `MAX_FLOW` and `MIN_SPEED` bounds."""

import csv
import math
from datetime import datetime, timedelta
from types import SimpleNamespace

from evacnet.dataio import (INCIDENT_COLUMNS, MAX_FLOW, MAX_SPAN_HOURS,
                            MIN_SPEED, RECORD_COLUMNS, SchemaError)


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


def load_records(records_path, metas):
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
            if det not in metas:
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
            exog = {}
            for col, value in zip(RECORD_COLUMNS[4:], row[4:]):
                parsed = _parse_float(value, line_no, col)
                if parsed is not None and parsed < 0 and col in (
                        *INCIDENT_COLUMNS, "cum_pop_under_orders",
                        "dist_evac_zone_mi", "dist_landfall_mi",
                        "hrs_after_order"):
                    raise SchemaError(f"line {line_no}: column {col} must be "
                                      f"non-negative")
                exog[col] = parsed
            records.append(SimpleNamespace(detector_id=det, timestamp=ts,
                                           flow=flow, speed=speed, exog=exog))

    if first and last[0] - first[0] >= timedelta(hours=MAX_SPAN_HOURS):
        raise SchemaError(f"records from line {first[1]} ({first[0]}) to "
                          f"line {last[1]} ({last[0]}) span more than "
                          f"{MAX_SPAN_HOURS} hours")
    records.sort(key=lambda r: (r.detector_id, r.timestamp))
    return records
