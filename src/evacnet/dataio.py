"""Detector CSV ingestion, feature engineering, normalization and
sliding-window slicing.

Input schema (both files UTF-8 with a header row):
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
import math
from dataclasses import dataclass
from datetime import datetime, timedelta

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


class SchemaError(ValueError):
    """A CSV row violated the input contract; message names the line."""


@dataclass(frozen=True)
class DetectorMeta:
    detector_id: str
    highway: str
    milepost: float
    lanes: int
    lat: float
    lon: float


@dataclass
class HourlyRecord:
    detector_id: str
    timestamp: datetime
    flow: float | None
    speed: float | None
    exog: dict  # remaining passthrough columns, None where missing


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


def load_csv(meta_path, records_path):
    """Parse and validate both CSVs.

    Returns (metas, records): detector_id -> DetectorMeta and a list of
    HourlyRecord sorted by (detector_id, timestamp).
    """
    metas = {}
    seen_positions = set()
    with open(meta_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != list(META_COLUMNS):
            raise SchemaError(f"meta header mismatch: expected "
                              f"{','.join(META_COLUMNS)}")
        for line_no, row in enumerate(reader, start=2):
            if len(row) != len(META_COLUMNS):
                raise SchemaError(f"line {line_no}: expected "
                                  f"{len(META_COLUMNS)} fields, got {len(row)}")
            det, highway = row[0], row[1]
            if highway not in HIGHWAYS:
                raise SchemaError(f"line {line_no}: unknown highway "
                                  f"{highway!r} (expected one of {HIGHWAYS})")
            milepost = _parse_float(row[2], line_no, "milepost", False)
            lanes = _parse_float(row[3], line_no, "lanes", False)
            if milepost < 0:
                raise SchemaError(f"line {line_no}: milepost must be >= 0")
            if lanes < 1 or lanes != int(lanes):
                raise SchemaError(f"line {line_no}: lanes must be a positive "
                                  f"integer")
            if det in metas:
                raise SchemaError(f"line {line_no}: duplicate detector id {det}")
            if (highway, milepost) in seen_positions:
                raise SchemaError(f"line {line_no}: duplicate (highway, "
                                  f"milepost) = ({highway}, {milepost})")
            seen_positions.add((highway, milepost))
            metas[det] = DetectorMeta(det, highway, milepost, int(lanes),
                                      _parse_float(row[4], line_no, "lat", False),
                                      _parse_float(row[5], line_no, "lon", False))

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
            if speed is not None and speed < 0:
                raise SchemaError(f"line {line_no}: negative speed")
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
            records.append(HourlyRecord(det, ts, flow, speed, exog))

    if first and last[0] - first[0] >= timedelta(hours=MAX_SPAN_HOURS):
        raise SchemaError(f"records from line {first[1]} ({first[0]}) to "
                          f"line {last[1]} ({last[0]}) span more than "
                          f"{MAX_SPAN_HOURS} hours")
    records.sort(key=lambda r: (r.detector_id, r.timestamp))
    return metas, records


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


def _interpolate_short_gaps(values, max_gap=MAX_INTERP_GAP):
    """Fill nan runs of length <= max_gap flanked by data, in place."""
    n = len(values)
    i = 0
    while i < n:
        if not np.isnan(values[i]):
            i += 1
            continue
        j = i
        while j < n and np.isnan(values[j]):
            j += 1
        if i > 0 and j < n and (j - i) <= max_gap:
            left, right = values[i - 1], values[j]
            for k in range(i, j):
                frac = (k - i + 1) / (j - i + 1)
                values[k] = left + (right - left) * frac
        i = j
    return values


def engineer_features(records, metas):
    """Derive the per-(detector, hour) temporal/spatial feature arrays."""
    if not records:
        raise ValueError("no records")
    t0 = min(r.timestamp for r in records)
    t1 = max(r.timestamp for r in records)
    n_hours = int((t1 - t0).total_seconds() // 3600) + 1
    timeline = [t0 + timedelta(hours=h) for h in range(n_hours)]
    detector_ids = sorted(metas)
    det_index = {d: k for k, d in enumerate(detector_ids)}
    n_det = len(detector_ids)
    f_t = len(TEMPORAL_FEATURES)

    flow = np.full((n_det, n_hours), np.nan)
    speed = np.full((n_det, n_hours), np.nan)
    exog = {col: np.full((n_det, n_hours), np.nan)
            for col in RECORD_COLUMNS[4:]}
    for r in records:
        i = det_index[r.detector_id]
        t = int((r.timestamp - t0).total_seconds() // 3600)
        if r.flow is not None:
            flow[i, t] = r.flow
        if r.speed is not None:
            speed[i, t] = r.speed
        for col, value in r.exog.items():
            if value is not None:
                exog[col][i, t] = value

    for i in range(n_det):
        _interpolate_short_gaps(flow[i])
        _interpolate_short_gaps(speed[i])
        # exogenous context carries forward through short detector gaps
        for col in exog:
            arr = exog[col][i]
            last = np.nan
            for t in range(n_hours):
                if np.isnan(arr[t]):
                    arr[t] = last
                else:
                    last = arr[t]

    # calendar bookkeeping per timeline slot
    day_index = np.array([(ts.date() - t0.date()).days for ts in timeline])
    hour_of_day = np.array([ts.hour for ts in timeline])
    is_weekday = np.array([1.0 if ts.weekday() < 5 else 0.0
                           for ts in timeline])
    tod_onehot = np.zeros((n_hours, 4))
    tod_onehot[np.arange(n_hours), hour_of_day // 6] = 1.0

    temporal = np.full((n_det, n_hours, f_t), np.nan)
    col = {name: k for k, name in enumerate(TEMPORAL_FEATURES)}
    temporal[:, :, col["flow"]] = flow
    temporal[:, :, col["speed"]] = speed
    for k, name in enumerate(("tod_night", "tod_morning", "tod_noon",
                              "tod_evening")):
        temporal[:, :, col[name]] = tod_onehot[None, :, k]
    temporal[:, :, col["weekday"]] = is_weekday[None, :]
    for name in (*INCIDENT_COLUMNS, *EVAC_TEMPORAL_COLUMNS):
        temporal[:, :, col[name]] = exog[name]

    # previous-day and previous-period (same hour, earlier days) statistics
    n_days = day_index.max() + 1
    stats_ok = np.zeros((n_det, n_hours), dtype=bool)
    for i in range(n_det):
        day_flows = [flow[i, day_index == d] for d in range(n_days)]
        for t in range(n_hours):
            d = day_index[t]
            if d == 0:
                continue
            prev = day_flows[d - 1]
            prev = prev[~np.isnan(prev)]
            same_hour = flow[i, (hour_of_day == hour_of_day[t])
                             & (day_index < d)]
            same_hour = same_hour[~np.isnan(same_hour)]
            if prev.size == 0 or same_hour.size == 0:
                continue
            temporal[i, t, col["prev_day_mean"]] = prev.mean()
            temporal[i, t, col["prev_day_std"]] = prev.std()
            temporal[i, t, col["prev_period_mean"]] = same_hour.mean()
            temporal[i, t, col["prev_period_std"]] = same_hour.std()
            stats_ok[i, t] = True

    spatial = np.zeros((n_det, len(SPATIAL_FEATURES)))
    scol = {name: k for k, name in enumerate(SPATIAL_FEATURES)}
    for i, det in enumerate(detector_ids):
        m = metas[det]
        spatial[i, scol[f"hw_{m.highway}"]] = 1.0
        spatial[i, scol["lanes"]] = m.lanes
        for name in ("dist_evac_zone_mi", "dist_landfall_mi"):
            values = exog[name][i]
            values = values[~np.isnan(values)]
            spatial[i, scol[name]] = values[0] if values.size else 0.0

    active = (~np.isnan(flow)) & (~np.isnan(speed)) & stats_ok
    return EngineeredData(detector_ids=detector_ids, metas=metas,
                          timeline=timeline, temporal=temporal,
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
        raise ValueError("split produces an empty train or validation set")

    mask = data.active[:, :train_end]
    f_t = len(TEMPORAL_FEATURES)
    temporal_vals = [data.temporal[:, :train_end, k][mask]
                     for k in range(f_t)]
    spatial_vals = [data.spatial[:, k] for k in range(len(SPATIAL_FEATURES))]
    norm = Normalizer.fit(data.registry, temporal_vals + spatial_vals)
    target_norm = TargetNormalizer.fit(data.flow, data.active, train_end)
    return train_end, norm, target_norm


# ---- windowing ----

@dataclass
class FeatureTensor:
    """Normalized feature block for one window's predicted node set."""
    temporal: np.ndarray  # (n_nodes, l, F_t)
    spatial: np.ndarray  # (n_nodes, F_s)


@dataclass
class WindowSample:
    anchor_index: int  # timeline index of the first input hour
    anchor_time: datetime
    det_indices: np.ndarray  # predicted detectors, indices into data order
    features: FeatureTensor
    targets: np.ndarray  # (n_nodes, p) normalized flow
    targets_raw: np.ndarray  # (n_nodes, p) veh/h
    snapshots: list  # per input step, the hour's shared snapshot
    extra_temporal: list  # per step (n_extra, F_t) normalized
    extra_spatial: list  # per step (n_extra, F_s) normalized
    # modality ("d", "tt") -> (l, n_nodes, F_t + F_s): the predicted nodes'
    # rows of Ã·[temporal ‖ spatial] at each input step
    propagated: dict


def make_windows(data, norm, target_norm, l=6, p=6, start=0, end=None):
    """One WindowSample per anchor whose full l+p span fits in [start, end).

    A detector is predicted in a window only if active at every one of
    the l+p hours. Each input hour has one snapshot over every detector
    active then, in ascending detector order, shared by the windows that
    cover it; the detectors that are not predicted are the step extras,
    so transient neighbors contribute context. Ã·[temporal ‖ spatial] is
    computed once per hour and modality, and each window keeps the rows
    of its predicted nodes.
    """
    if l < 1 or p < 1:
        raise ValueError("l and p must be >= 1")
    n_hours = len(data.timeline)
    end = n_hours if end is None else end
    if end - start < l + p:
        raise ValueError(f"span of {end - start} hours is shorter than "
                         f"l + p = {l + p}")
    f_t = len(TEMPORAL_FEATURES)
    # one normalized [temporal_t ‖ spatial] row per (detector, hour);
    # inactive slots can carry nan (missing history/exogenous columns),
    # they only enter the model as step extras, zero is the neutral fill
    rows = np.nan_to_num(norm.transform(
        np.concatenate([data.temporal,
                        np.broadcast_to(data.spatial[:, None, :],
                                        (*data.temporal.shape[:2],
                                         data.spatial.shape[1]))], axis=2)),
        nan=0.0)
    norm_temporal = rows[:, :, :f_t]
    norm_spatial = rows[:, 0, f_t:]

    hours = {}  # hour -> (active detectors, snapshot, propagated rows)

    def hour(t):
        if t not in hours:
            act = np.flatnonzero(data.active[:, t])
            ids = [data.detector_ids[i] for i in act]
            snap = graphs.build_snapshot(
                [data.metas[d] for d in ids],
                {d: float(data.speed[i, t]) for d, i in zip(ids, act)})
            hours[t] = (act, snap, graphs.propagate(snap, rows[act, t]))
        return hours[t]

    windows = []
    for a in range(start, end - (l + p) + 1):
        span = slice(a, a + l + p)
        pred = np.where(data.active[:, span].all(axis=1))[0]
        if pred.size == 0:
            continue
        snapshots, extra_t, extra_s = [], [], []
        propagated = {"d": [], "tt": []}
        for step in range(l):
            act, snap, prop = hour(a + step)
            pos = np.searchsorted(act, pred)  # pred is a subset of act
            extras = np.delete(act, pos)
            snapshots.append(snap)
            extra_t.append(norm_temporal[extras, a + step])
            extra_s.append(norm_spatial[extras])
            for g, steps in propagated.items():
                steps.append(prop[g][pos])

        features = FeatureTensor(
            temporal=norm_temporal[pred, a:a + l],
            spatial=norm_spatial[pred])
        raw = data.flow[pred, a + l:a + l + p]
        windows.append(WindowSample(
            anchor_index=a, anchor_time=data.timeline[a],
            det_indices=pred, features=features,
            targets=target_norm.transform(pred, raw),
            targets_raw=raw,
            snapshots=snapshots, extra_temporal=extra_t,
            extra_spatial=extra_s,
            propagated={g: np.stack(steps)
                        for g, steps in propagated.items()}))
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
    metas, records = load_csv(meta_path, records_path)
    data = engineer_features(records, metas)
    train_end, norm, target_norm = split_and_fit(data, train_frac)
    train = make_windows(data, norm, target_norm, l, p, 0, train_end)
    if len(data.timeline) - train_end >= l + p:
        val = make_windows(data, norm, target_norm, l, p,
                           train_end, len(data.timeline))
    else:
        val = []
    return Dataset(data=data, norm=norm, target_norm=target_norm,
                   train_windows=train, val_windows=val, l=l, p=p)
