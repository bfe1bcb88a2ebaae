"""Reference oracle for `dataio.engineer_features`: the per-(detector,
hour) loop implementation it replaced, kept verbatim so the array version
can be checked against it. Only the imports and the result type (a
SimpleNamespace of the fields it had) differ. It reads record-like rows
and per-detector metas; `as_records` and `as_metas` make them from the
`RecordColumns` and `Detectors` that `dataio.load_csv` returns."""

import math
from datetime import timedelta
from types import SimpleNamespace

import numpy as np

from evacnet.dataio import (EVAC_TEMPORAL_COLUMNS, INCIDENT_COLUMNS,
                            MAX_INTERP_GAP, RECORD_COLUMNS, SPATIAL_FEATURES,
                            TEMPORAL_FEATURES)


def as_metas(detectors):
    """detector_id -> its highway, milepost and lanes, of `detectors`
    (`dataio.Detectors`)."""
    return {det: SimpleNamespace(detector_id=det, highway=str(highway),
                                 milepost=float(milepost), lanes=int(lanes))
            for det, highway, milepost, lanes in zip(
                detectors.ids, detectors.highway, detectors.milepost,
                detectors.lanes)}


def as_records(columns, detectors):
    """One row per record of `columns` (`dataio.RecordColumns`), in file
    order: detector_id, timestamp (a datetime), flow, speed and an exog
    dict of the other columns, None where a value is missing."""
    detector_ids = detectors.ids
    rows = []
    for det, hour, values in zip(columns.detector, columns.hour.tolist(),
                                 columns.values.tolist()):
        flow, speed, *exog = [None if math.isnan(v) else v for v in values]
        rows.append(SimpleNamespace(
            detector_id=detector_ids[det], timestamp=hour, flow=flow,
            speed=speed, exog=dict(zip(RECORD_COLUMNS[4:], exog))))
    return rows


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
    return SimpleNamespace(detector_ids=detector_ids, metas=metas,
                           timeline=timeline, temporal=temporal,
                           spatial=spatial, active=active,
                           flow=flow, speed=speed)
