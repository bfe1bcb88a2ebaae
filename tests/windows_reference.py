"""Reference oracle for the windowing stage: the per-anchor, per-hour
`make_windows` that the sliding pass and the blocked graph pass of
`dataio.make_windows` replaced, with the one-hour `chain_edges`,
`scale_weights` and `build_snapshot` it called, kept so that the array
code can be checked against them. Only the imports differ."""

import numpy as np

from evacnet.dataio import (INPUT_MODALITIES, ShortSpanError,
                            WindowSample)
from evacnet.graphs import (V_MIN, W_FLOOR, GraphSnapshot, inv_sqrt_degree,
                            propagate)


def chain_edges(highway, milepost, speed):
    """Chain edges between consecutive detectors along each highway.

    The arrays hold one entry per detector: highway, milepost and speed
    (mph). Offline detectors are simply absent, so their neighbors get
    connected directly. Returns index arrays i, j into the given order
    and each edge's miles and hours (miles over the mean endpoint speed,
    `V_MIN` where that mean is not positive), in order of highway, then
    milepost.
    """
    order = np.lexsort((milepost, highway))
    i, j = order[:-1], order[1:]
    keep = highway[i] == highway[j]
    i, j = i[keep], j[keep]
    miles = np.abs(milepost[j] - milepost[i])
    if np.any(miles <= 0):
        raise ValueError("distance must be positive")
    v = (speed[i] + speed[j]) / 2.0
    return i, j, miles, miles / np.where(v <= 0, V_MIN, v)


def scale_weights(raw):
    """Affine-map raw edge weights onto [W_FLOOR, 1] per snapshot.

    Degenerate ranges (all-equal weights, single edge) map to 1.0 so no
    edge is silently deleted.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        return raw
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.ones_like(raw)
    return W_FLOOR + (raw - lo) / (hi - lo) * (1.0 - W_FLOOR)


def build_snapshot(highway, milepost, speed):
    """Build both modality graphs over the given active detectors: arrays
    of their highways, mileposts and speeds (mph) at this hour, in the
    same order."""
    n = len(milepost)
    i, j, miles, hours = chain_edges(highway, milepost, speed)
    adj_d, adj_tt = scale_weights(miles), scale_weights(hours)
    return GraphSnapshot(i=i, j=j, adj_d=adj_d, adj_tt=adj_tt,
                         norm_d=inv_sqrt_degree(n, i, j, adj_d),
                         norm_tt=inv_sqrt_degree(n, i, j, adj_tt))


def make_windows(data, table, target_norm, l=6, p=6, start=0, end=None):
    """One WindowSample per anchor whose full l+p span fits in [start, end).

    A detector is predicted in a window only if active at every one of
    the l+p hours; the other detectors active at an input hour are its
    step extras, so transient neighbors contribute context. Each hour a
    window covers gets one snapshot over every detector active then, built
    from their highways, mileposts and speeds in detector order; its
    products Ã·rows, in float64 over the table's rows, are rounded into
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
            targets=target_norm.transform(raw, pred), targets_raw=raw,
            extra_temporal=[np.flatnonzero(e) for e in extras.T],
            table=table))

    det = data.detectors
    for t in sorted({w.anchor_index + s for w in windows for s in range(l)}):
        act = np.flatnonzero(data.active[:, t])
        snap = build_snapshot(det.highway[act], det.milepost[act],
                              data.speed[act, t])
        for g, rows in propagate(snap, table[t, 0, act]).items():
            table[t, INPUT_MODALITIES.index(g), act] = rows
    return windows
