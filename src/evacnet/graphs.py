"""Per-step dynamic graph construction over the active detector set.

Two modalities are built for every hour: a distance graph whose edge
weights are mileposts apart, and a travel-time graph whose weights are
distance over the mean of the endpoint speeds. Both are min-max scaled
per snapshot and symmetrically normalized for the GCN stage.

The first GCN product Ã·X needs no parameters, so `propagate` computes it
once per snapshot when the data are prepared.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

# Minimum edge weight after min-max scaling; keeps the shortest edge alive.
W_FLOOR = 0.01
# Speed substituted when a mean endpoint speed is non-positive (stalled flow).
V_MIN = 5.0


@dataclass
class GraphSnapshot:
    """Both weighted adjacencies over one hour's active detectors, in the
    order `build_snapshot` was given them."""
    adj_d: np.ndarray  # scaled weights, symmetric, zero diagonal
    adj_tt: np.ndarray
    norm_d: np.ndarray = field(default=None)  # D^-1/2 (A+I) D^-1/2
    norm_tt: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.norm_d is None:
            self.norm_d = gcn_normalize(self.adj_d)
        if self.norm_tt is None:
            self.norm_tt = gcn_normalize(self.adj_tt)


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


def scale_weights(raw, w_floor=W_FLOOR):
    """Affine-map raw edge weights onto [w_floor, 1] per snapshot.

    Degenerate ranges (all-equal weights, single edge) map to 1.0 so no
    edge is silently deleted.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        return raw
    lo, hi = raw.min(), raw.max()
    if hi == lo:
        return np.ones_like(raw)
    return w_floor + (raw - lo) / (hi - lo) * (1.0 - w_floor)


def gcn_normalize(adj):
    """Symmetric normalization with self-loops: D^-1/2 (A+I) D^-1/2."""
    adj = np.asarray(adj, dtype=float)
    a_hat = adj + np.eye(adj.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def build_snapshot(highway, milepost, speed):
    """Build both modality adjacencies over the given active detectors:
    arrays of their highways, mileposts and speeds (mph) at this hour, in
    the same order."""
    n = len(milepost)
    i, j, miles, hours = chain_edges(highway, milepost, speed)
    adj_d = np.zeros((n, n))
    adj_tt = np.zeros((n, n))
    adj_d[i, j] = adj_d[j, i] = scale_weights(miles)
    adj_tt[i, j] = adj_tt[j, i] = scale_weights(hours)
    return GraphSnapshot(adj_d=adj_d, adj_tt=adj_tt)


def propagate(snapshot, x):
    """Ã·x for both modalities: {"d": norm_d @ x, "tt": norm_tt @ x}.

    `x` holds one row per snapshot node, in the snapshot's order. A feature
    mask scales columns, so it commutes with this product and can be
    applied afterwards.
    """
    if x.shape[0] != snapshot.adj_d.shape[0]:
        raise ValueError("feature rows disagree with the snapshot's nodes")
    return {"d": snapshot.norm_d @ x, "tt": snapshot.norm_tt @ x}
