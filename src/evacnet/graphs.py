"""Dynamic graph construction over the active detector set.

Two modalities are built for every hour: a distance graph whose edge
weights are mileposts apart, and a travel-time graph whose weights are
distance over the mean of the endpoint speeds. Both are chains along each
highway, held as edges, min-max scaled per hour and normalized.

Many hours are built at once, as the disjoint union of their graphs over
(hour, detector) cells grouped by hour; one hour is the one-group case.
No cell is twice in `i` or twice in `j`, so the first GCN product Ã·X,
which needs no parameters and is computed once per snapshot when the
data are prepared, is each hour's product, bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Minimum edge weight after min-max scaling; keeps the shortest edge alive.
W_FLOOR = 0.01
# Speed substituted when a mean endpoint speed is non-positive (stalled flow).
V_MIN = 5.0
# A chain graph as one array: each edge's two ends and its scaled weight.
EDGE = np.dtype([("i", np.int64), ("j", np.int64), ("w", np.float64)])


@dataclass
class GraphSnapshot:
    """Both weighted graphs over the given detector cells as chain edges
    i–j, indices into the order `build_snapshot` was given them; no
    cell is twice in `i` or twice in `j`."""
    i: np.ndarray
    j: np.ndarray
    adj_d: np.ndarray  # (E,) scaled distance weights
    adj_tt: np.ndarray  # (E,) scaled travel-time weights
    norm_d: np.ndarray  # (n,) D^-1/2 of A + I, by `inv_sqrt_degree`
    norm_tt: np.ndarray


def _one_group(group, n):
    """`group` as an array, or n labels of one group where it is None."""
    return np.zeros(n, np.int64) if group is None else np.asarray(group)


def chain_edges(highway, milepost, speed, group=None):
    """Chain edges between consecutive detectors along each highway, within
    each group.

    The arrays hold one entry per detector cell: highway, milepost, speed
    (mph) and, optionally, a group label (the hour), all cells one group
    when it is None. Offline detectors are simply absent, so their
    neighbors get connected directly. Returns index arrays i, j into the
    given order and each edge's miles and hours (miles over the mean
    endpoint speed, `V_MIN` where that mean is not positive), in order of
    group, highway, then milepost; cells that tie fall in the given order.
    """
    group = _one_group(group, len(milepost))
    order = np.lexsort((milepost, highway, group))
    i, j = order[:-1], order[1:]
    keep = (highway[i] == highway[j]) & (group[i] == group[j])
    i, j = i[keep], j[keep]
    miles = np.abs(milepost[j] - milepost[i])
    if np.any(miles <= 0):
        raise ValueError("distance must be positive")
    v = (speed[i] + speed[j]) / 2.0
    return i, j, miles, miles / np.where(v <= 0, V_MIN, v)


def scale_weights(raw, group=None):
    """Affine-map raw edge weights onto [W_FLOOR, 1] per group.

    `group` labels each edge, the edges of a group adjacent, as
    `chain_edges` orders them; all edges are one group when it is None.
    A degenerate range (all-equal weights, single edge) maps to 1.0 so no
    edge is silently deleted.
    """
    raw = np.asarray(raw, dtype=float)
    if raw.size == 0:
        return raw
    group = _one_group(group, raw.size)
    new = np.r_[True, group[1:] != group[:-1]]
    first, at = np.flatnonzero(new), np.cumsum(new) - 1
    lo, hi = np.minimum.reduceat(raw, first), np.maximum.reduceat(raw, first)
    flat = hi == lo
    out = W_FLOOR + ((raw - lo[at]) / np.where(flat, 1.0, hi - lo)[at]
                     * (1.0 - W_FLOOR))
    out[flat[at]] = 1.0
    return out


def inv_sqrt_degree(n, i, j, w):
    """(n,) D^-1/2 of A + I for the graph over n nodes with the edges i–j
    of weights w, no node twice in i or twice in j."""
    return 1.0 / np.sqrt(1.0 + np.bincount(i, w, n) + np.bincount(j, w, n))


def normalized_product(i, j, w, d, x):
    """D^-1/2 (A+I) D^-1/2 · x in float64 for the edges i–j of weights w,
    `d` their `inv_sqrt_degree` and the nodes on x's second-to-last axis:
    x_i/deg_i plus w·d_i·d_j·x_j per neighbour j, float32 rows widened
    exactly by the float64 factors. No node is twice in i or twice in j,
    so each indexed += adds one term per node."""
    out = x * (d * d)[:, None]
    c = (w * d[i] * d[j])[:, None]
    out[..., i, :] += c * x[..., j, :]
    out[..., j, :] += c * x[..., i, :]
    return out


def build_snapshot(highway, milepost, speed, group=None):
    """Build both modality graphs over the given detector cells: arrays of
    their highways, mileposts, speeds (mph) and group labels (the hour;
    all one group when None), in the same order. Each group's graph is
    its own chain, scaled over its own edges."""
    n = len(milepost)
    group = _one_group(group, n)
    i, j, miles, hours = chain_edges(highway, milepost, speed, group)
    at = group[i]  # each edge's group
    adj_d, adj_tt = scale_weights(miles, at), scale_weights(hours, at)
    return GraphSnapshot(i=i, j=j, adj_d=adj_d, adj_tt=adj_tt,
                         norm_d=inv_sqrt_degree(n, i, j, adj_d),
                         norm_tt=inv_sqrt_degree(n, i, j, adj_tt))


def propagate(snapshot, x):
    """Ã·x for both modalities, in float64: {"d": ..., "tt": ...}.

    `x` holds one row per snapshot node, in the snapshot's order. A feature
    mask scales columns, so it commutes with this product and can be
    applied afterwards.
    """
    if x.shape[0] != len(snapshot.norm_d):
        raise ValueError("feature rows disagree with the snapshot's nodes")
    s = snapshot
    return {"d": normalized_product(s.i, s.j, s.adj_d, s.norm_d, x),
            "tt": normalized_product(s.i, s.j, s.adj_tt, s.norm_tt, x)}
