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
    """Active node set at one hour plus both weighted adjacencies."""
    node_ids: list  # detector ids, ordered
    adj_d: np.ndarray  # scaled weights, symmetric, zero diagonal
    adj_tt: np.ndarray
    norm_d: np.ndarray = field(default=None)  # D^-1/2 (A+I) D^-1/2
    norm_tt: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.norm_d is None:
            self.norm_d = gcn_normalize(self.adj_d)
        if self.norm_tt is None:
            self.norm_tt = gcn_normalize(self.adj_tt)


def build_edges(active_metas):
    """Chain edges between consecutive active detectors per highway.

    `active_metas` is a sequence of objects with .detector_id, .highway
    and .milepost. Offline detectors simply don't appear, so their
    neighbors get connected directly. Returns (i, j, miles) triples with
    indices into the given order.
    """
    order = sorted(range(len(active_metas)),
                   key=lambda k: (active_metas[k].highway,
                                  active_metas[k].milepost))
    edges = []
    for a, b in zip(order, order[1:]):
        ma, mb = active_metas[a], active_metas[b]
        if ma.highway != mb.highway:
            continue
        edges.append((a, b, abs(mb.milepost - ma.milepost)))
    return edges


def travel_time(d_ij, v_i, v_j):
    """Hours to traverse d_ij miles at the mean endpoint speed.

    Returns (hours, floored) where floored marks that the speed floor
    was substituted for a non-positive mean speed.
    """
    if d_ij <= 0:
        raise ValueError("distance must be positive")
    v = (v_i + v_j) / 2.0
    floored = v <= 0
    if floored:
        v = V_MIN
    return d_ij / v, floored


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


def build_snapshot(active_metas, speeds):
    """Build both modality adjacencies over the given active detectors.

    `speeds` maps detector_id -> mph at this hour.
    """
    n = len(active_metas)
    chain = build_edges(active_metas)

    raw_d = [d for (_, _, d) in chain]
    raw_tt = [travel_time(d,
                          speeds[active_metas[i].detector_id],
                          speeds[active_metas[j].detector_id])[0]
              for (i, j, d) in chain]

    scaled_d = scale_weights(raw_d)
    scaled_tt = scale_weights(raw_tt)

    adj_d = np.zeros((n, n))
    adj_tt = np.zeros((n, n))
    for k, (i, j, _) in enumerate(chain):
        adj_d[i, j] = adj_d[j, i] = scaled_d[k]
        adj_tt[i, j] = adj_tt[j, i] = scaled_tt[k]

    return GraphSnapshot(node_ids=[m.detector_id for m in active_metas],
                         adj_d=adj_d, adj_tt=adj_tt)


def propagate(snapshot, x):
    """Ã·x for both modalities: {"d": norm_d @ x, "tt": norm_tt @ x}.

    `x` holds one row per snapshot node, in `node_ids` order. A feature
    mask scales columns, so it commutes with this product and can be
    applied afterwards.
    """
    if x.shape[0] != len(snapshot.node_ids):
        raise ValueError("feature rows disagree with the snapshot's nodes")
    return {"d": snapshot.norm_d @ x, "tt": snapshot.norm_tt @ x}
