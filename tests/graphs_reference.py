"""Reference oracle for the graph stage: the per-object, per-edge
`build_edges`, `travel_time` and `build_snapshot` that `graphs.chain_edges`
and the array `graphs.build_snapshot` replaced, and the dense n × n
adjacency, `gcn_normalize` and product that the edge-list snapshot and
`graphs.normalized_product` replaced, kept so that the array code can be
checked against them. Only the imports and the snapshot, which no longer
holds the detector ids, differ."""

from types import SimpleNamespace

import numpy as np

from evacnet.graphs import V_MIN, scale_weights


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


def gcn_normalize(adj):
    """Symmetric normalization with self-loops: D^-1/2 (A+I) D^-1/2."""
    adj = np.asarray(adj, dtype=float)
    a_hat = adj + np.eye(adj.shape[0])
    d_inv_sqrt = 1.0 / np.sqrt(a_hat.sum(axis=1))
    return a_hat * d_inv_sqrt[:, None] * d_inv_sqrt[None, :]


def dense(n, i, j, w):
    """The symmetric n × n adjacency whose edges i–j have weights w."""
    adj = np.zeros((n, n))
    adj[i, j] = adj[j, i] = w
    return adj


def product(adj, x):
    """gcn_normalize(adj) @ x in float64, over the nodes on x's
    second-to-last axis."""
    return gcn_normalize(adj) @ np.asarray(x, dtype=np.float64)


def propagate(snapshot, x):
    """Ã·x for both modalities of a snapshot of this module's
    `build_snapshot`, in float64: {"d": norm_d @ x, "tt": norm_tt @ x}."""
    x = np.asarray(x, dtype=np.float64)
    return {"d": snapshot.norm_d @ x, "tt": snapshot.norm_tt @ x}


def build_snapshot(active_metas, speeds):
    """Build both modality adjacencies over the given active detectors,
    dense: `adj_d` and `adj_tt` and their normalizations `norm_d` and
    `norm_tt`, each n × n.

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

    return SimpleNamespace(adj_d=adj_d, adj_tt=adj_tt,
                           norm_d=gcn_normalize(adj_d),
                           norm_tt=gcn_normalize(adj_tt))
