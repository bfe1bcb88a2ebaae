import numpy as np

from evacnet import dmf, graphs
from evacnet.dataio import FeatureTensor, WindowSample


def random_snapshot(rng, node_ids):
    """Symmetric random chain-ish adjacency over the given nodes."""
    n = len(node_ids)
    adj_d = np.zeros((n, n))
    adj_tt = np.zeros((n, n))
    for i in range(n - 1):
        adj_d[i, i + 1] = adj_d[i + 1, i] = rng.uniform(0.1, 1.0)
        adj_tt[i, i + 1] = adj_tt[i + 1, i] = rng.uniform(0.1, 1.0)
    return graphs.GraphSnapshot(node_ids=list(node_ids), adj_d=adj_d,
                                adj_tt=adj_tt)


def random_window(rng, n=4, f_t=5, f_s=3, l=3, p=2, extras_per_step=0):
    node_ids = [f"n{k}" for k in range(n)]
    feats = FeatureTensor(
        temporal=rng.normal(size=(n, l, f_t)),
        spatial=rng.normal(size=(n, f_s)))
    snapshots = []
    extra_t, extra_s = [], []
    for _ in range(l):
        m = extras_per_step
        snapshots.append(random_snapshot(
            rng, node_ids + [f"x{k}" for k in range(m)]))
        extra_t.append(rng.normal(size=(m, f_t)))
        extra_s.append(rng.normal(size=(m, f_s)))
    targets = rng.normal(size=(n, p))
    w = WindowSample(anchor_index=0, anchor_time=None,
                     det_indices=np.arange(n), features=feats,
                     targets=targets, targets_raw=targets.copy(),
                     snapshots=snapshots, extra_temporal=extra_t,
                     extra_spatial=extra_s, propagated=None)
    derive_rows(w)
    return w


def derive_rows(w):
    """Set `w.propagated` from its snapshots, whose nodes are the predicted
    nodes followed by the step extras, and its raw features; call again
    after changing the features."""
    n = w.features.temporal.shape[0]
    steps = []
    for step, snap in enumerate(w.snapshots):
        x = dmf.concat_node_features(
            np.concatenate([w.features.temporal[:, step],
                            w.extra_temporal[step]]),
            np.concatenate([w.features.spatial, w.extra_spatial[step]]))
        steps.append(graphs.propagate(snap, x))
    w.propagated = {g: np.stack([rows[g][:n] for rows in steps])
                    for g in ("d", "tt")}
