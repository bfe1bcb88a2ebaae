import numpy as np

from evacnet import graphs
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
        spatial=rng.normal(size=(n, f_s)),
        node_ids=node_ids,
        registry=[f"t{k}" for k in range(f_t)]
        + [f"s{k}" for k in range(f_s)])
    snapshots = []
    extra_t, extra_s = [], []
    for _ in range(l):
        m = extras_per_step
        snapshots.append(random_snapshot(
            rng, node_ids + [f"x{k}" for k in range(m)]))
        extra_t.append(rng.normal(size=(m, f_t)))
        extra_s.append(rng.normal(size=(m, f_s)))
    targets = rng.normal(size=(n, p))
    return WindowSample(anchor_index=0, anchor_time=None,
                        det_indices=np.arange(n), features=feats,
                        targets=targets, targets_raw=targets.copy(),
                        snapshots=snapshots, extra_temporal=extra_t,
                        extra_spatial=extra_s)
