import numpy as np

from evacnet import graphs
from evacnet.dataio import INPUT_MODALITIES, WindowSample


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
    """A window over a small input table of l hours and n predicted
    detectors followed by `extras_per_step` step extras, all active at every
    hour: random normalized rows (a predicted detector's spatial columns
    constant over the hours) and one random snapshot per hour over all of
    them. Returns (window, snapshots)."""
    m = extras_per_step
    node_ids = [f"n{k}" for k in range(n)] + [f"x{k}" for k in range(m)]
    rows = rng.normal(size=(l, n + m, f_t + f_s))
    rows[:, :n, f_t:] = rows[0, :n, f_t:]
    table = np.zeros((l, len(INPUT_MODALITIES), n + m, f_t + f_s))
    table[:, INPUT_MODALITIES.index("identity")] = rows
    snapshots = [random_snapshot(rng, node_ids) for _ in range(l)]
    targets = rng.normal(size=(n, p))
    w = WindowSample(anchor_index=0, l=l, det_indices=np.arange(n),
                     targets=targets, targets_raw=targets.copy(),
                     extra_temporal=[np.arange(n, n + m)] * l, table=table)
    repropagate(w.table, snapshots)
    return w, snapshots


def repropagate(table, snapshots):
    """Set each hour's graph products in `table` from its "identity" rows and
    that hour's snapshot, whose nodes are all the table's detectors; call
    again after changing the rows."""
    identity = INPUT_MODALITIES.index("identity")
    for t, snap in enumerate(snapshots):
        for g, rows in graphs.propagate(snap, table[t, identity]).items():
            table[t, INPUT_MODALITIES.index(g)] = rows
