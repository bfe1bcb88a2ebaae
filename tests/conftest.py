import numpy as np

from evacnet import dmf, graphs
from evacnet.dataio import INPUT_MODALITIES, WindowSample, gather_inputs


def chain_snapshot(n, i, j, adj_d, adj_tt):
    """The `graphs.GraphSnapshot` over n nodes with the edges i–j and the
    two modalities' weights, each normalization from its weights."""
    return graphs.GraphSnapshot(
        i=i, j=j, adj_d=adj_d, adj_tt=adj_tt,
        norm_d=graphs.inv_sqrt_degree(n, i, j, adj_d),
        norm_tt=graphs.inv_sqrt_degree(n, i, j, adj_tt))


def random_snapshot(rng, n):
    """A random chain over n nodes in their order: each edge's distance
    weight, then its travel-time weight, drawn from [0.1, 1)."""
    w = rng.uniform(0.1, 1.0, size=(max(n - 1, 0), 2))
    return chain_snapshot(n, np.arange(n - 1), np.arange(1, n), w[:, 0],
                          w[:, 1])


def random_window(rng, n=4, f_t=5, f_s=3, l=3, p=2, extras_per_step=0):
    """A window over a small input table of l hours and n predicted
    detectors followed by `extras_per_step` step extras, all active at every
    hour: random normalized rows (a predicted detector's spatial columns
    constant over the hours) and one random snapshot per hour over all of
    them. Returns (window, snapshots)."""
    m = extras_per_step
    rows = rng.normal(size=(l, n + m, f_t + f_s))
    rows[:, :n, f_t:] = rows[0, :n, f_t:]
    table = np.zeros((l, len(INPUT_MODALITIES), n + m, f_t + f_s))
    table[:, INPUT_MODALITIES.index("identity")] = rows
    snapshots = [random_snapshot(rng, n + m) for _ in range(l)]
    targets = rng.normal(size=(n, p))
    w = WindowSample(anchor_index=0, l=l, det_indices=np.arange(n),
                     targets=targets, targets_raw=targets.copy(),
                     extra_temporal=[np.arange(n, n + m)] * l, table=table)
    repropagate(w.table, snapshots)
    return w, snapshots


def repropagate(table, snapshots, propagate=graphs.propagate):
    """Set each hour's graph products in `table` from its "identity" rows and
    that hour's snapshot, whose nodes are all the table's detectors, by
    `propagate` (the dense oracle's takes its snapshots), rounding them to
    the table's dtype; call again after changing the rows."""
    identity = INPUT_MODALITIES.index("identity")
    for t, snap in enumerate(snapshots):
        for g, rows in propagate(snap, table[t, identity]).items():
            table[t, INPUT_MODALITIES.index(g)] = rows


def predict(windows, params, mask=None, static_chain=None):
    """`dmf.forward` over the windows' input rows for the parameters'
    modalities, gathered as `trainer.evaluate` gathers a chunk's."""
    rows = gather_inputs(windows, params.modalities, static_chain)
    return dmf.forward(rows, params, mask=mask)
