"""The forecasting network: per-modality GCN encoders over each hour's
graph snapshot, learned per-node attention fusion, a shared LSTM over the
input window, and a linear multi-horizon head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .numcore import Tensor

LSTM_GATES = ("f", "i", "c", "o")


@dataclass
class DmfParameters:
    """All trainable weights, keyed by name; values are numcore Tensors."""
    f_t: int
    f_s: int
    hidden: int
    horizon: int
    modalities: tuple
    tensors: dict = field(default_factory=dict)

    @classmethod
    def init(cls, f_t, f_s, hidden, horizon, modalities=("d", "tt"), seed=0):
        rng = np.random.default_rng(seed)
        f_in = f_t + f_s

        def uniform(*shape):
            bound = 1.0 / np.sqrt(shape[0])
            return Tensor(rng.uniform(-bound, bound, size=shape),
                          requires_grad=True)

        t = {}
        for g in modalities:
            t[f"W_{g}"] = uniform(f_in, hidden)
        if len(modalities) > 1:
            for g in modalities:
                t[f"w_att_{g}"] = uniform(hidden)
        for gate in LSTM_GATES:
            t[f"W_{gate}_lstm"] = uniform(hidden, hidden)
            t[f"U_{gate}_lstm"] = uniform(hidden, hidden)
            t[f"b_{gate}_lstm"] = Tensor(np.zeros(hidden), requires_grad=True)
        t["W_out"] = uniform(hidden, horizon)
        t["b_out"] = Tensor(np.zeros(horizon), requires_grad=True)
        return cls(f_t=f_t, f_s=f_s, hidden=hidden, horizon=horizon,
                   modalities=tuple(modalities), tensors=t)

    def trainable(self):
        return list(self.tensors.values())

    def named(self):
        return dict(self.tensors)

    def param_count(self):
        return sum(t.data.size for t in self.tensors.values())

    def copy(self):
        t = {k: Tensor(v.data.copy(), requires_grad=True)
             for k, v in self.tensors.items()}
        return DmfParameters(self.f_t, self.f_s, self.hidden, self.horizon,
                             self.modalities, t)


@dataclass
class FusionTrace:
    """Per-step attention weights, for inspection."""
    alphas: list = field(default_factory=list)  # (N_t, n_modalities) arrays


def concat_node_features(temporal_step, spatial, m_temp=None, m_spatial=None):
    """Masked [temporal || spatial] node matrix for one step (numpy)."""
    if temporal_step.shape[0] != spatial.shape[0]:
        raise ValueError("temporal/spatial node counts disagree")
    if m_temp is not None:
        temporal_step = temporal_step * m_temp
    if m_spatial is not None:
        spatial = spatial * m_spatial
    return np.concatenate([temporal_step, spatial], axis=1)


def gcn_layer(norm_adj, h_nodes, weight):
    """Graph convolution: ReLU(Ã H W), with Ã a numcore.EdgeList."""
    return nc.relu(nc.matmul(nc.spmm(norm_adj, h_nodes), weight))


def attention_fuse(z_by_modality, params):
    """Softmax-weighted per-node combination of modality embeddings."""
    modalities = params.modalities
    logits = [nc.matmul(z_by_modality[g], params.tensors[f"w_att_{g}"])
              for g in modalities]
    alpha = nc.softmax(nc.stack(logits, axis=1), axis=1)  # (N, n_mod)
    z_stack = nc.stack([z_by_modality[g] for g in modalities], axis=1)
    n = alpha.shape[0]
    fused = (alpha.reshape(n, len(modalities), 1) * z_stack).sum(axis=1)
    return fused, alpha


def lstm_step(z_fused, h_prev, c_prev, params):
    """One LSTM cell update over all nodes at once."""
    t = params.tensors

    def gate(name, act):
        pre = (nc.matmul(z_fused, t[f"W_{name}_lstm"])
               + nc.matmul(h_prev, t[f"U_{name}_lstm"])
               + t[f"b_{name}_lstm"])
        return act(pre)

    f = gate("f", nc.sigmoid)
    i = gate("i", nc.sigmoid)
    c_tilde = gate("c", nc.tanh)
    c = f * c_prev + i * c_tilde
    o = gate("o", nc.sigmoid)
    h = o * nc.tanh(c)
    return h, c


def predict_head(h, params):
    return nc.matmul(h, params.tensors["W_out"]) + params.tensors["b_out"]


def _union_adjacency(adjs, n_pred, n_extra):
    """Predicted rows of the disjoint union of per-window EdgeLists.

    Window k's adjacency indexes its n_pred[k] predicted nodes first and
    its n_extra[k] step extras after. In the union every window's
    predicted nodes come first, in window order, then every window's
    extras, in window order. Only the predicted nodes' rows are kept, as
    only they feed the LSTM; the extras still enter as their neighbors.
    """
    n_pred = np.asarray(n_pred)
    n_extra = np.asarray(n_extra)
    if [a.shape[0] for a in adjs] != (n_pred + n_extra).tolist():
        raise ValueError("snapshot node counts disagree with the window")
    owner = np.repeat(np.arange(len(adjs)), [a.rows.size for a in adjs])
    rows = np.concatenate([a.rows for a in adjs])
    keep = rows < n_pred[owner]
    owner = owner[keep]
    n_own = n_pred[owner]
    pred_start = np.cumsum(n_pred) - n_pred
    extra_start = n_pred.sum() + np.cumsum(n_extra) - n_extra
    pred_shift = pred_start[owner]
    extra_shift = extra_start[owner] - n_own
    cols = np.concatenate([a.cols for a in adjs])[keep]
    # still sorted by row: window k's kept rows are its predicted rows,
    # shifted by pred_start[k], which grows with k
    return nc.EdgeList(
        rows[keep] + pred_shift,
        cols + np.where(cols < n_own, pred_shift, extra_shift),
        np.concatenate([a.vals for a in adjs])[keep],
        (int(n_pred.sum()), int(n_pred.sum() + n_extra.sum())))


def _step_adjacency(modality, snapshots, n_pred, n_extra):
    if modality == "identity":
        n = sum(n_pred)
        return nc.EdgeList(np.arange(n), np.arange(n), np.ones(n),
                           (n, n + sum(n_extra)))
    return _union_adjacency([s.sparse_d if modality == "d" else s.sparse_tt
                             for s in snapshots], n_pred, n_extra)


def forward(windows, params, mask=None, static_adj=None):
    """Full network pass over a batch of windows as one disjoint-union graph.

    At every input step the GCN reads each window's full active node set:
    every window's predicted nodes first, in window order, then every
    window's transient extras. It acts on the union block by block, so
    this equals running the windows one at a time. Only the predicted
    nodes' rows are computed and feed the LSTM, and the output has one
    row per predicted node of the batch, in window order. `mask` carries
    the RL agent's binary feature masks; None means all features active.
    `static_adj`, one EdgeList per window over its predicted nodes,
    freezes the spatial stage (static-graph baseline).
    """
    if not windows:
        raise ValueError("empty batch of windows")
    l = windows[0].features.temporal.shape[1]
    for w in windows:
        n_w, l_w, f_t = w.features.temporal.shape
        if n_w == 0:
            raise ValueError("window has an empty predicted node set")
        if l_w != l:
            raise ValueError("windows in a batch differ in input length")
        if f_t != params.f_t or w.features.spatial.shape[1] != params.f_s:
            raise ValueError("feature registry does not match parameters")
    n_pred = [w.features.temporal.shape[0] for w in windows]
    temporal = np.concatenate([w.features.temporal for w in windows])
    spatial = np.concatenate([w.features.spatial for w in windows])
    n = temporal.shape[0]
    m_temp = None if mask is None else mask.m_temp
    m_spatial = None if mask is None else mask.m_spatial
    static = None if static_adj is None else \
        _union_adjacency(static_adj, n_pred, [0] * len(windows))

    trace = FusionTrace()
    h = nc.zeros(n, params.hidden)
    c = nc.zeros(n, params.hidden)
    for step in range(l):
        if static is not None:
            rows = concat_node_features(temporal[:, step, :], spatial,
                                        m_temp, m_spatial)
            adjs = {g: static for g in params.modalities}
        else:
            rows = concat_node_features(
                np.concatenate([temporal[:, step, :]]
                               + [w.extra_temporal[step] for w in windows]),
                np.concatenate([spatial]
                               + [w.extra_spatial[step] for w in windows]),
                m_temp, m_spatial)
            n_extra = [len(w.extra_temporal[step]) for w in windows]
            snaps = [w.snapshots[step] for w in windows]
            adjs = {g: _step_adjacency(g, snaps, n_pred, n_extra)
                    for g in params.modalities}

        h_t = Tensor(rows)
        z_by_mod = {g: gcn_layer(adjs[g], h_t, params.tensors[f"W_{g}"])
                    for g in params.modalities}
        if len(params.modalities) > 1:
            fused, alpha = attention_fuse(z_by_mod, params)
            trace.alphas.append(alpha.data.copy())
        else:
            fused = z_by_mod[params.modalities[0]]
        h, c = lstm_step(fused, h, c, params)

    return predict_head(h, params), trace


def mse_loss(predicted, windows):
    """Mean over windows of each window's mean squared error over nodes and
    horizons (normalized units): a squared error of window k weighs
    1/(B·n_k·p), with B windows and n_k predicted nodes in window k."""
    targets = np.concatenate([w.targets for w in windows])
    counts = [w.targets.shape[0] for w in windows]
    weights = np.repeat([1.0 / (len(windows) * k * targets.shape[1])
                         for k in counts], counts)
    diff = predicted - Tensor(targets)
    return (diff * diff * Tensor(weights[:, None])).sum()
