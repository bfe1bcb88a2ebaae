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


def concat_node_features(temporal_step, spatial):
    """[temporal || spatial] node matrix for one step (numpy)."""
    if temporal_step.shape[0] != spatial.shape[0]:
        raise ValueError("temporal/spatial node counts disagree")
    return np.concatenate([temporal_step, spatial], axis=1)


def gcn_layer(h_prop, weight):
    """Graph convolution ReLU(Ã H W), given the propagated rows Ã·H."""
    return nc.relu(nc.matmul(h_prop, weight))


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


def node_rows(features):
    """(l, n, F_t + F_s) unpropagated rows [temporal_t ‖ spatial] of a
    window's predicted nodes, one block per input step."""
    return np.stack([concat_node_features(features.temporal[:, step],
                                          features.spatial)
                     for step in range(features.temporal.shape[1])])


def forward(windows, params, mask=None, static_rows=None):
    """Full network pass over a batch of windows as one disjoint-union graph.

    Each window carries Ã·[temporal ‖ spatial] for its predicted nodes at
    every input step, per modality, computed once from its hours'
    snapshots when the data were prepared (`dataio.make_windows`). A GCN
    acts on a disjoint union block by block, so stacking the windows' rows
    equals running the windows one at a time. The output has one row per
    predicted node of the batch, in window order. `mask` carries the RL
    agent's binary feature masks; it scales columns, so it applies to the
    propagated rows. None means all features active. The "identity"
    modality uses the unpropagated rows. `static_rows`, one (l, n_w, F)
    array per window, replaces every modality's rows (static-graph
    baseline).
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

    def batch_rows(g):
        if static_rows is not None:
            per_window = static_rows
        elif g == "identity":
            per_window = [node_rows(w.features) for w in windows]
        else:
            per_window = [w.propagated[g] for w in windows]
        if [r.shape[:2] for r in per_window] != \
                [(l, len(w.features.temporal)) for w in windows]:
            raise ValueError("propagated rows disagree with the window")
        return np.concatenate(per_window, axis=1)

    rows = {g: batch_rows(g) for g in params.modalities}
    if mask is not None:
        m = np.concatenate([mask.m_temp, mask.m_spatial])
        rows = {g: x * m for g, x in rows.items()}

    trace = FusionTrace()
    n = rows[params.modalities[0]].shape[1]
    h = nc.zeros(n, params.hidden)
    c = nc.zeros(n, params.hidden)
    for step in range(l):
        z_by_mod = {g: gcn_layer(rows[g][step], params.tensors[f"W_{g}"])
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
