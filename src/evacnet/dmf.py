"""The forecasting network: per-modality GCN encoders over each hour's
graph snapshot, learned per-node attention fusion, a shared LSTM over the
input window, and a linear multi-horizon head.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from . import numcore as nc
from .numcore import Tensor


@dataclass
class DmfParameters:
    """All trainable weights, keyed by name; values are numcore Tensors.
    With M modalities: W_gcn (M, F, H), w_att (M, H) when M > 1, and the
    LSTM's W_lstm, U_lstm (H, 4H) and b_lstm (4H,), gates f, i, c, o."""
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
            return rng.uniform(-bound, bound, size=shape)

        t = {"W_gcn": np.stack([uniform(f_in, hidden) for _ in modalities])}
        if len(modalities) > 1:
            t["w_att"] = np.stack([uniform(hidden) for _ in modalities])
        # drawn gate by gate, W then U, as separate (H, H) blocks
        w_u = [(uniform(hidden, hidden), uniform(hidden, hidden))
               for _ in range(4)]
        t["W_lstm"] = np.concatenate([w for w, _ in w_u], axis=1)
        t["U_lstm"] = np.concatenate([u for _, u in w_u], axis=1)
        t["b_lstm"] = np.zeros(4 * hidden)
        t["W_out"] = uniform(hidden, horizon)
        t["b_out"] = np.zeros(horizon)
        return cls(f_t=f_t, f_s=f_s, hidden=hidden, horizon=horizon,
                   modalities=tuple(modalities),
                   tensors={k: Tensor(v, requires_grad=True)
                            for k, v in t.items()})

    def trainable(self):
        return list(self.tensors.values())

    def param_count(self):
        return sum(t.data.size for t in self.tensors.values())

    def copy(self):
        return replace(self, tensors={
            k: Tensor(v.data.copy(), requires_grad=True)
            for k, v in self.tensors.items()})


@dataclass
class FusionTrace:
    """Per-step attention weights, for inspection."""
    alphas: list = field(default_factory=list)  # (N_t, n_modalities) arrays


def gcn_layer(h_prop, weight):
    """Graph convolution ReLU(Ã H W), given the propagated rows Ã·H; with
    (M, n, F) rows and an (M, F, H) weight, one product per modality."""
    return nc.relu(nc.matmul(h_prop, weight))


def attention_fuse(z_stack, params):
    """Softmax-weighted per-node sum of the (M, n, H) modality embeddings;
    returns the fused (n, H) embedding and the (n, M) weights (an array)."""
    n_mod, n, hidden = z_stack.shape
    logits = nc.matmul(z_stack, params.tensors["w_att"].reshape(
        n_mod, hidden, 1))
    alpha = nc.softmax(logits, axis=0)  # (M, n, 1)
    return (alpha * z_stack).sum(axis=0), alpha.data[:, :, 0].T


def lstm_step(z_fused, h_prev, c_prev, params):
    """One LSTM cell update over all nodes at once: one affine map whose
    column blocks are the f, i, c, o gates."""
    t = params.tensors
    hidden = params.hidden
    pre = (nc.matmul(z_fused, t["W_lstm"]) + nc.matmul(h_prev, t["U_lstm"])
           + t["b_lstm"])
    # per gate: at ~800 rows one (n, 4H) sigmoid took 4x three (n, H) ones
    f = nc.sigmoid(pre[:, :hidden])
    i = nc.sigmoid(pre[:, hidden:2 * hidden])
    c_tilde = nc.tanh(pre[:, 2 * hidden:3 * hidden])
    o = nc.sigmoid(pre[:, 3 * hidden:])
    c = f * c_prev + i * c_tilde
    h = o * nc.tanh(c)
    return h, c


def predict_head(h, params):
    return nc.matmul(h, params.tensors["W_out"]) + params.tensors["b_out"]


def forward(windows, params, mask=None, static_rows=None):
    """Full network pass over a batch of windows as one disjoint-union graph.

    A window's inputs at each of its l hours are rows of the data's shared
    per-hour input table (`dataio.input_table`), read through
    `WindowSample.inputs` as (l, M, n_w, F), one block per modality: the
    predicted nodes' rows of Ã·[temporal ‖ spatial], computed once per
    hour from that hour's snapshot when the data were prepared, or the
    unpropagated rows for the "identity" modality. A GCN acts on a
    disjoint union block by block, so stacking the windows' rows equals
    running the windows one at a time, and each hour is one GCN product
    over every modality. The output has one row per predicted node of the
    batch, in window order. `mask` carries the RL agent's binary feature
    masks; it scales columns, so it applies to the propagated rows. None
    means all features active. `static_rows`, one (l, n_w, F) array per
    window, replaces every modality's rows (static-graph baseline).
    """
    if not windows:
        raise ValueError("empty batch of windows")
    l = windows[0].l
    for w in windows:
        if len(w.det_indices) == 0:
            raise ValueError("window has an empty predicted node set")
        if w.l != l:
            raise ValueError("windows in a batch differ in input length")

    if static_rows is None:
        rows = np.concatenate([w.inputs(params.modalities) for w in windows],
                              axis=2)
    else:
        if [r.shape[:2] for r in static_rows] != \
                [(l, len(w.det_indices)) for w in windows]:
            raise ValueError("static rows disagree with the windows")
        rows = np.stack([np.concatenate(static_rows, axis=1)]
                        * len(params.modalities), axis=1)
    if rows.shape[-1] != params.f_t + params.f_s:
        raise ValueError("feature registry does not match parameters")
    if mask is not None:
        rows = rows * np.concatenate([mask.m_temp, mask.m_spatial])

    trace = FusionTrace()
    n = rows.shape[2]
    h = nc.zeros(n, params.hidden)
    c = nc.zeros(n, params.hidden)
    for step in range(l):
        z = gcn_layer(rows[step], params.tensors["W_gcn"])
        if len(params.modalities) > 1:
            fused, alphas = attention_fuse(z, params)
            trace.alphas.append(alphas)
        else:
            fused = z[0]
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
