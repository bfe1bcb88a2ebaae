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


def gcn_layer(rows, weight):
    """Graph convolution ReLU(Ã H W) at every input hour and modality at
    once, given the propagated rows Ã·H: constant (l, M, n, F) rows and an
    (M, F, H) weight give (l, M, n, H). One node; its backward returns only
    the weight's gradient, since the rows are data."""
    pre = rows @ weight.data
    active = pre > 0

    def bwd(g):
        # one product per hour over every modality: no transposed copy of
        # the rows
        dz = g * active
        return (sum(np.swapaxes(rows[k], -1, -2) @ dz[k]
                    for k in range(len(rows))),)
    return Tensor.node(np.maximum(pre, 0.0, out=pre), (weight,), bwd)


def attention_fuse(z, w_att):
    """Per-node attention over the modalities at every input hour: logits
    z_m·w_m of the (l, M, n, H) embeddings and an (M, H) weight, a softmax
    over M and the weighted sum. Returns the fused (l, n, H) embeddings,
    one node, and the weights α as an (l, n, M) array."""
    logits = z.data @ w_att.data[:, :, None]  # (l, M, n, 1)
    alpha = nc.softmax(logits, axis=1)[..., 0]  # (l, M, n)

    def bwd(g):
        # the contractions run as einsum: no (l, M, n, H) temporaries
        d_alpha = np.einsum("lnh,lmnh->lmn", g, z.data)
        d_logits = alpha * (d_alpha - (alpha * d_alpha).sum(axis=1,
                                                            keepdims=True))
        return (alpha[..., None] * g[:, None]
                + d_logits[..., None] * w_att.data[:, None, :],
                np.einsum("lmn,lmnh->mh", d_logits, z.data))
    fused = Tensor.node(np.einsum("lmn,lmnh->lnh", alpha, z.data),
                        (z, w_att), bwd)
    return fused, alpha.transpose(0, 2, 1)


def _sigmoid(x):
    """x ← 1 / (1 + exp(-x)), in place."""
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    np.divide(1.0, x, out=x)


def lstm_step(x, params):
    """The LSTM over a window's l input hours from a zero state, all nodes
    at once. `x` holds each hour's (n, H) inputs, as (l, n, H) or as a
    single modality's (l, 1, n, H). The input projection of every hour is
    one product; only h·U runs hour by hour. The pre-activation's column
    blocks are the f, i, c, o gates. Returns the last hour's hidden state
    (n, H), one node whose backward is backpropagation through time, and
    the last cell state as an array."""
    t = params.tensors
    w, u, b = t["W_lstm"], t["U_lstm"], t["b_lstm"]
    hid = params.hidden
    l = x.shape[0]
    xs = x.data.reshape(l, -1, hid)
    n = xs.shape[1]

    def blocks(a):
        return (a[..., j * hid:(j + 1) * hid] for j in range(4))

    # x·W + h·U + b, activated in place hour by hour into f, i, c̃, o
    gates = (xs.reshape(l * n, hid) @ w.data).reshape(l, n, 4 * hid)
    hs = np.empty((l + 1, n, hid))  # hs[k], cs[k]: the state entering hour k
    cs = np.empty((l + 1, n, hid))
    hs[0] = cs[0] = 0.0
    tanh_c = np.empty((l, n, hid))
    for k in range(l):
        if k:
            gates[k] += hs[k] @ u.data
        gates[k] += b.data
        f, i, c_tilde, o = blocks(gates[k])
        _sigmoid(f)
        _sigmoid(i)
        np.tanh(c_tilde, out=c_tilde)
        _sigmoid(o)
        np.multiply(f, cs[k], out=cs[k + 1])
        cs[k + 1] += i * c_tilde
        np.tanh(cs[k + 1], out=tanh_c[k])
        np.multiply(o, tanh_c[k], out=hs[k + 1])

    def bwd(g):
        d_pre = np.empty_like(gates)
        dh, dc = g, 0.0
        for k in reversed(range(l)):
            f, i, c_tilde, o = blocks(gates[k])
            df, di, dg, do = blocks(d_pre[k])
            dc = dc + dh * o * (1.0 - tanh_c[k] ** 2)
            np.multiply(dc * cs[k], f * (1.0 - f), out=df)
            np.multiply(dc * c_tilde, i * (1.0 - i), out=di)
            np.multiply(dc * i, 1.0 - c_tilde ** 2, out=dg)
            np.multiply(dh * tanh_c[k], o * (1.0 - o), out=do)
            dc = dc * f
            if k:
                dh = d_pre[k] @ u.data.T
        flat = d_pre.reshape(l * n, 4 * hid)
        # the state entering hour 0 is zero, so hour 0 adds nothing to dU
        dx = ((flat @ w.data.T).reshape(x.shape) if x.requires_grad
              else None)
        return (dx, xs.reshape(l * n, hid).T @ flat,
                hs[1:l].reshape((l - 1) * n, hid).T @ flat[n:],
                flat.sum(axis=0))
    return Tensor.node(hs[l], (x, w, u, b), bwd), cs[l]


def predict_head(h, params):
    """The linear multi-horizon head h·W_out + b_out, one node."""
    w, b = params.tensors["W_out"], params.tensors["b_out"]

    def bwd(g):
        return g @ w.data.T, h.data.T @ g, g.sum(axis=0)
    return Tensor.node(h.data @ w.data + b.data, (h, w, b), bwd)


def forward(windows, params, mask=None, static_rows=None):
    """Full network pass over a batch of windows as one disjoint-union graph.

    A window's inputs at each of its l hours are rows of the data's shared
    per-hour input table (`dataio.input_table`), read through
    `WindowSample.inputs` as (l, M, n_w, F), one block per modality: the
    predicted nodes' rows of Ã·[temporal ‖ spatial], computed once per
    hour from that hour's snapshot when the data were prepared, or the
    unpropagated rows for the "identity" modality. A GCN acts on a
    disjoint union block by block, so stacking the windows' rows equals
    running the windows one at a time. GCN, attention and input projection
    do not depend on the recurrence, so each runs over all l hours at
    once: the batch is one `gcn_layer` node over every hour and modality,
    one `attention_fuse` node (skipped with a single modality) and one
    `lstm_step` node, whose loop over the hours holds only h·U, then the
    head. The output has one row per predicted node of the batch, in
    window order. `mask` carries the RL agent's binary feature masks; it
    scales columns, so it applies to the propagated rows. None means all
    features active. `static_rows`, one (l, n_w, F) array per window,
    replaces every modality's rows (static-graph baseline).
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
        # rows is a fresh array here, so the mask scales it in place
        rows *= np.concatenate([mask.m_temp, mask.m_spatial])

    trace = FusionTrace()
    z = gcn_layer(rows, params.tensors["W_gcn"])
    if len(params.modalities) > 1:
        z, alphas = attention_fuse(z, params.tensors["w_att"])
        trace.alphas.extend(alphas)
    h, _ = lstm_step(z, params)
    return predict_head(h, params), trace


def mse_loss(predicted, windows):
    """Mean over windows of each window's mean squared error over nodes and
    horizons (normalized units): a squared error of window k weighs
    1/(B·n_k·p), with B windows and n_k predicted nodes in window k. One
    node over `predicted`."""
    targets = np.concatenate([w.targets for w in windows])
    counts = [w.targets.shape[0] for w in windows]
    weights = np.repeat([1.0 / (len(windows) * k * targets.shape[1])
                         for k in counts], counts)[:, None]
    diff = predicted.data - targets

    def bwd(g):
        d = g * (weights * diff)
        return (d + d,)
    return Tensor.node((diff * diff * weights).sum(), (predicted,), bwd)
