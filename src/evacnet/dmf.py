"""The forecasting network: per-modality GCN encoders over each hour's
graph snapshot, learned per-node attention fusion, a shared LSTM over the
input window, and a linear multi-horizon head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .dataio import gather_inputs
from .numcore import Tensor


@dataclass
class DmfParameters:
    """All trainable weights, keyed by name; values are numcore Tensors.
    With M modalities: W_gcn (M, F, H), w_att (M, H) when M > 1, and the
    LSTM's W_lstm, U_lstm (H, 4H) and b_lstm (4H,), gates f, i, c, o.
    Their data are consecutive views, in key order, of the one contiguous
    vector `flat` (`numcore.flatten`)."""
    f_t: int
    f_s: int
    hidden: int
    horizon: int
    modalities: tuple
    tensors: dict = field(default_factory=dict)
    flat: np.ndarray | None = None

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
        tensors = {k: Tensor(v, requires_grad=True) for k, v in t.items()}
        return cls(f_t=f_t, f_s=f_s, hidden=hidden, horizon=horizon,
                   modalities=tuple(modalities), tensors=tensors,
                   flat=nc.flatten(tensors.values()))

    def trainable(self):
        return list(self.tensors.values())


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
    # as einsum, not a product with one column, whose rounding BLAS picks
    # by the row count: a window's logits do not depend on its batch
    alpha = nc.softmax(np.einsum("lmnh,mh->lmn", z.data, w_att.data),
                       axis=1)  # (l, M, n)

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
    single modality's (l, 1, n, H). Returns the last hour's hidden state
    (n, H), one node whose backward is backpropagation through time, and
    the last cell state as an array.

    The activations are gate-major: one (4, l, n, H) array in which gate
    f, i, c̃ or o of hour k is a contiguous (n, H) block. The input
    projection of every hour is one product, and only h·U runs hour by
    hour, into one (4, n, H) buffer; both multiply (4, H, H) views of the
    (H, 4H) weights' column blocks, so no weight is copied. The backward
    writes an hour's four gate gradients into a gate-major (4, n, H)
    block and copies it into the hour-major (l, n, 4H) d_pre, which the
    products dh, dx, dW and dU and the sum db read whole. Apart from
    d_pre and the gradients it returns, both passes write only into
    buffers made once per call. Every elementwise op takes the operands of
    a column-block layout in the same order and the backward's products
    are the same; with H = 32 the forward's per-gate products also round
    as the (H, 4H) ones do, so h, c and the gradients equal a column-block
    LSTM's bit for bit."""
    t = params.tensors
    w, u, b = t["W_lstm"], t["U_lstm"], t["b_lstm"]
    hid = params.hidden
    l = x.shape[0]
    xs = x.data.reshape(-1, hid)
    n = xs.shape[0] // l

    def by_gate(a):
        """(H, 4H) → (4, H, H) view: gate j's columns at [j]."""
        return a.reshape(hid, 4, hid).transpose(1, 0, 2)

    # pre (x·W + h·U + b, activated in place hour by hour into f, i, c̃, o),
    # then hs[k] and cs[k] (the state entering hour k), tanh(c) and one
    # hour's h·U (then i·c̃ in hu[0]). A pass that records no graph takes
    # them as slices of one allocation: glibc's malloc hands memory at the
    # top of its heap back to the system once more than twice the largest
    # block it has freed lies there, so as one block an evaluate chunk's
    # buffers stay mapped for the next chunk instead of being faulted in
    # again. A recorded pass keeps them until its backward, and one block
    # would only raise malloc's thresholds for the training step.
    sizes = (4 * l, l + 1, l + 1, l, 4)
    if any(p.requires_grad for p in (x, w, u, b)):
        pre, hs, cs, tanh_c, hu = (np.empty((k, n, hid)) for k in sizes)
    else:
        pre, hs, cs, tanh_c, hu = np.split(np.empty((sum(sizes), n, hid)),
                                           np.cumsum(sizes[:-1]))
    np.matmul(xs, by_gate(w.data), out=pre.reshape(4, l * n, hid))
    pre = pre.reshape(4, l, n, hid)
    bias = b.data.reshape(4, 1, hid)
    u_gates = by_gate(u.data)
    hs[0] = cs[0] = 0.0
    # a gate under about -709 overflows exp to inf, and 1 / inf is its
    # exact value 0
    with np.errstate(over="ignore"):
        for k in range(l):
            gates = pre[:, k]
            if k:
                gates += np.matmul(hs[k], u_gates, out=hu)
            gates += bias
            _sigmoid(gates[:2])
            f, i, c_tilde, o = gates
            np.tanh(c_tilde, out=c_tilde)
            _sigmoid(o)
            np.multiply(f, cs[k], out=cs[k + 1])
            cs[k + 1] += np.multiply(i, c_tilde, out=hu[0])
            np.tanh(cs[k + 1], out=tanh_c[k])
            np.multiply(o, tanh_c[k], out=hs[k + 1])

    def bwd(g):
        d_gates = np.empty((4, n, hid))  # one hour's d_pre, gate-major
        d_pre = np.empty((l, n, 4 * hid))  # every hour's, hour-major
        dc = np.zeros((n, hid))
        dh, dh_next = g, np.empty((n, hid))
        s, s2 = np.empty((2, n, hid))

        def dsig(a):
            """σ' = a·(1 - a) of a gate a = σ(·), into s2."""
            np.subtract(1.0, a, out=s2)
            return np.multiply(s2, a, out=s2)

        def dtanh(a):
            """tanh' = 1 - a² of a = tanh(·), into s2."""
            np.square(a, out=s2)
            return np.subtract(1.0, s2, out=s2)

        df, di, dg, do = d_gates
        for k in reversed(range(l)):
            f, i, c_tilde, o = pre[:, k]
            np.multiply(dh, o, out=s)
            s *= dtanh(tanh_c[k])
            dc += s
            np.multiply(np.multiply(dc, cs[k], out=s), dsig(f), out=df)
            np.multiply(np.multiply(dc, c_tilde, out=s), dsig(i), out=di)
            np.multiply(np.multiply(dc, i, out=s), dtanh(c_tilde), out=dg)
            np.multiply(np.multiply(dh, tanh_c[k], out=s), dsig(o), out=do)
            dc *= f
            np.copyto(d_pre[k].reshape(n, 4, hid), d_gates.transpose(1, 0, 2))
            if k:
                dh = np.matmul(d_pre[k], u.data.T, out=dh_next)
        flat = d_pre.reshape(l * n, 4 * hid)
        # the state entering hour 0 is zero, so hour 0 adds nothing to dU
        dx = ((flat @ w.data.T).reshape(x.shape) if x.requires_grad
              else None)
        return (dx, xs.T @ flat,
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
    per-hour input table (`dataio.input_table`), one block per modality:
    the predicted nodes' rows of Ã·[temporal ‖ spatial], computed once per
    hour from that hour's snapshot when the data were prepared, or the
    unpropagated rows for the "identity" modality. The batch's rows are
    read as one (l, M, N, F) array with one fancy index
    (`dataio.gather_inputs`). A GCN acts on a disjoint union block by
    block, so stacking the windows' rows equals running the windows one at
    a time. GCN, attention and input projection do not depend on the
    recurrence, so each runs over all l hours at once: the batch is one
    `gcn_layer` node over every hour and modality, one `attention_fuse`
    node (skipped with a single modality) and one `lstm_step` node, whose
    loop over the hours holds only h·U, then the head. The output has one
    row per predicted node of the batch, in window order. `mask` is the
    RL agent's (F,) 0/1 feature mask; it scales columns, so it applies to
    the propagated rows. None means all features active. `static_rows`,
    one (l, n_w, F) array per window, replaces every modality's rows
    (static-graph baseline). Returns the predictions and the attention
    weights α, an (l, N, M) array, or None with a single modality.
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
        rows = gather_inputs(windows, params.modalities)
    else:
        if [r.shape[:2] for r in static_rows] != \
                [(l, len(w.det_indices)) for w in windows]:
            raise ValueError("static rows disagree with the windows")
        rows = np.stack([np.concatenate(static_rows, axis=1)]
                        * len(params.modalities), axis=1)
    if rows.shape[-1] != params.f_t + params.f_s:
        raise ValueError("feature registry does not match parameters")
    if mask is not None:
        rows *= mask  # a fresh array here, so scaled in place

    z = gcn_layer(rows, params.tensors["W_gcn"])
    alphas = None
    if len(params.modalities) > 1:
        z, alphas = attention_fuse(z, params.tensors["w_att"])
    h, _ = lstm_step(z, params)
    return predict_head(h, params), alphas


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
