"""The forecasting network: per-modality GCN encoders over each hour's
graph snapshot, learned per-node attention fusion, a shared LSTM over the
input window, and a linear multi-horizon head.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import numcore as nc
from .numcore import Tensor


@dataclass
class DmfParameters:
    """All trainable weights, keyed by name; values are numcore Tensors.
    With M modalities: W_gcn (M, F, H), w_att (M, H) when M > 1, and the
    LSTM's W_lstm, U_lstm (H, 4H) and b_lstm (4H,), gates f, i, c, o.
    Their data are consecutive views, in key order, of the one contiguous
    float32 vector `flat` (`numcore.flatten`)."""
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
        # drawn in float64, as always, and rounded once
        flat, views = nc.flatten(a.astype(np.float32) for a in t.values())
        tensors = {k: Tensor(v, requires_grad=True) for k, v in zip(t, views)}
        return cls(f_t=f_t, f_s=f_s, hidden=hidden, horizon=horizon,
                   modalities=tuple(modalities), tensors=tensors, flat=flat)

    @staticmethod
    def size(f_t, f_s, hidden, horizon, modalities):
        """The length of `flat` that `init` makes for these sizes, counted
        without making it."""
        m = len(modalities)
        return (m * (f_t + f_s) * hidden + (m * hidden if m > 1 else 0)
                + 8 * hidden * hidden + 4 * hidden + (hidden + 1) * horizon)

    def grad(self):
        """The tensors' gradients, in key order, as one new vector shaped
        like `flat`, taken from the tensors so that the next backward starts
        from zero. A tensor without a gradient, or whose data no longer
        view `flat`, is a ValueError."""
        grads = []
        for name, t in self.tensors.items():
            if t.grad is None:
                raise ValueError(f"parameter {name} of shape {t.shape} has "
                                 "no gradient")
            if t.data.base is not self.flat:
                raise ValueError(f"parameter {name} of shape {t.shape} is "
                                 "no longer a view of the flat vector")
            grads.append(t.grad.ravel())
            t.grad = None
        return np.concatenate(grads)


def gcn_layer(rows, weight):
    """Graph convolution ReLU(Ã H W) at every input hour and modality at
    once, given the propagated rows Ã·H: constant (l, M, n, F) rows and an
    (M, F, H) weight give (l, M, n, H). One node; its backward returns only
    the weight's gradient, since the rows are data."""
    pre = rows @ weight.data

    def bwd(g):
        # the ReLU ran in place, and its output is positive where its
        # input was: no mask is kept. One product per hour over every
        # modality: no transposed copy of the rows
        dz = g * (pre > 0)
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


def _hours(block, count):
    """`count` hours that are all `block`: a zero-stride hour axis, so
    each hour overwrites the last and they hold one hour's memory."""
    return np.lib.stride_tricks.as_strided(
        block, (count,) + block.shape, (0,) + block.strides)


def lstm_step(x, params, at=None):
    """The LSTM over a window's l input hours from a zero state, all nodes
    at once. `x` holds each hour's (n, H) inputs, as (l, n, H) or as a
    single modality's (l, 1, n, H). Returns the last hour's hidden state
    (n, H), one node whose backward is backpropagation through time, and
    the last cell state as an array.

    With `at`, an (l, n) integer array, `x` is a grid of cells, (T, n_u,
    H) or (T, 1, n_u, H), shared by the rows, and row r's input at hour k
    is cell at[k, r] of its T * n_u cells (`dataio.gather_grid`): the
    input projection runs once per cell, and each row-hour takes its
    gates from its cell's, so a cell that several windows cover is
    projected once. Only a pass that records no graph takes a grid
    (ValueError otherwise): training keeps its per-window rows.

    The input projection x·W of every hour (or cell) is one product per
    gate, into a gate-major (4, l·n, H) array, and only h·U runs hour by
    hour; both multiply (4, H, H) views of the (H, 4H) weights' column
    blocks, so no weight is copied. Each hour's gate arithmetic runs on
    one contiguous (4, n, H) block: h·U is written into it, the hour's
    x·W slice (or, with a grid, its cells' gates, gathered by `np.take`)
    and the bias are added, and gates f, i, c̃ and o are its four (n, H)
    blocks. The bias is broadcast once per call into a (4, n, H) block,
    since adding a (4, 1, H) broadcast iterates H values at a time. A
    recorded pass keeps every hour's block, hour-major (l, 4, n, H), with
    each hour's states and tanh(c), for the backward; a pass that records
    no graph keeps one hour of each, which the next hour overwrites. The
    backward writes an hour's four gate gradients into a gate-major (4, n,
    H) block and copies it into the hour-major (l, n, 4H) d_pre, which the
    products dh, dx, dW and dU and the sum db read whole. Every
    elementwise op takes the operands of a column-block layout in the
    same order (x·W + h·U, then the bias: a grid's gates round as the
    rows' do) and the backward's products are the same; with H = 32 the
    forward's per-gate products also round as the (H, 4H) ones do, so in
    float64 h, c and the gradients equal a column-block LSTM's bit for
    bit. The buffers take the input's dtype."""
    t = params.tensors
    w, u, b = t["W_lstm"], t["U_lstm"], t["b_lstm"]
    hid = params.hidden
    xs = x.data.reshape(-1, hid)
    l, n = (x.shape[0], len(xs) // x.shape[0]) if at is None else at.shape
    dtype = xs.dtype

    def by_gate(a):
        """(H, 4H) → (4, H, H) view: gate j's columns at [j]."""
        return a.reshape(hid, 4, hid).transpose(1, 0, 2)

    recorded = any(p.requires_grad for p in (x, w, u, b))
    if recorded and at is not None:
        raise ValueError("only a pass that records no graph takes grid "
                         "positions")
    if at is not None and (at.min() < 0 or at.max() >= len(xs)):
        raise ValueError(f"grid positions must lie in [0, {len(xs)})")
    proj = np.matmul(xs, by_gate(w.data))  # (4, l·n or cells, H)
    # acts[k], hs[k], cs[k] and tanh_c[k]: hour k's activated gates f, i,
    # c̃, o, the state entering it and tanh of the state leaving it (i·c̃
    # first). A recorded pass keeps all l hours for its backward. A pass
    # that records no graph keeps one hour of each, as zero-stride views,
    # and takes them, the bias block and the grid's gather buffer as
    # slices of one allocation: glibc's malloc hands memory at the top of
    # its heap back to the system once more than twice the largest block
    # it has freed lies there, so as one block an evaluate chunk's buffers
    # stay mapped for the next chunk instead of being faulted in again.
    # One block would only raise malloc's thresholds for a training step.
    if recorded:
        acts = np.empty((l, 4, n, hid), dtype)
        hs, cs, tanh_c = (np.empty((k, n, hid), dtype)
                          for k in (l + 1, l + 1, l))
        bias = np.empty((4, n, hid), dtype)
    else:
        # the gates, h, c, tanh(c), the bias and a grid's gathered x·W
        one = np.empty((11 if at is None else 15, n, hid), dtype)
        acts = _hours(one[:4], l)
        hs, cs, tanh_c = (_hours(one[j], k)
                          for j, k in ((4, l + 1), (5, l + 1), (6, l)))
        bias, gathered = one[7:11], one[11:]
    np.copyto(bias, b.data.reshape(4, 1, hid))
    u_gates = by_gate(u.data)
    hs[0] = cs[0] = 0.0
    # a gate under about -709 overflows exp to inf, and 1 / inf is its
    # exact value 0
    with np.errstate(over="ignore"):
        for k in range(l):
            # the positions are checked, and mode "raise" would copy the
            # gathered gates once more
            x_k = (proj[:, k * n:(k + 1) * n] if at is None else
                   np.take(proj, at[k], axis=1, out=gathered, mode="clip"))
            gates = acts[k]
            if k:
                np.matmul(hs[k], u_gates, out=gates)
                gates += x_k
                gates += bias
            else:
                np.add(x_k, bias, out=gates)
            _sigmoid(gates[:2])
            f, i, c_tilde, o = gates
            np.tanh(c_tilde, out=c_tilde)
            _sigmoid(o)
            np.multiply(f, cs[k], out=cs[k + 1])
            cs[k + 1] += np.multiply(i, c_tilde, out=tanh_c[k])
            np.tanh(cs[k + 1], out=tanh_c[k])
            np.multiply(o, tanh_c[k], out=hs[k + 1])

    def bwd(g):
        # one hour's d_pre, gate-major, and every hour's, hour-major
        d_gates = np.empty((4, n, hid), dtype)
        d_pre = np.empty((l, n, 4 * hid), dtype)
        dc = np.zeros((n, hid), dtype)
        dh, dh_next = g, np.empty((n, hid), dtype)
        s, s2 = np.empty((2, n, hid), dtype)

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
            f, i, c_tilde, o = acts[k]
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
    # a stack of one-row products, not one (n, H) product, whose float32
    # rounding BLAS picks by the row count: every row is the same call, so
    # a window's prediction does not depend on its batch. Each output sums
    # its H terms in float64 and is rounded once.
    out = np.matmul(h.data[:, None, :].astype(np.float64), w.data)[:, 0]
    return Tensor.node(out.astype(h.data.dtype) + b.data, (h, w, b), bwd)


def forward(rows, params, mask=None, at=None):
    """Full network pass over a batch of windows as one disjoint-union graph.

    `rows` are the batch's (l, M, N, F) input rows for the parameters'
    modalities, N the predicted nodes of all its windows, as
    `dataio.gather_inputs` reads them: per hour and modality, the rows of
    Ã·[temporal ‖ spatial], or the unpropagated rows for the "identity"
    modality. A GCN acts on a disjoint union block by block, so stacking
    the windows' rows equals running them one at a time. GCN, attention
    and input projection do not depend on the recurrence, so each runs
    over all l hours at once: the batch is one `gcn_layer` node over every
    hour and modality, one `attention_fuse` node (skipped with a single
    modality) and one `lstm_step` node, whose loop over the hours holds
    only h·U, then the head. The output has one row per predicted node of
    the batch, in row order. `mask` is the RL agent's (F,) 0/1 feature
    mask; it scales columns, so it applies to the propagated rows, in
    their dtype and in place. None means all features active.

    With `at`, `rows` are a (T, M, n_u, F) grid of (hour, detector) cells
    and `at` the (l, N) positions of each row-hour's cell in it
    (`dataio.gather_grid`): GCN and attention run once per cell, as
    neither mixes hours, and `lstm_step` takes each row-hour's gates from
    its cell's input projection. Overlapping windows cover the same cells,
    so this is less work for the same bits.
    Returns the predictions and the attention weights α, an (l, N, M)
    array, or None with a single modality.
    """
    if rows.shape[-1] != params.f_t + params.f_s:
        raise ValueError("feature registry does not match parameters")
    if mask is not None:
        # x·1 and x·0 take the same bits in the rows' dtype as in the
        # mask's
        rows *= np.asarray(mask, rows.dtype)

    z = gcn_layer(rows, params.tensors["W_gcn"])
    alphas = None
    if len(params.modalities) > 1:
        z, alphas = attention_fuse(z, params.tensors["w_att"])
    h, _ = lstm_step(z, params, at=at)
    if at is not None and alphas is not None:  # each row-hour's cell's
        alphas = alphas.reshape(-1, alphas.shape[-1])[at]
    return predict_head(h, params), alphas


def mse_loss(predicted, targets):
    """Mean over windows of each window's mean squared error over nodes and
    horizons (normalized units), given each window's (n_k, p) targets in
    batch order: a squared error of window k weighs 1/(B·n_k·p), with B
    windows. One node over `predicted`. The error and the loss are
    float64, against the float64 targets; the gradient takes the
    prediction's dtype."""
    counts = [len(t) for t in targets]
    targets = np.concatenate(targets)
    weights = np.repeat([1.0 / (len(counts) * k * targets.shape[1])
                         for k in counts], counts)[:, None]
    diff = predicted.data - targets

    def bwd(g):
        d = g * (weights * diff)
        return ((d + d).astype(predicted.data.dtype, copy=False),)
    return Tensor.node((diff * diff * weights).sum(), (predicted,), bwd)
