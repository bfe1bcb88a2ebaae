"""Reference oracle for `dmf.lstm_step`: the column-block implementation
it replaced, kept verbatim so the gate-major version can be checked
against it bit for bit. Only the imports differ."""

import numpy as np

from evacnet.numcore import Tensor


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
