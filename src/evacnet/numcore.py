"""Minimal dense-tensor autograd core with an Adam optimizer.

Reverse-mode differentiation over a dynamic graph of numpy arrays; the
graph is rebuilt on every forward pass, so shapes may change between
passes (node counts in the traffic graph do). Everything is float64.
"""

from __future__ import annotations

import numpy as np


def _as_array(x):
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad, shape):
    """Sum `grad` down to `shape` (reverse of numpy broadcasting)."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn",
                 "_backward_done")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        self._backward_done = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None
        self._backward_done = False

    def item(self):
        return float(self.data)

    # ---- graph construction ----

    @staticmethod
    def _make(data, parents, backward_fn):
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")
        if self._backward_done:
            raise RuntimeError("backward() already ran on this tensor; "
                               "rebuild the graph or zero_grad() first")
        self._backward_done = True

        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads = {id(self): np.ones_like(self.data)}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None or node._backward_fn is None:
                if g is not None and node._backward_fn is None:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            for parent, pg in zip(node._parents, node._backward_fn(g)):
                if not parent.requires_grad or pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg
        # leaves whose gradient was never produced keep grad None (treated as 0)

    # ---- arithmetic ----

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other

        def bwd(g):
            return (_unbroadcast(g, a.data.shape), _unbroadcast(g, b.data.shape))
        return Tensor._make(a.data + b.data, (a, b), bwd)

    __radd__ = __add__

    def __neg__(self):
        a = self
        return Tensor._make(-a.data, (a,), lambda g: (-g,))

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other

        def bwd(g):
            return (_unbroadcast(g * b.data, a.data.shape),
                    _unbroadcast(g * a.data, b.data.shape))
        return Tensor._make(a.data * b.data, (a, b), bwd)

    __rmul__ = __mul__

    # ---- shaping ----

    def __getitem__(self, index):
        """Basic slicing only (ints and slices): no element is selected
        twice, so the gradient is `g` scattered into zeros."""
        a = self

        def bwd(g):
            full = np.zeros_like(a.data)
            full[index] = g
            return (full,)
        return Tensor._make(a.data[index], (a,), bwd)

    def reshape(self, *shape):
        a = self
        old = a.data.shape
        return Tensor._make(a.data.reshape(shape), (a,),
                            lambda g: (g.reshape(old),))

    def sum(self, axis=None, keepdims=False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return Tensor._make(out, (a,), bwd)

    def mean(self, axis=None, keepdims=False):
        a = self
        n = a.data.size if axis is None else a.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)


def matmul(a, b):
    """Matrix product with the usual gradients; supports stacked (>2-d) operands."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    if a.data.ndim < 1 or b.data.ndim < 1:
        raise ValueError("matmul requires at least 1-d operands")
    if a.data.shape[-1] != b.data.shape[-2 if b.data.ndim > 1 else 0]:
        raise ValueError(f"matmul inner dimensions disagree: "
                         f"{a.data.shape} x {b.data.shape}")
    out = a.data @ b.data

    def bwd(g):
        if b.data.ndim == 1:
            ga = np.outer(g, b.data) if a.data.ndim == 2 else g * b.data
            gb = a.data.T @ g if a.data.ndim == 2 else a.data * g
            return (_unbroadcast(np.asarray(ga), a.data.shape),
                    _unbroadcast(np.asarray(gb), b.data.shape))
        ga = g @ np.swapaxes(b.data, -1, -2)
        gb = np.swapaxes(a.data, -1, -2) @ g
        return (_unbroadcast(ga, a.data.shape), _unbroadcast(gb, b.data.shape))
    return Tensor._make(out, (a, b), bwd)


def relu(x):
    x = x if isinstance(x, Tensor) else Tensor(x)
    mask = x.data > 0
    return Tensor._make(np.where(mask, x.data, 0.0), (x,),
                        lambda g: (g * mask,))


def sigmoid(x):
    x = x if isinstance(x, Tensor) else Tensor(x)
    s = 1.0 / (1.0 + np.exp(-x.data))
    return Tensor._make(s, (x,), lambda g: (g * s * (1.0 - s),))


def tanh(x):
    x = x if isinstance(x, Tensor) else Tensor(x)
    t = np.tanh(x.data)
    return Tensor._make(t, (x,), lambda g: (g * (1.0 - t * t),))


def softmax(x, axis=-1):
    x = x if isinstance(x, Tensor) else Tensor(x)
    z = x.data - x.data.max(axis=axis, keepdims=True)
    e = np.exp(z)
    s = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        dot = (g * s).sum(axis=axis, keepdims=True)
        return (s * (g - dot),)
    return Tensor._make(s, (x,), bwd)


def stack(tensors, axis=0):
    tensors = [t if isinstance(t, Tensor) else Tensor(t) for t in tensors]

    def bwd(g):
        return tuple(np.moveaxis(g, axis, 0))
    return Tensor._make(np.stack([t.data for t in tensors], axis=axis),
                        tuple(tensors), bwd)


def zeros(*shape, requires_grad=False):
    return Tensor(np.zeros(shape), requires_grad=requires_grad)


# ---- optimization ----

class Adam:
    """Bias-corrected Adam over a list of parameter Tensors, updated in place."""

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.params = list(params)
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def step(self):
        self.step_count += 1
        t = self.step_count
        for i, p in enumerate(self.params):
            g = p.grad
            if g is None:
                continue
            if g.shape != p.data.shape:
                raise ValueError("gradient/parameter shape mismatch")
            self.m[i] = self.beta1 * self.m[i] + (1 - self.beta1) * g
            self.v[i] = self.beta2 * self.v[i] + (1 - self.beta2) * g * g
            m_hat = self.m[i] / (1 - self.beta1 ** t)
            v_hat = self.v[i] / (1 - self.beta2 ** t)
            p.data -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)

    def zero_grad(self):
        for p in self.params:
            p.zero_grad()


def finite_diff_check(f, params, h=1e-6):
    """Max relative error between backward() gradients and central differences.

    `f` must return a scalar Tensor built from `params` (each with
    requires_grad=True). Mutates param data transiently, restores it.
    """
    for p in params:
        p.zero_grad()
    loss = f()
    loss.backward()
    analytic = [np.zeros_like(p.data) if p.grad is None else p.grad.copy()
                for p in params]

    max_rel = 0.0
    for p, ag in zip(params, analytic):
        flat = p.data.reshape(-1)
        num = np.zeros_like(flat)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + h
            fp = f().item()
            flat[k] = orig - h
            fm = f().item()
            flat[k] = orig
            num[k] = (fp - fm) / (2 * h)
        num = num.reshape(p.data.shape)
        # near-zero entries carry only central-difference roundoff
        # (~|f|*eps/h), so normalize by the tensor's gradient scale
        # instead of comparing tiny elements pointwise
        scale = max(np.abs(ag).max(), np.abs(num).max(), 1e-8)
        denom = np.maximum(np.abs(ag) + np.abs(num), scale)
        rel = np.abs(ag - num) / denom
        max_rel = max(max_rel, float(rel.max()))
    return max_rel
