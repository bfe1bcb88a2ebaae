"""One reverse-mode backward pass over fused ops, with an Adam optimizer
over a flat parameter vector.

Reverse-mode differentiation over a dynamic graph of numpy arrays; the
graph is rebuilt on every forward pass, so shapes may change between
passes (node counts in the traffic graph do). A backward consumes the
graph it runs over: each op node's parents and backward closure are
dropped as the pass reaches it, so the forward arrays an op saved for
its gradient live no longer than the backward, and a graph runs
backward once. The forecaster's ops (its cells, head and loss in `dmf`)
are defined where they are used and join the graph through
`Tensor.node`, each with its own hand-written backward. The only
generic ops left are `*` and `sum`, for tests that weight an op's
output into a scalar. An op computes in the dtype of its inputs: the
forecaster runs in float32, and the same ops given float64 arrays run
in float64 end to end. Data that are not floating point become float64.

A model's parameters are views of one contiguous vector (`flatten`).
`Adam` knows only that vector: `step` takes the model's gradient as one
vector of the same shape and updates the parameters as a whole, in
place. The RL agent builds no graph; its TD loss returns its flat
gradient itself.
"""

from __future__ import annotations

import numpy as np


def _as_array(x):
    """`x` as an array of its own floating dtype, or else of float64."""
    x = np.asarray(x)
    return x if x.dtype.kind == "f" else x.astype(np.float64)


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
                 "_consumed")

    def __init__(self, data, requires_grad=False):
        self.data = _as_array(data)
        self.requires_grad = requires_grad
        self.grad = None
        self._parents = ()
        self._backward_fn = None
        # an op's node whose backward closure a backward pass has dropped
        self._consumed = False

    @property
    def shape(self):
        return self.data.shape

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, requires_grad={self.requires_grad})"

    def zero_grad(self):
        self.grad = None

    def item(self):
        return float(self.data)

    # ---- graph construction ----

    @staticmethod
    def node(data, parents, backward_fn):
        """The result of an op: `backward_fn` maps its gradient to one
        gradient (or None) per parent. Parents and `backward_fn` are
        recorded only when some parent requires grad, so an op on
        constants keeps nothing alive for a backward pass."""
        out = Tensor(data)
        if any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward_fn = backward_fn
        return out

    def backward(self):
        """Accumulate d(self)/d(leaf) into .grad of every reachable leaf.

        The pass consumes the graph: it takes each op node's parents and
        backward closure off the node before running the closure, so the
        forward arrays that only the closure holds are freed as soon as
        their gradients are made, and the nodes themselves once passed.
        A second backward through any op node of a consumed graph is a
        RuntimeError."""
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar loss")

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
            if node._consumed:
                raise RuntimeError("backward() already ran through this "
                                   "graph; rebuild it")
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads = {id(self): np.ones_like(self.data)}
        while topo:
            node = topo.pop()
            g = grads.pop(id(node), None)
            parents, fn = node._parents, node._backward_fn
            if fn is None:
                if g is not None:
                    node.grad = g if node.grad is None else node.grad + g
                continue
            node._parents, node._backward_fn = (), None
            node._consumed = True
            if g is None:
                continue
            for parent, pg in zip(parents, fn(g)):
                if not parent.requires_grad or pg is None:
                    continue
                if id(parent) in grads:
                    grads[id(parent)] = grads[id(parent)] + pg
                else:
                    grads[id(parent)] = pg
        # leaves whose gradient was never produced keep grad None (treated as 0)

    # ---- arithmetic ----

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        a, b = self, other

        def bwd(g):
            return (_unbroadcast(g * b.data, a.data.shape),
                    _unbroadcast(g * a.data, b.data.shape))
        return Tensor.node(a.data * b.data, (a, b), bwd)

    # ---- reductions ----

    def sum(self, axis=None, keepdims=False):
        a = self
        out = a.data.sum(axis=axis, keepdims=keepdims)

        def bwd(g):
            g = np.asarray(g)
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, a.data.shape).copy(),)
        return Tensor.node(out, (a,), bwd)


def softmax(x, axis=-1):
    """Numerically stable softmax of an array along `axis`: the weights
    of a fused op, which differentiates through them itself."""
    e = np.exp(x - x.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


# ---- flat parameters and optimization ----

def flatten(arrays):
    """Copy the arrays' values, in order, into one new contiguous vector of
    their common dtype (float64 for arrays that are not floating point):
    float32 arrays give a float32 vector. Returns the vector and one view
    of it per array, shaped like that array; writing into the vector
    writes the views and back."""
    arrays = [_as_array(a) for a in arrays]
    flat = np.concatenate([a.ravel() for a in arrays])
    return flat, views(flat, [a.shape for a in arrays])


def views(flat, shapes):
    """Consecutive views of the vector `flat`, one per shape, in order."""
    out, start = [], 0
    for shape in shapes:
        stop = start + int(np.prod(shape))
        out.append(flat[start:stop].reshape(shape))
        start = stop
    return out


class Adam:
    """Bias-corrected Adam (Kingma and Ba) over one flat parameter vector,
    updated in place.

    `step(grad)` takes the model's gradient as one vector of the same
    shape and runs the update on whole vectors with in-place ufuncs: the
    moments `m` and `v` and two scratch vectors are made once, and `grad`
    is only read. Each entry gets the per-tensor rule's elementwise ops in
    its order, so the parameters equal a per-tensor Adam's bit for bit."""

    def __init__(self, flat, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8):
        self.flat = flat
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)
        # not one (2, n) block, which slowed a later evaluate (CHANGES.md)
        self._scratch = (np.empty_like(flat), np.empty_like(flat))

    def step(self, grad):
        if grad.shape != self.flat.shape:
            raise ValueError(f"gradient of shape {grad.shape} for a "
                             f"parameter vector of shape {self.flat.shape}")
        self.step_count += 1
        t = self.step_count
        g, m, v = grad, self.m, self.v
        a, b = self._scratch
        # m = beta1·m + (1 - beta1)·g
        m *= self.beta1
        m += np.multiply(1 - self.beta1, g, out=a)
        # v = beta2·v + (1 - beta2)·g·g
        v *= self.beta2
        np.multiply(1 - self.beta2, g, out=a)
        v += np.multiply(a, g, out=a)
        # p -= lr·m̂ / (√v̂ + eps), with b = √v̂ + eps
        np.divide(m, 1 - self.beta1 ** t, out=a)
        a *= self.lr
        np.divide(v, 1 - self.beta2 ** t, out=b)
        np.sqrt(b, out=b)
        b += self.eps
        a /= b
        self.flat -= a


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
