"""Float64 copies of the forecaster's parameters and input table, and of
the agent's Q-networks, for the tests whose exact-math bounds hold in
float64 (finite differences, sums compared at 1e-12). The ops take their
dtype from their inputs, so over these copies a forward and backward run
in float64 end to end."""

import copy
from dataclasses import replace

import numpy as np

from evacnet import numcore as nc
from evacnet.numcore import Tensor


def float64_params(params):
    """`params` over a float64 copy of `flat`, each tensor a view of it."""
    flat = params.flat.astype(np.float64)
    tensors = params.tensors
    views = nc.views(flat, [t.shape for t in tensors.values()])
    return replace(params, flat=flat, tensors={
        k: Tensor(v, requires_grad=t.requires_grad)
        for (k, t), v in zip(tensors.items(), views)})


def float64_windows(windows):
    """The windows over one float64 copy of their shared input table."""
    table = windows[0].table.astype(np.float64)
    return [replace(w, table=table) for w in windows]


def float64_qnetwork(net):
    """A copy of the `QNetwork` `net` over a float64 copy of its `flat`,
    each weight and bias a view of it."""
    out = copy.copy(net)
    out.flat = net.flat.astype(np.float64)
    views = nc.views(out.flat, [a.shape for a in net.weights + net.biases])
    k = len(net.weights)
    out.weights, out.biases = views[:k], views[k:]
    return out
