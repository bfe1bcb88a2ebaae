"""`numcore.Adam`'s flat API in front of the per-tensor reference
(`adam_reference`), so a test can run the two over the same gradients, or
swap the reference into training."""

from adam_reference import Adam as ReferenceAdam
from evacnet import numcore as nc
from evacnet.numcore import Tensor


class FlatReferenceAdam:
    """`Adam(flat, lr, ...)` and `step(grad)`, run by the reference over
    one Tensor per block of `shapes` (by default the whole vector), each a
    view of `flat`, so its in-place update writes `flat`."""

    def __init__(self, flat, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 shapes=None):
        self.flat = flat
        self.shapes = shapes or [flat.shape]
        self.params = [Tensor(v, requires_grad=True)
                       for v in nc.views(flat, self.shapes)]
        self.reference = ReferenceAdam(self.params, lr, beta1, beta2, eps)

    def step(self, grad):
        for p, g in zip(self.params, nc.views(grad, self.shapes)):
            p.grad = g
        self.reference.step()
