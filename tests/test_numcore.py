import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import numcore as nc
from evacnet.numcore import Tensor


def relu_affine(W, x, b):
    """ReLU(W·x + b) for constant x, one node with its backward by hand."""
    pre = W.data @ x + b.data
    active = pre > 0

    def bwd(g):
        dz = g * active
        return dz @ x.T, dz
    return Tensor.node(np.where(active, pre, 0.0), (W, b), bwd)


def test_softmax_symmetry():
    np.testing.assert_allclose(nc.softmax(np.array([0.0, 0.0])), [0.5, 0.5])


def test_softmax_closed_form():
    out = nc.softmax(np.array([np.log(2.0), 0.0]))
    np.testing.assert_allclose(out, [2 / 3, 1 / 3], rtol=1e-12)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_normalized(xs):
    out = nc.softmax(np.array(xs))
    assert np.all(out >= 0)
    assert abs(out.sum() - 1.0) < 1e-12


def test_backward_square():
    x = Tensor(3.0, requires_grad=True)
    (x * x).backward()
    np.testing.assert_allclose(x.grad, 6.0)


def test_backward_requires_scalar():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with pytest.raises(ValueError):
        (x * x).backward()


def test_repeated_backward_raises():
    x = Tensor(2.0, requires_grad=True)
    y = x * x
    y.backward()
    with pytest.raises(RuntimeError):
        y.backward()
    # zero_grad clears gradients only: the graph stays consumed
    x.zero_grad()
    y.zero_grad()
    with pytest.raises(RuntimeError):
        y.backward()
    assert x.grad is None


def test_backward_through_a_consumed_node_raises():
    # z's backward consumed y's node too: a backward from y, or from a new
    # node built on y, would find no path to x
    x = Tensor(2.0, requires_grad=True)
    y = x * x
    z = y * y
    z.backward()
    x.zero_grad()
    for root in (y, y * x):
        with pytest.raises(RuntimeError):
            root.backward()
    assert x.grad is None


def test_finite_diff_relu_matvec():
    rng = np.random.default_rng(0)
    W = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
    h = rng.normal(size=(3, 1))

    def f():
        return relu_affine(W, h, Tensor(np.zeros((4, 1)))).sum()

    assert nc.finite_diff_check(f, [W]) < 1e-5


def test_finite_diff_quadratic_form():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    x = Tensor(rng.normal(size=(3, 1)), requires_grad=True)

    def f():
        # x is a parent of both the product node and the product, so its
        # two gradients accumulate
        ax = Tensor.node(A @ x.data, (x,), lambda g: (A.T @ g,))
        return (x * ax).sum()  # xᵀ A x

    assert nc.finite_diff_check(f, [x]) < 1e-9


def test_finite_diff_constant():
    x = Tensor([1.0, 2.0], requires_grad=True)
    c = Tensor(5.0)

    def f():
        return (x * 0.0).sum() * c

    assert nc.finite_diff_check(f, [x]) < 1e-12
    assert c.grad is None  # a constant operand gets no gradient


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    W = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 1)), requires_grad=True)
    x = rng.normal(size=(4, 1))

    def f():
        # a diamond: y feeds two branches that meet in the last product,
        # and b enters both y and one branch
        y = relu_affine(W, x, b)
        return ((y * y) * 0.5).sum() * (y * b).sum()

    assert nc.finite_diff_check(f, [W, b]) < 1e-4


def test_adam_first_step_closed_form():
    # unit gradient at step 1: m_hat = v_hat = 1, delta = -lr / (1 + eps)
    flat = np.array([0.5])
    opt = nc.Adam(flat, lr=1e-3)
    opt.step(np.array([1.0]))
    np.testing.assert_allclose(flat, 0.5 - 1e-3 / (1 + 1e-8), rtol=1e-12)


def test_adam_zero_grad_identity():
    flat = np.array([1.0, -2.0])
    opt = nc.Adam(flat)
    opt.step(np.zeros(2))
    np.testing.assert_array_equal(flat, [1.0, -2.0])


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(7)
        flat = rng.normal(size=(3,))
        opt = nc.Adam(flat, lr=0.01)
        for _ in range(20):
            opt.step(2 * flat)  # the gradient of sum(p²)
        return flat

    np.testing.assert_array_equal(run(), run())


def test_adam_reads_the_gradient_only():
    flat, grad = np.ones(3), np.array([1.0, -2.0, 0.5])
    nc.Adam(flat).step(grad)
    np.testing.assert_array_equal(grad, [1.0, -2.0, 0.5])


# S1's rl_dmf forecaster (F = 24 + 8, H = 32, p = 6) and its agent's
# Q-network (32 features, 128 hidden), in their models' parameter order
FORECASTER_SHAPES = [(2, 32, 32), (2, 32), (32, 128), (32, 128), (128,),
                     (32, 6), (6,)]
AGENT_SHAPES = [(32, 128), (128, 128), (128, 32), (128,), (128,), (32,)]


def _rough_gradient(rng, shape):
    """Normal draws scaled by 1, 1e-8 or 1e8 entry by entry, a tenth of
    them exact zeros."""
    g = rng.normal(size=shape) * rng.choice([1.0, 1e-8, 1e8], size=shape)
    g[rng.random(shape) < 0.1] = 0.0
    return g


@pytest.mark.parametrize("shapes", [FORECASTER_SHAPES, AGENT_SHAPES],
                         ids=["forecaster", "agent"])
def test_adam_matches_per_tensor_reference(shapes):
    from adam_flat_adapter import FlatReferenceAdam

    rng = np.random.default_rng(11)
    flat, views = nc.flatten([rng.normal(size=s) for s in shapes])
    ref_flat = flat.copy()
    opt = nc.Adam(flat, lr=5e-3)
    ref = FlatReferenceAdam(ref_flat, lr=5e-3, shapes=shapes)
    for _ in range(50):
        grad, _ = nc.flatten([_rough_gradient(rng, s) for s in shapes])
        opt.step(grad)
        ref.step(grad)
    for v, q in zip(views, ref.params):
        assert np.shares_memory(v, flat) and np.shares_memory(q.data,
                                                              ref_flat)
        np.testing.assert_array_equal(v, q.data)
        # -0.0 == 0.0 above; the sign bits must agree too
        np.testing.assert_array_equal(np.signbit(v), np.signbit(q.data))


@pytest.mark.parametrize("shape", [(4,), (6,), (5, 1)])
def test_adam_rejects_a_gradient_of_another_shape(shape):
    rng = np.random.default_rng(3)
    flat = rng.normal(size=5)
    opt = nc.Adam(flat)
    opt.step(rng.normal(size=5))
    before = [a.copy() for a in (flat, opt.m, opt.v)]
    with pytest.raises(ValueError, match=r"gradient of shape"):
        opt.step(np.ones(shape))
    for a, b in zip((flat, opt.m, opt.v), before):
        np.testing.assert_array_equal(a, b)
    assert opt.step_count == 1


def test_flatten_makes_views_of_one_vector():
    arrays = [np.arange(6.0).reshape(2, 3), np.array([7.0])]
    flat, (a, b) = nc.flatten(arrays)
    np.testing.assert_array_equal(flat, [0, 1, 2, 3, 4, 5, 7])
    assert a.shape == (2, 3) and b.shape == (1,)
    assert not any(np.shares_memory(flat, x) for x in arrays)
    flat += 1.0
    np.testing.assert_array_equal(a, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_array_equal(b, [8.0])
    np.testing.assert_array_equal(nc.views(flat, [(2, 3), (1,)])[1], b)
