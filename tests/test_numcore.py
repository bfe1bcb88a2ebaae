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
    p = Tensor(np.array([0.5]), requires_grad=True)
    nc.flatten([p])
    opt = nc.Adam([p], lr=1e-3)
    p.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(p.data, 0.5 - 1e-3 / (1 + 1e-8), rtol=1e-12)


def test_adam_zero_grad_identity():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    nc.flatten([p])
    opt = nc.Adam([p])
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(7)
        p = Tensor(rng.normal(size=(3,)), requires_grad=True)
        nc.flatten([p])
        opt = nc.Adam([p], lr=0.01)
        for _ in range(20):
            p.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


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
    from adam_reference import Adam as ReferenceAdam

    rng = np.random.default_rng(11)
    init = [rng.normal(size=s) for s in shapes]
    flat_params = [Tensor(a.copy(), requires_grad=True) for a in init]
    flat = nc.flatten(flat_params)
    ref_params = [Tensor(a.copy(), requires_grad=True) for a in init]
    opt, ref = nc.Adam(flat_params, lr=5e-3), ReferenceAdam(ref_params,
                                                            lr=5e-3)
    for _ in range(50):
        for p, q in zip(flat_params, ref_params):
            p.grad = _rough_gradient(rng, p.shape)
            q.grad = p.grad.copy()
        opt.step()
        ref.step()
    for p, q in zip(flat_params, ref_params):
        assert np.shares_memory(p.data, flat)
        np.testing.assert_array_equal(p.data, q.data)
        # -0.0 == 0.0 above; the sign bits must agree too
        np.testing.assert_array_equal(np.signbit(p.data), np.signbit(q.data))


def test_adam_missing_gradient_rejected():
    params = [Tensor(np.ones((2, 3)), requires_grad=True),
              Tensor(np.ones(4), requires_grad=True)]
    flat = nc.flatten(params)
    opt = nc.Adam(params)
    params[0].grad = np.ones((2, 3))
    with pytest.raises(ValueError, match=r"parameter 1 of shape \(4,\)"):
        opt.step()
    np.testing.assert_array_equal(flat, 1.0)  # nothing was updated
    assert opt.step_count == 0


def test_adam_rejects_parameters_off_the_flat_vector():
    p = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="flat vector"):
        nc.Adam([p])
    q = Tensor(np.ones(2), requires_grad=True)
    nc.flatten([p, q])
    with pytest.raises(ValueError, match="flat vector"):
        nc.Adam([q, p])  # not in the vector's order
    opt = nc.Adam([p, q])
    q.data = np.zeros(2)  # rebound: an update would not reach it
    p.grad, q.grad = np.ones(3), np.ones(2)
    with pytest.raises(ValueError, match=r"parameter 1 of shape \(2,\) is "
                                         "no longer a view"):
        opt.step()


def test_flatten_makes_views_of_one_vector():
    a = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True)
    b = Tensor(np.array([7.0]), requires_grad=True)
    flat = nc.flatten([a, b])
    np.testing.assert_array_equal(flat, [0, 1, 2, 3, 4, 5, 7])
    assert a.shape == (2, 3) and b.shape == (1,)
    flat += 1.0
    np.testing.assert_array_equal(a.data, [[1, 2, 3], [4, 5, 6]])
    np.testing.assert_array_equal(b.data, [8.0])
