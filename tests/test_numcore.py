import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import numcore as nc
from evacnet.numcore import Tensor


def test_matmul_identity():
    m = np.arange(9.0).reshape(3, 3)
    out = nc.matmul(Tensor(np.eye(3)), Tensor(m))
    np.testing.assert_array_equal(out.data, m)


def test_matmul_hand_case():
    out = nc.matmul(Tensor([[1.0, 2.0], [3.0, 4.0]]), Tensor([[1.0], [1.0]]))
    np.testing.assert_array_equal(out.data, [[3.0], [7.0]])


def test_matmul_shape_error():
    with pytest.raises(ValueError):
        nc.matmul(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 2))))


def test_relu_values():
    out = nc.relu(Tensor([-2.0, 0.0, 3.0]))
    np.testing.assert_array_equal(out.data, [0.0, 0.0, 3.0])


def test_softmax_symmetry():
    out = nc.softmax(Tensor([0.0, 0.0]))
    np.testing.assert_allclose(out.data, [0.5, 0.5])


def test_softmax_closed_form():
    out = nc.softmax(Tensor([np.log(2.0), 0.0]))
    np.testing.assert_allclose(out.data, [2 / 3, 1 / 3], rtol=1e-12)


@given(st.lists(st.floats(-30, 30), min_size=1, max_size=8))
def test_softmax_normalized(xs):
    out = nc.softmax(Tensor(xs))
    assert np.all(out.data >= 0)
    assert abs(out.data.sum() - 1.0) < 1e-12


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
    h = Tensor(rng.normal(size=(3,)))

    def f():
        return nc.relu(nc.matmul(W, h)).sum()

    assert nc.finite_diff_check(f, [W]) < 1e-5


def test_finite_diff_quadratic_form():
    rng = np.random.default_rng(1)
    A = rng.normal(size=(3, 3))
    x = Tensor(rng.normal(size=(3,)), requires_grad=True)

    def f():
        return nc.matmul(x, nc.matmul(Tensor(A), x))

    assert nc.finite_diff_check(f, [x]) < 1e-9


def test_finite_diff_constant():
    x = Tensor([1.0, 2.0], requires_grad=True)

    def f():
        return Tensor(5.0) + (x * 0.0).sum()

    assert nc.finite_diff_check(f, [x]) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_backward_matches_finite_differences(seed):
    rng = np.random.default_rng(seed)
    W = Tensor(rng.normal(size=(3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(3,)), requires_grad=True)
    x = Tensor(rng.normal(size=(4,)))

    def f():
        y = nc.tanh(nc.matmul(W, x) + b)
        return (nc.sigmoid(y) * y).sum()

    assert nc.finite_diff_check(f, [W, b]) < 1e-4


def test_adam_first_step_closed_form():
    # unit gradient at step 1: m_hat = v_hat = 1, delta = -lr / (1 + eps)
    p = Tensor(np.array([0.5]), requires_grad=True)
    opt = nc.Adam([p], lr=1e-3)
    p.grad = np.array([1.0])
    opt.step()
    np.testing.assert_allclose(p.data, 0.5 - 1e-3 / (1 + 1e-8), rtol=1e-12)


def test_adam_zero_grad_identity():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    opt = nc.Adam([p])
    p.grad = np.zeros(2)
    before = p.data.copy()
    opt.step()
    np.testing.assert_array_equal(p.data, before)


def test_adam_deterministic():
    def run():
        rng = np.random.default_rng(7)
        p = Tensor(rng.normal(size=(3,)), requires_grad=True)
        opt = nc.Adam([p], lr=0.01)
        for _ in range(20):
            p.zero_grad()
            loss = (p * p).sum()
            loss.backward()
            opt.step()
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_stack_gradients():
    a = Tensor([1.0, 2.0], requires_grad=True)
    b = Tensor([3.0, 4.0], requires_grad=True)
    s = nc.stack([a, b], axis=1)  # (2, 2): a is column 0, b column 1
    (s * Tensor([[1.0, 2.0], [3.0, 4.0]])).sum().backward()
    np.testing.assert_allclose(a.grad, [1.0, 3.0])
    np.testing.assert_allclose(b.grad, [2.0, 4.0])


def test_getitem_gradient():
    rng = np.random.default_rng(0)
    x = Tensor(rng.normal(size=(3, 8)), requires_grad=True)
    weights = [Tensor(rng.normal(size=(3, 2))), Tensor(rng.normal(size=3))]

    def f():
        # overlapping and disjoint blocks, and an int index
        return ((x[:, 2:4] * weights[0]).sum() + (x[:, 3:5] * x[:, 6:]).sum()
                + (x[1] * x[2]).sum() * 0.5 + (x[:, 0] * weights[1]).sum())

    assert nc.finite_diff_check(f, [x]) < 1e-6
