import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evacnet import metrics


def naive_metrics(actual, predicted):
    """Brute-force twin: plain loops, no vectorization."""
    n = len(actual)
    sq = sum((a - p) ** 2 for a, p in zip(actual, predicted))
    rmse = math.sqrt(sq / n)
    mae = sum(abs(a - p) for a, p in zip(actual, predicted)) / n
    terms = [abs((a - p) / a) for a, p in zip(actual, predicted) if a != 0]
    mape = 100.0 * sum(terms) / len(terms) if terms else None
    mean_a = sum(actual) / n
    ss_tot = sum((a - mean_a) ** 2 for a in actual)
    r2 = None if ss_tot == 0 else 1.0 - sq / ss_tot
    return rmse, mae, mape, r2


def test_perfect_prediction():
    r = metrics.compute([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert r.rmse == 0 and r.mae == 0 and r.mape == 0 and r.r2 == 1


def test_worked_example():
    r = metrics.compute([100.0, 200.0, 300.0], [110.0, 190.0, 310.0])
    assert r.rmse == pytest.approx(10.0)
    assert r.mae == pytest.approx(10.0)
    assert r.mape == pytest.approx(6.111, abs=5e-4)
    assert r.r2 == pytest.approx(0.985)


def test_mean_predictor_r2_zero():
    actual = [1.0, 2.0, 3.0, 4.0]
    r = metrics.compute(actual, [2.5] * 4)
    assert r.r2 == pytest.approx(0.0)


def test_empty_input():
    with pytest.raises(ValueError):
        metrics.compute([], [])


def test_constant_actuals_r2_undefined():
    r = metrics.compute([5.0, 5.0], [4.0, 6.0])
    assert r.r2 is None


def test_rounding_level_spread_r2_undefined():
    # one ulp of spread used to give R² of about -1e30
    r = metrics.compute([1.0, 1.0000000000000002], [0.5, 1.5])
    assert r.r2 is None


def test_zero_actuals_skipped_in_mape():
    r = metrics.compute([0.0, 100.0], [10.0, 110.0])
    assert r.mape == pytest.approx(10.0)
    assert r.mape_skipped == 1


def test_near_zero_actual_skipped_in_mape_without_overflow():
    # 1e-310 used to overflow the MAPE division to inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        r = metrics.compute([1e-310, 5.0], [1.0, 5.0])
    assert r.mape == 0.0
    assert r.mape_skipped == 1


def test_all_zero_actuals_mape_undefined():
    r = metrics.compute([0.0, 0.0], [1.0, 1.0])
    assert r.mape is None
    assert r.mape_skipped == 2


def test_oracle_agreement_1000_random_vectors():
    rng = np.random.default_rng(42)
    for _ in range(1000):
        n = int(rng.integers(1, 20))
        actual = rng.uniform(1.0, 1000.0, size=n)
        predicted = actual + rng.normal(0, 50, size=n)
        r = metrics.compute(actual, predicted)
        rmse, mae, mape, r2 = naive_metrics(list(actual), list(predicted))
        assert abs(r.rmse - rmse) < 1e-9
        assert abs(r.mae - mae) < 1e-9
        assert abs(r.mape - mape) < 1e-9
        if r2 is None:
            assert r.r2 is None
        else:
            assert abs(r.r2 - r2) < 1e-9


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(1, 1e4), min_size=2, max_size=30),
       st.floats(0.1, 100))
def test_scale_covariance(actual, k):
    rng = np.random.default_rng(0)
    actual = np.asarray(actual)
    predicted = actual + rng.normal(0, 1, size=len(actual))
    r1 = metrics.compute(actual, predicted)
    r2 = metrics.compute(k * actual, k * predicted)
    assert r2.rmse == pytest.approx(k * r1.rmse, rel=1e-9)
    assert r2.mae == pytest.approx(k * r1.mae, rel=1e-9)
    assert r2.mape == pytest.approx(r1.mape, rel=1e-9)
    if r1.r2 is not None:
        assert r2.r2 == pytest.approx(r1.r2, rel=1e-6, abs=1e-9)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30),
       st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=30))
def test_rmse_at_least_mae(a, b):
    n = min(len(a), len(b))
    r = metrics.compute(a[:n], b[:n])
    assert r.rmse >= r.mae - 1e-12
