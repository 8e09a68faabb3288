"""Least-squares baseline: closed forms and a normal-equations oracle."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpforecast.baseline import LinearModel, fit_linear, predict_linear, predict_linear_batch
from kpforecast.errors import DimensionMismatch, NonFiniteValue
from kpforecast.rng import PortableRng

from conftest import make_dataset


def test_recovers_exact_line():
    model = fit_linear(make_dataset([[1.0], [2.0], [3.0]], [2.0, 4.0, 6.0]))
    assert abs(model.intercept) < 1e-12
    assert abs(model.coefficients[0] - 2.0) < 1e-12
    assert abs(predict_linear(model, np.array([10.0])) - 20.0) < 1e-10


def test_constant_target_gives_flat_model():
    model = fit_linear(make_dataset([[1.0], [5.0], [9.0]], [4.0, 4.0, 4.0]))
    assert abs(model.intercept - 4.0) < 1e-12
    assert abs(model.coefficients[0]) < 1e-12


def test_matches_normal_equations_oracle():
    # independent route: solve (A^T A) beta = A^T y outright
    rng = PortableRng(31)
    for trial in range(20):
        n = 12 + trial
        p = 1 + trial % 5
        X = np.array([[rng.random() * 4 - 2 for _ in range(p)] for _ in range(n)])
        y = np.array([rng.random() * 9 for _ in range(n)])
        model = fit_linear(make_dataset(X, y))
        A = np.hstack([np.ones((n, 1)), X])
        beta = np.linalg.solve(A.T @ A, A.T @ y)
        assert abs(model.intercept - beta[0]) < 1e-8, f"trial {trial}"
        assert np.allclose(model.coefficients, beta[1:], atol=1e-8), f"trial {trial}"


def test_fit_is_idempotent_on_its_own_predictions():
    rng = PortableRng(5)
    X = np.array([[rng.random() for _ in range(3)] for _ in range(20)])
    y = np.array([rng.random() for _ in range(20)])
    first = fit_linear(make_dataset(X, y))
    fitted = np.clip(predict_linear_batch(first, X), 0.0, 9.0)
    second = fit_linear(make_dataset(X, fitted))
    refit = predict_linear_batch(second, X)
    assert np.allclose(refit, fitted, atol=1e-10)


def test_duplicate_columns_get_minimum_norm_solution():
    # rank-deficient design must not blow up; lstsq splits the weight evenly
    X = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0], [4.0, 4.0]])
    model = fit_linear(make_dataset(X, [2.0, 4.0, 6.0, 8.0]))
    predicted = predict_linear_batch(model, X)
    assert np.allclose(predicted, [2.0, 4.0, 6.0, 8.0], atol=1e-10)
    assert abs(model.coefficients[0] - model.coefficients[1]) < 1e-10


def test_batch_and_single_prediction_agree():
    rng = PortableRng(8)
    X = np.array([[rng.random() for _ in range(4)] for _ in range(15)])
    y = np.array([rng.random() for _ in range(15)])
    model = fit_linear(make_dataset(X, y))
    batch = predict_linear_batch(model, X)
    singles = [predict_linear(model, X[i]) for i in range(15)]
    # matrix and per-row products may take different BLAS paths: tight
    # tolerance rather than bitwise equality
    assert np.allclose(batch, singles, rtol=0.0, atol=1e-12)


def test_prediction_input_validation():
    model = fit_linear(make_dataset([[1.0, 2.0]], [3.0]))
    with pytest.raises(DimensionMismatch):
        predict_linear(model, np.zeros(3))
    with pytest.raises(DimensionMismatch):
        predict_linear_batch(model, np.zeros(2))  # 1-D where 2-D expected
    with pytest.raises(NonFiniteValue):
        predict_linear(model, np.array([1.0, np.inf]))


@given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_batch_prediction_refuses_a_non_finite_value_in_any_cell(data, bad):
    n, p = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    model = LinearModel(1.0, np.ones(p), tuple(f"x{i}" for i in range(p)))
    rows = np.zeros((n, p))
    rows[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, p - 1))] = bad
    with pytest.raises(NonFiniteValue, match="must be finite"):
        predict_linear_batch(model, rows)
