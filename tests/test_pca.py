"""Principal components: closed forms and an eigendecomposition oracle."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kpforecast.errors import (
    DegenerateData,
    DimensionMismatch,
    EmptyDataset,
    KOutOfRange,
    NonFiniteValue,
)
from kpforecast.pca import fit_pca, project
from kpforecast.rng import PortableRng

from conftest import make_dataset


def test_collinear_cloud_has_one_diagonal_direction():
    data = make_dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [1.0, 2.0, 3.0])
    model = fit_pca(data, 1)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    assert np.allclose(model.directions[0], [inv_sqrt2, inv_sqrt2], atol=1e-12)
    assert model.explained_variance_ratio[0] == pytest.approx(1.0, abs=1e-12)
    # variance of projections: coordinates are (-sqrt2, 0, sqrt2) -> var 2
    assert model.explained_variance[0] == pytest.approx(2.0, abs=1e-12)
    coords = project(model, np.array([[2.0, 2.0]]))
    assert coords[0, 0] == pytest.approx(math.sqrt(2.0), abs=1e-12)


def test_isotropic_square_splits_variance_evenly():
    data = make_dataset(
        [[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]],
        [1.0, 1.0, 1.0, 1.0],
    )
    model = fit_pca(data, 2)
    assert np.allclose(model.explained_variance_ratio, [0.5, 0.5], atol=1e-12)


def _random_matrix(seed, n, p):
    rng = PortableRng(seed)
    return np.array([[rng.random() * 6 - 3 for _ in range(p)] for _ in range(n)])


def test_matches_eigendecomposition_oracle():
    # independent route: eigendecompose the covariance matrix outright
    for seed in range(8):
        n, p = 30 + seed, 2 + seed % 4
        X = _random_matrix(seed, n, p)
        k = 1 + seed % p if p > 1 else 1
        model = fit_pca(make_dataset(X, np.ones(n)), k)
        centred = X - X.mean(axis=0)
        cov = centred.T @ centred / (n - 1)
        eigvals, eigvecs = np.linalg.eigh(cov)
        order = np.argsort(eigvals)[::-1]
        eigvals, eigvecs = eigvals[order], eigvecs[:, order]
        assert np.allclose(model.explained_variance, eigvals[:k], atol=1e-9)
        ratio = eigvals / eigvals.sum()
        assert np.allclose(model.explained_variance_ratio, ratio[:k], atol=1e-9)
        for i in range(k):  # directions match up to sign
            dot = abs(float(model.directions[i] @ eigvecs[:, i]))
            assert dot == pytest.approx(1.0, abs=1e-9), f"seed {seed} comp {i}"


def test_directions_are_orthonormal():
    X = _random_matrix(3, 40, 5)
    model = fit_pca(make_dataset(X, np.ones(40)), 3)
    gram = model.directions @ model.directions.T
    assert np.allclose(gram, np.eye(3), atol=1e-9)


def test_projection_variance_equals_eigenvalue():
    X = _random_matrix(4, 50, 4)
    data = make_dataset(X, np.ones(50))
    model = fit_pca(data, 2)
    coords = project(model, data.rows)
    for i in range(2):
        var = coords[:, i].var(ddof=1)
        assert var == pytest.approx(model.explained_variance[i], rel=1e-9)
    # components are uncorrelated
    assert np.cov(coords.T, ddof=1)[0, 1] == pytest.approx(0.0, abs=1e-9)


def test_sign_convention_largest_entry_positive():
    for seed in range(6):
        X = _random_matrix(seed + 100, 25, 3)
        model = fit_pca(make_dataset(X, np.ones(25)), 3)
        for row in model.directions:
            assert row[np.argmax(np.abs(row))] > 0.0


def test_validation_errors():
    data = make_dataset([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]], [1.0, 1.0, 1.0])
    with pytest.raises(KOutOfRange):
        fit_pca(data, 0)
    with pytest.raises(KOutOfRange):
        fit_pca(data, 3)  # k > min(n, p)
    with pytest.raises(DegenerateData, match="got 1"):
        fit_pca(make_dataset([[1.0]], [1.0]), 1)  # single row
    with pytest.raises(EmptyDataset, match="got none"):
        fit_pca(make_dataset(np.empty((0, 2)), np.empty(0)), 1)
    with pytest.raises(DegenerateData):
        fit_pca(make_dataset([[2.0, 2.0], [2.0, 2.0]], [1.0, 1.0]), 1)
    model = fit_pca(data, 1)
    with pytest.raises(DimensionMismatch):
        project(model, np.zeros((2, 3)))


@given(data=st.data(), bad=st.sampled_from([np.nan, np.inf, -np.inf]))
def test_projection_refuses_a_non_finite_value_in_any_cell(data, bad):
    n, p = data.draw(st.integers(1, 5)), data.draw(st.integers(2, 4))
    model = fit_pca(make_dataset(_random_matrix(3, p + 1, p), [1.0] * (p + 1)), 1)
    rows = np.zeros((n, p))
    rows[data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, p - 1))] = bad
    with pytest.raises(NonFiniteValue, match="must be finite"):
        project(model, rows)


def test_rows_whose_mean_or_variance_overflows_are_refused():
    with pytest.raises(NonFiniteValue, match="mean or total variance"):
        fit_pca(make_dataset([[1.5e308, 0.0], [1.5e308, 1.0], [1.0, 2.0]], [1.0] * 3), 1)
    # the mean is finite, but the squared deviations are not
    with pytest.raises(NonFiniteValue, match="mean or total variance"):
        fit_pca(make_dataset([[1e200, 0.0], [-1e200, 1.0]], [1.0] * 2), 1)


def test_projection_that_overflows_is_refused():
    data = make_dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], [1.0, 2.0, 3.0])
    model = fit_pca(data, 1)  # direction (1, 1) / sqrt(2)
    with pytest.raises(NonFiniteValue, match="coordinates must be finite"):
        project(model, np.array([[0.0, 0.0], [1.7e308, 1.7e308]]))
