"""Ordinary-least-squares baseline the forest is compared against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, EmptyDataset
from .fusion import FusedDataset, _row_matrix

__all__ = ["LinearModel", "fit_linear", "predict_linear", "predict_linear_batch"]


@dataclass(frozen=True, eq=False)
class LinearModel:
    intercept: float
    coefficients: np.ndarray
    feature_names: tuple[str, ...]

    def __post_init__(self) -> None:
        coef = np.asarray(self.coefficients, dtype=np.float64)
        if coef.shape != (len(self.feature_names),):
            raise ValueError("one coefficient per feature name required")
        coef.setflags(write=False)
        object.__setattr__(self, "coefficients", coef)


def fit_linear(data: FusedDataset) -> LinearModel:
    """Least-squares fit of ``target ~ intercept + rows``.

    Uses a rank-revealing SVD solve, so rank-deficient designs get the
    minimum-norm solution instead of an error.
    """
    if data.n_rows == 0:
        raise EmptyDataset("cannot fit a linear model on zero rows")
    design = np.hstack([np.ones((data.n_rows, 1)), data.rows])
    solution, *_ = np.linalg.lstsq(design, data.targets, rcond=None)
    return LinearModel(
        intercept=float(solution[0]),
        coefficients=solution[1:],
        feature_names=data.feature_names,
    )


def predict_linear(model: LinearModel, row: np.ndarray) -> float:
    row = np.asarray(row, dtype=np.float64)
    if row.ndim != 1:
        raise DimensionMismatch(f"expected a 1-D row, got {row.ndim}-D")
    _row_matrix(row[None, :], len(model.feature_names))
    return float(model.intercept + row @ model.coefficients)


def predict_linear_batch(model: LinearModel, rows: np.ndarray) -> np.ndarray:
    rows = _row_matrix(rows, len(model.feature_names))
    return model.intercept + rows @ model.coefficients
