"""Ordinary-least-squares baseline the forest is compared against."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, NonFiniteValue
from .fusion import FusedDataset, _all_finite, _row_matrix

__all__ = ["LinearModel", "fit_linear", "predict_linear_batch"]


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

    Uses a rank-revealing SVD solve, so rank-deficient and ill-conditioned
    designs get the minimum-norm solution instead of an error.  Rows whose
    singular values overflow are refused: the solve would drop every
    direction but the overflowing one and return a degenerate model.
    """
    if data.n_rows == 0:
        raise EmptyDataset("cannot fit a linear model on zero rows")
    design = np.hstack([np.ones((data.n_rows, 1)), data.rows])
    solution, _, _, singular = np.linalg.lstsq(design, data.targets, rcond=None)
    if not _all_finite(singular):
        raise NonFiniteValue("rows overflow: the singular values of the design are not finite")
    return LinearModel(
        intercept=float(solution[0]),
        coefficients=solution[1:],
        feature_names=data.feature_names,
    )


def predict_linear_batch(model: LinearModel, rows: np.ndarray) -> np.ndarray:
    """Vector of predictions for a 2-D row matrix; refuses one that overflows."""
    rows = _row_matrix(rows, len(model.feature_names))
    with np.errstate(over="ignore", invalid="ignore"):
        predicted = model.intercept + rows @ model.coefficients
    if not _all_finite(predicted):
        raise NonFiniteValue("predictions must be finite; the model overflows on these rows")
    return predicted
