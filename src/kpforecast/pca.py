"""Principal components for visualising the fused feature space.

Components are directions of maximal variance of the mean-centred rows;
``explained_variance_ratio[i]`` is eigenvalue_i / total variance.  Features
are not standardised: the components are those of the raw covariance, as
the rest of the pipeline sees the features.  The sign convention makes
each direction's largest-magnitude entry positive so output is unambiguous.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, EmptyDataset, KOutOfRange, NonFiniteValue
from .fusion import FusedDataset, _all_finite, _row_matrix

__all__ = ["PcaModel", "fit_pca", "project"]


@dataclass(frozen=True, eq=False)
class PcaModel:
    mean: np.ndarray  # per-feature mean
    directions: np.ndarray  # (k, p), orthonormal rows
    explained_variance: np.ndarray  # eigenvalues, descending
    explained_variance_ratio: np.ndarray

    def __post_init__(self) -> None:
        for name in ("mean", "directions", "explained_variance", "explained_variance_ratio"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def fit_pca(data: FusedDataset, k: int) -> PcaModel:
    """Top-``k`` principal components via SVD of the dataset's centred rows.

    Rows so large that their mean or total variance overflows are refused.
    """
    X = data.rows
    n, p = X.shape
    if n == 0:
        raise EmptyDataset("PCA needs at least 2 rows, got none")
    if n == 1:
        raise DegenerateData("PCA needs at least 2 rows, got 1")
    if not 1 <= k <= min(n, p):
        raise KOutOfRange(f"k must lie in [1, {min(n, p)}], got {k}")

    with np.errstate(over="ignore", invalid="ignore"):
        mean = X.mean(axis=0)
        centred = X - mean
        total_variance = float((centred * centred).sum() / (n - 1))
    if not math.isfinite(total_variance):  # as it is when the mean overflows
        raise NonFiniteValue("rows overflow: their mean or total variance is not finite")
    if total_variance == 0.0:
        raise DegenerateData("rows carry zero variance; no principal directions")

    _, singular, vt = np.linalg.svd(centred, full_matrices=False)
    eigenvalues = (singular[:k] ** 2) / (n - 1)
    directions = vt[:k].copy()
    for row in directions:  # largest-magnitude entry positive
        lead = np.argmax(np.abs(row))
        if row[lead] < 0.0:
            row *= -1.0
    return PcaModel(
        mean=mean,
        directions=directions,
        explained_variance=eigenvalues,
        explained_variance_ratio=eigenvalues / total_variance,
    )


def project(model: PcaModel, rows: np.ndarray) -> np.ndarray:
    """Coordinates of each row of a 2-D matrix along the model's directions,
    shape (n, k); refuses rows whose coordinates overflow."""
    X = _row_matrix(rows, model.mean.size)
    with np.errstate(over="ignore", invalid="ignore"):
        coords = (X - model.mean) @ model.directions.T
    if not _all_finite(coords):
        raise NonFiniteValue("coordinates must be finite; the rows overflow")
    return coords
