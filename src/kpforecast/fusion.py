"""Fusing multi-cadence series into lagged feature rows on the Kp grid.

A prediction instant is a 3-hour Kp boundary ``t``.  Its feature row is the
concatenation of lagged values, most recent first, for each solar-wind
quantity (5-minute lags), then Dst (hourly lags), then Kp itself (3-hourly
lags); the target is Kp at ``t + horizon``.  Lags for a source with step
``s`` and lookback ``L`` are ``0, s, 2s, ..., L - s`` minutes — offset 0
(the prediction instant itself) is included.  An instant joins the dataset
only if *every* lagged input and the target are present; gaps anywhere in
the window drop the instant, no imputation.

With the default spec this yields 7*108 + 3 + 8 = 767 features named
``fma_m0 ... fma_m535, ..., dst_m0, dst_m60, dst_m120, kp_m0, ..., kp_m1260``
(``_m<minutes>`` is the lag).

``fuse`` allocates the feature matrix once, at its final size: it first
checks which instants every lag slot covers, then fills the kept rows one
source at a time.

A :class:`FusedDataset` keeps each row's instant as an int64 minute (see
:mod:`.ingest`), which also owns its file, the dataset CSV, so this module
calls no compiled code and reads or writes no file itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO

import numpy as np

from . import ingest
from .errors import (
    CadenceMismatch,
    DataError,
    DimensionMismatch,
    EmptyIntersection,
    IndexOutOfRange,
    NonFiniteValue,
)
from .ingest import SOLAR_WIND_FIELDS, MeasurementSeries, format_timestamp
from .rng import PortableRng

__all__ = [
    "LagSpec",
    "FusedDataset",
    "FeatureSubset",
    "fuse",
    "check_downsample",
    "downsample_low_kp",
    "select_features",
    "split_by_time",
]

_KP_CADENCE = 180

_FIRST_MINUTE, _LAST_MINUTE = -1_035_593_280, 4_223_371_679  # 0001-01-01T00:00Z, 9999-12-31T23:59Z


@dataclass(frozen=True)
class LagSpec:
    """How far back to look into each source and how far ahead to predict."""

    solar_wind_lookback_minutes: int = 540
    solar_wind_step_minutes: int = 5
    dst_lookback_hours: int = 3
    kp_lookback_hours: int = 24
    horizon_hours: int = 3

    def __post_init__(self) -> None:
        if self.solar_wind_step_minutes <= 0 or self.solar_wind_lookback_minutes <= 0:
            raise ValueError("solar-wind step and lookback must be positive")
        if self.solar_wind_lookback_minutes % self.solar_wind_step_minutes:
            raise ValueError("solar-wind lookback must be a multiple of its step")
        if self.dst_lookback_hours <= 0:
            raise ValueError("dst lookback must be positive")
        if self.kp_lookback_hours <= 0 or self.kp_lookback_hours % 3:
            raise ValueError("kp lookback must be a positive multiple of 3 hours")
        if self.horizon_hours <= 0 or self.horizon_hours % 3:
            raise ValueError("horizon must be a positive multiple of 3 hours")

    def solar_wind_lags_minutes(self) -> range:
        return range(0, self.solar_wind_lookback_minutes, self.solar_wind_step_minutes)

    def dst_lags_minutes(self) -> range:
        return range(0, self.dst_lookback_hours * 60, 60)

    def kp_lags_minutes(self) -> range:
        return range(0, self.kp_lookback_hours * 60, _KP_CADENCE)

    @property
    def feature_count(self) -> int:
        return (
            7 * len(self.solar_wind_lags_minutes())
            + len(self.dst_lags_minutes())
            + len(self.kp_lags_minutes())
        )

    def feature_names(self) -> tuple[str, ...]:
        names = [
            f"{q}_m{lag}"
            for q in SOLAR_WIND_FIELDS
            for lag in self.solar_wind_lags_minutes()
        ]
        names += [f"dst_m{lag}" for lag in self.dst_lags_minutes()]
        names += [f"kp_m{lag}" for lag in self.kp_lags_minutes()]
        return tuple(names)


@dataclass(frozen=True)
class FusedDataset:
    """Feature matrix plus aligned targets and prediction instants.

    Row ``i`` predicts from minute ``row_minutes[i]``.  Every cell is finite
    (gapped windows never become rows) and targets lie in [0, 9].  Arrays are
    frozen read-only; all transformations return new datasets.
    :meth:`write_csv` and :meth:`read_csv` save and load the dataset CSV in
    blocks of rows; a fault in a file names its line.
    """

    feature_names: tuple[str, ...]
    rows: np.ndarray
    targets: np.ndarray
    row_minutes: np.ndarray

    def __post_init__(self) -> None:
        rows = np.asarray(self.rows, dtype=np.float64)
        targets = np.asarray(self.targets, dtype=np.float64)
        minutes = np.asarray(self.row_minutes, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[1] != len(self.feature_names):
            raise ValueError("rows must be 2-D with one column per feature name")
        if targets.shape != (rows.shape[0],) or minutes.shape != (rows.shape[0],):
            raise ValueError("targets and row_minutes must match the row count")
        if minutes.size and not _FIRST_MINUTE <= minutes.min() <= minutes.max() <= _LAST_MINUTE:
            raise ValueError("row minutes must lie in the years 1 to 9999")
        if not (_all_finite(rows) and _all_finite(targets)):
            raise NonFiniteValue("fused dataset must be entirely finite")
        outside = (targets < 0.0) | (targets > 9.0)
        if outside.any():  # no file here, so no line to name
            raise DataError(f"targets must lie in [0, 9], got {float(targets[outside][0])}")
        for name, array in (("rows", rows), ("targets", targets), ("row_minutes", minutes)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)
        object.__setattr__(self, "feature_names", tuple(self.feature_names))

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_features(self) -> int:
        return self.rows.shape[1]

    def to_csv(self) -> bytes:
        """The dataset CSV's bytes: header plus one line per row, floats via repr."""
        return ingest.format_dataset(self)

    def write_csv(self, handle: BinaryIO) -> None:
        """Write :meth:`to_csv`'s bytes to the binary ``handle`` a block of rows at a time."""
        ingest.write_dataset(handle, self)

    @classmethod
    def from_csv(cls, content: bytes) -> "FusedDataset":
        """Parse the bytes :meth:`to_csv` writes, as :meth:`read_csv` reads a file's."""
        return cls(*ingest.parse_dataset(content))

    @classmethod
    def read_csv(cls, path: str | Path) -> "FusedDataset":
        """Read a dataset CSV file; its faults are those of :func:`.ingest.read_dataset`."""
        return cls(*ingest.read_dataset(path))


def _all_finite(array: np.ndarray) -> bool:
    """Whether every value of ``array`` is finite, read without a temporary
    of its size: ``min`` and ``max`` are NaN if any value is."""
    return array.size == 0 or bool(np.isfinite(array.min()) and np.isfinite(array.max()))


def _row_matrix(rows, width: int | None = None) -> np.ndarray:
    """``rows`` as a float64 matrix, which a model's input must be: 2-D,
    ``width`` columns wide (any width when None) and finite."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim != 2:
        raise DimensionMismatch(f"expected a 2-D row matrix, got {rows.ndim}-D")
    if width is not None and rows.shape[1] != width:
        raise DimensionMismatch(f"row width {rows.shape[1]}, model expects {width}")
    if not _all_finite(rows):
        raise NonFiniteValue("rows must be finite")
    return rows


@dataclass(frozen=True)
class FeatureSubset:
    """Column indices (and their names) picked out of a wider dataset.

    Order is meaningful — ``top_k`` produces subsets in ranking order.
    """

    indices: tuple[int, ...]
    names: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.indices) != len(self.names):
            raise ValueError("indices and names must pair up")
        if len(set(self.indices)) != len(self.indices):
            raise ValueError("subset indices must be unique")


def _check_source(series: MeasurementSeries, expected_name: str,
                  expected_cadence: int, kp_start_minute: int) -> None:
    if series.name != expected_name:
        raise ValueError(f"expected series {expected_name!r}, got {series.name!r}")
    if series.cadence_minutes != expected_cadence:
        raise CadenceMismatch(
            f"{series.name}: cadence {series.cadence_minutes} min, "
            f"expected {expected_cadence}"
        )
    if (kp_start_minute - series.start_minute) % expected_cadence:
        raise CadenceMismatch(
            f"{series.name}: grid anchored at {format_timestamp(series.start_minute)} "
            "never lines up with the 3-hour prediction instants"
        )


def fuse(
    solar: tuple[MeasurementSeries, ...],
    dst: MeasurementSeries,
    kp: MeasurementSeries,
    spec: LagSpec = LagSpec(),
) -> FusedDataset:
    """Build the lagged feature matrix over all fully-covered instants.

    ``solar`` must hold the seven quantities in canonical order at 5-minute
    cadence; ``dst`` hourly; ``kp`` 3-hourly.  Raises
    :class:`EmptyIntersection` if no instant has full coverage (before any
    per-lag work, naming the source, if one source's lookback cannot fit at
    any instant) and :class:`CadenceMismatch` if a source cannot line up with
    the prediction grid.

    One pass over the lag slots finds the covered instants; the matrix is
    then allocated once and filled a source at a time, by one gather of the
    kept instants' lags into that source's block of columns.
    """
    if len(solar) != 7:
        raise ValueError(f"expected 7 solar-wind series, got {len(solar)}")
    if spec.solar_wind_step_minutes % 5:
        raise CadenceMismatch(
            "solar-wind lag step must be a multiple of the 5-minute cadence"
        )
    for series, name in zip(solar, SOLAR_WIND_FIELDS):
        _check_source(series, name, 5, kp.start_minute)
    _check_source(dst, "dst", 60, kp.start_minute)
    _check_source(kp, "kp", _KP_CADENCE, kp.start_minute)

    sources = [(s, spec.solar_wind_lags_minutes(), f"{spec.solar_wind_lookback_minutes} minutes")
               for s in solar]
    sources.append((dst, spec.dst_lags_minutes(), f"{spec.dst_lookback_hours} hours"))
    sources.append((kp, spec.kp_lags_minutes(), f"{spec.kp_lookback_hours} hours"))

    n_instants = len(kp)
    instant_idx = np.arange(n_instants)
    horizon_steps = spec.horizon_hours * 60 // _KP_CADENCE
    target_idx = instant_idx + horizon_steps
    valid = target_idx < n_instants
    with_target = kp.start_minute + _KP_CADENCE * instant_idx[valid]
    for series, lags, lookback in sources:
        _check_window(series, lags[-1], lookback, with_target, spec.horizon_hours)
    valid &= kp.present[np.minimum(target_idx, n_instants - 1)]

    # Which instants every lag slot covers; then gather the kept instants' lags once.
    for series, lags, _ in sources:
        base = kp.start_minute - series.start_minute
        for lag in lags:
            idx = (base + instant_idx * _KP_CADENCE - lag) // series.cadence_minutes
            ok = (idx >= 0) & (idx < len(series))
            ok &= series.present[np.clip(idx, 0, len(series) - 1)]
            valid &= ok

    keep = np.flatnonzero(valid)
    if keep.size == 0:
        raise EmptyIntersection(
            "no prediction instant has full lag coverage across all sources"
        )
    rows = np.empty((keep.size, spec.feature_count))
    column = 0
    for series, lags, _ in sources:
        slots = (kp.start_minute - series.start_minute + _KP_CADENCE * keep) // series.cadence_minutes
        lag_slots = np.asarray(lags) // series.cadence_minutes  # both exact: the grids align
        rows[:, column:column + len(lags)] = series.values[slots[:, None] - lag_slots]
        column += len(lags)
    targets = kp.values[target_idx[keep]]
    return FusedDataset(spec.feature_names(), rows, targets, kp.start_minute + _KP_CADENCE * keep)


def _check_window(series: MeasurementSeries, longest_lag: int, lookback: str,
                  instants: np.ndarray, horizon_hours: int) -> None:
    """Refuse, before any per-lag work, a source whose window (its longest
    lag back to the instant itself) leaves its span at every one of
    ``instants``, the minutes whose Kp target lies inside the Kp records."""
    last = series.start_minute + (len(series) - 1) * series.cadence_minutes
    if not ((instants - longest_lag >= series.start_minute) & (instants <= last)).any():
        raise EmptyIntersection(
            f"{series.name}: no prediction instant fits a lookback of {lookback} and the "
            f"{horizon_hours}-hour horizon inside the {series.name} and kp records"
        )


def check_downsample(downsample: int, threshold: float) -> None:
    """Refuse a factor or threshold with which :func:`downsample_low_kp` would thin nothing."""
    if downsample < 1:
        raise ValueError("downsample factor must be >= 1")
    if math.isnan(threshold):
        raise ValueError("downsample threshold must be a number, got nan")
    if threshold < 0.0:  # targets lie in [0, 9], so no row would be low
        raise ValueError(f"downsample threshold must be >= 0, got {threshold}")


def downsample_low_kp(
    data: FusedDataset, downsample: int, threshold: float = 4.0, seed: int = 0
) -> FusedDataset:
    """Thin quiet-time rows: keep 1/``downsample`` of rows with target <= threshold.

    Every row with target > threshold survives.  Of the ``c`` low rows,
    ``ceil(c / downsample)`` are chosen without replacement by the seeded
    generator; surviving rows keep their original order.  ``downsample=1``
    is the identity.
    """
    check_downsample(downsample, threshold)
    if downsample == 1:
        return data
    low = np.flatnonzero(data.targets <= threshold)
    keep_count = math.ceil(len(low) / downsample)
    chosen = PortableRng(seed).subset(len(low), keep_count)
    keep = np.ones(data.n_rows, dtype=bool)
    keep[low] = False
    keep[low[chosen]] = True
    return FusedDataset(data.feature_names, data.rows[keep], data.targets[keep],
                        data.row_minutes[keep])


def select_features(data: FusedDataset, subset: FeatureSubset) -> FusedDataset:
    """Narrow the dataset to the subset's columns, in subset order."""
    for i, name in zip(subset.indices, subset.names):
        if not 0 <= i < data.n_features:
            raise IndexOutOfRange(
                f"feature index {i} outside dataset width {data.n_features}"
            )
        if data.feature_names[i] != name:
            raise ValueError(
                f"subset expects column {i} to be {name!r}, "
                f"dataset has {data.feature_names[i]!r}"
            )
    idx = np.asarray(subset.indices, dtype=np.intp)
    return FusedDataset(subset.names, data.rows[:, idx], data.targets, data.row_minutes)


def split_by_time(
    data: FusedDataset, cutoff_minute: int
) -> tuple[FusedDataset, FusedDataset]:
    """Chronological split: rows before ``cutoff_minute`` train, the rest test."""
    train = data.row_minutes < cutoff_minute
    return tuple(
        FusedDataset(data.feature_names, data.rows[sel], data.targets[sel], data.row_minutes[sel])
        for sel in (train, ~train)
    )
