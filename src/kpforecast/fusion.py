r"""Fusing multi-cadence series into lagged feature rows on the Kp grid.

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

Each builder of the feature matrix allocates it once, at its final size.
``fuse`` first checks which instants every lag slot covers, then fills the
kept rows one source at a time; the dataset reader first counts the lines,
then reads each chunk into its slice of the rows.

A :class:`FusedDataset` keeps each row's instant as an int64 minute (see
:mod:`.ingest`).  It is saved as the dataset CSV: a header of the feature
names then ``target,row_time``, and one line per row with every float written
as ``repr`` writes it (an exact round-trip).  ``write_csv`` streams it a
block of rows at a time, and ``to_csv`` returns the same text as a string.
A dataset line is a measurement record's row shape with the stamp moved
last, so :func:`.ingest.format_rows` writes each block and
:func:`.ingest.parse_dataset_rows` reads the rows: the row grammar, and the
order in which a line's faults are reported, live in :mod:`.ingest` alone.
This module calls no compiled code itself.

Both readers take one entry point over the file's bytes: ``read_csv`` opens
the file, and ``from_csv`` reads a string as its UTF-8 bytes, so the two
agree on every input.  A line ends at ``\n``, ``\r\n`` or ``\r`` (the
universal newlines of ``open()``) and nowhere else.  The bytes are read
twice, a chunk at a time: once to count the lines and check that they are
UTF-8, and once to read the rows, so neither the file nor a second copy of
the rows is ever held.  A chunk the compiled scanner does not read (a line
outside its strict form, or any chunk where the kernel cannot be built)
takes the Python pass alone; the file is not read a third time, except to
word the error of bytes that are not UTF-8.
"""

from __future__ import annotations

import codecs
import io
import math
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, TextIO

import numpy as np

from .errors import (
    CadenceMismatch,
    DataError,
    EmptyDataset,
    EmptyIntersection,
    IndexOutOfRange,
    MalformedLine,
    NonFiniteValue,
)
from .ingest import (
    SOLAR_WIND_FIELDS,
    MeasurementSeries,
    format_minutes,
    format_rows,
    format_timestamp,
    parse_dataset_rows,
)
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

#: Rows per block of the dataset CSV as it is written.
_BLOCK_ROWS = 256
#: Bytes per read of the dataset CSV.
_CHUNK_BYTES = 1 << 20


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

    def _csv_blocks(self) -> Iterator[str]:
        """The dataset CSV: the header line, then the lines of each block of
        rows, every cell as ``repr`` writes it (see :func:`.ingest.format_rows`)."""
        yield ",".join([*self.feature_names, "target", "row_time"]) + "\n"
        for start in range(0, self.n_rows, _BLOCK_ROWS):
            stop = start + _BLOCK_ROWS
            yield format_rows(np.column_stack([self.rows[start:stop], self.targets[start:stop]]),
                              format_minutes(self.row_minutes[start:stop]), stamp_last=True)

    def to_csv(self) -> str:
        """Header plus one line per row; floats via repr (exact round-trip)."""
        return "".join(self._csv_blocks())

    def write_csv(self, handle: TextIO) -> None:
        """Write :meth:`to_csv`'s text to ``handle`` a block of rows at a time."""
        handle.writelines(self._csv_blocks())

    @classmethod
    def from_csv(cls, content: str) -> "FusedDataset":
        """Parse the text :meth:`to_csv` writes, as :meth:`read_csv` reads its bytes."""
        return cls._read(io.BytesIO(content.encode("utf-8")))

    @classmethod
    def read_csv(cls, path: str | Path) -> "FusedDataset":
        """Read a dataset CSV file a chunk of lines at a time.

        Blank and ``#`` lines are skipped, as is trailing whitespace.  A fault
        raises a :class:`~kpforecast.errors.DataError` subtype that names the
        1-based line: :class:`EmptyDataset` for a file without a header,
        :class:`MalformedLine` for a bad header, a wrong cell count or a cell
        that is not a finite number, :class:`ValueOutOfRange` for a target
        outside [0, 9] and :class:`BadTimestamp` for a bad ``row_time``.
        Bytes that are not UTF-8 raise ``UnicodeDecodeError``.
        """
        with open(path, "rb") as handle:
            return cls._read(handle)

    @classmethod
    def _read(cls, handle: BinaryIO) -> "FusedDataset":
        """The dataset in a binary file, read in two passes over its bytes.

        The first counts the lines, which bounds the rows, and the arrays
        are allocated once at that size.  The second reads the header, then
        hands :func:`.ingest.parse_dataset_rows` a chunk of whole lines at a
        time and copies its rows into the next rows of the arrays, so neither
        the file's bytes nor a second copy of the rows is ever held whole.
        The dataset keeps a prefix of each array, which stays C-contiguous.
        Arrays too short for the rows (lines that end in a lone ``\\r``, or a
        file that grew since its lines were counted) are grown as they fill.
        """
        capacity = _count_lines(handle)
        handle.seek(0)
        names, line_no, tail = _read_header(handle)
        out = [np.empty((capacity, len(names))), np.empty(capacity), np.empty(capacity, np.int64)]
        count = 0
        while chunk := handle.read(_CHUNK_BYTES):
            chunk = tail + chunk
            end = chunk.rfind(b"\n") + 1
            count, line_no = _fill(out, count, chunk, end, line_no)
            tail = chunk[end:]
        count, _ = _fill(out, count, tail, len(tail), line_no)
        return cls(names, *(array[:count] for array in out))


def _count_lines(handle: BinaryIO) -> int:
    """One more than the newlines of ``handle``, whose bytes must be UTF-8.

    An ASCII chunk costs one ``bytes.isascii`` for that check.  Bytes that
    are not UTF-8 raise, before any fault of a line, the ``UnicodeDecodeError``
    of decoding the file whole, which counts the byte's position from its start.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    newlines = 0
    try:
        while chunk := handle.read(_CHUNK_BYTES):
            newlines += chunk.count(b"\n")
            if not chunk.isascii() or decoder.getstate()[0]:  # or a character runs on
                decoder.decode(chunk)
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        handle.seek(0)
        handle.read().decode("utf-8")
        raise
    return newlines + 1


def _read_header(handle: BinaryIO) -> tuple[tuple[str, ...], int, bytes]:
    """The feature names of the header, the number of the line after it, and
    the rest of the bytes read to find it (lines that ended in a lone ``\\r``).

    Blank and ``#`` lines before it are skipped, as is trailing whitespace.
    """
    line_no = 1
    for raw in handle:  # up to each \n; a \r ends a line too
        lines = raw.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n").split("\n")
        for k, line in enumerate(map(str.rstrip, lines)):
            if line and not line.startswith("#"):
                header = line.split(",")
                if len(header) < 3 or header[-2:] != ["target", "row_time"]:
                    raise MalformedLine(line_no + k,
                                        "dataset CSV header must end with target,row_time")
                return tuple(header[:-2]), line_no + k + 1, "\n".join(lines[k + 1:]).encode()
        line_no += len(lines) - 1
    raise EmptyDataset("dataset CSV has no header line")


def _fill(out: list[np.ndarray], start: int, buf: bytes, end: int,
          line_no: int) -> tuple[int, int]:
    """Read the dataset lines ``buf[:end]``, the first of them line
    ``line_no``, into ``out`` (rows, targets and row minutes) from row
    ``start``, growing the arrays in place if they are too short; the row
    and the line after them.  Only the chunk and its block are alive here.
    """
    rows, targets, minutes = out
    lines, block_minutes, values = parse_dataset_rows(buf, end, rows.shape[1] + 1, line_no)
    stop = start + len(block_minutes)
    if stop > len(minutes):  # the first rows are kept; the rest is filled later
        out[:] = [np.resize(array, (2 * stop, *array.shape[1:])) for array in out]
        rows, targets, minutes = out
    rows[start:stop], targets[start:stop], minutes[start:stop] = (
        values[:, :-1], values[:, -1], block_minutes)
    return stop, line_no + lines


def _all_finite(array: np.ndarray) -> bool:
    """Whether every value of ``array`` is finite, read without a temporary
    of its size: ``min`` and ``max`` are NaN if any value is."""
    return array.size == 0 or bool(np.isfinite(array.min()) and np.isfinite(array.max()))


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
