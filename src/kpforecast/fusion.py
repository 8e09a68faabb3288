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
then scans each chunk into its slice of the rows.

A :class:`FusedDataset` keeps each row's instant as an int64 minute (see
:mod:`.ingest`).  It is saved as the dataset CSV: a header of the feature
names then ``target,row_time``, and one line per row with every float written
as ``repr`` writes it (an exact round-trip).  ``write_csv`` streams it a
block of rows at a time, and ``to_csv`` returns the same text as a string.
A dataset line is a measurement record's row shape with the stamp moved
last, so :func:`.ingest.format_rows` writes each block and
:func:`.ingest.scan_rows` reads the rows; this module calls no compiled code
itself.

Both readers take one entry point over the file's bytes: ``read_csv`` opens
the file, and ``from_csv`` reads a string as its UTF-8 bytes, so the two
agree on every input.  A line ends at ``\n``, ``\r\n`` or ``\r`` (the
universal newlines of ``open()``) and nowhere else.  The bytes are read
twice, a chunk at a time: once to count the lines and once to scan them, so
neither the file nor a second copy of the rows is ever held.  A file the
scanner does not read (no compiler, a line outside its strict form, an empty
cell, or any fault) is read again by the Python reader, a block of lines at
a time: it is the scanner's test reference and words every error.
"""

from __future__ import annotations

import io
import math
import re
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import BinaryIO, Iterable, Iterator, TextIO

import numpy as np

from .errors import (
    BadTimestamp,
    CadenceMismatch,
    DataError,
    EmptyDataset,
    EmptyIntersection,
    IndexOutOfRange,
    MalformedLine,
    NonFiniteValue,
    ValueOutOfRange,
)
from .ingest import (
    SOLAR_WIND_FIELDS,
    MeasurementSeries,
    _data_lines,
    _number_fault,
    _stamp_digits,
    format_minutes,
    format_rows,
    format_timestamp,
    minutes_from_digits,
    parse_timestamp,
    scan_rows,
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

#: Rows per block of the dataset CSV, written or read by the Python reader.
_BLOCK_ROWS = 256
#: Bytes per read of the compiled reader.
_CHUNK_BYTES = 1 << 20
#: A line of printable ASCII, the only bytes the compiled reader accepts.
_PRINTABLE = re.compile(rb"[ -~]*")


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
        """The dataset in a binary file: the compiled scanner's, else the
        Python reader's, which reads the file again from the start and
        closes ``handle``."""
        scanned = _scan_csv(handle)
        if scanned is not None:
            return scanned
        handle.seek(0)
        with io.TextIOWrapper(handle, encoding="utf-8") as text:
            return cls._parse(text)

    @classmethod
    def _parse(cls, lines: Iterable[str]) -> "FusedDataset":
        numbered = _data_lines(lines)
        first = next(numbered, None)
        if first is None:
            raise EmptyDataset("dataset CSV has no header line")
        header_no, header = first[0], first[1].split(",")
        if len(header) < 3 or header[-2:] != ["target", "row_time"]:
            raise MalformedLine(header_no, "dataset CSV header must end with target,row_time")
        names = tuple(header[:-2])
        rows, targets = [np.empty((0, len(names)))], [np.empty(0)]
        minutes = [np.empty(0, dtype=np.int64)]
        while block := list(islice(numbered, _BLOCK_ROWS)):
            values, block_minutes = _parse_block(block, len(header))
            rows.append(values[:, :-1])
            targets.append(values[:, -1])
            minutes.append(block_minutes)
        return cls(names, np.concatenate(rows), np.concatenate(targets), np.concatenate(minutes))


def _scan_csv(handle: BinaryIO) -> FusedDataset | None:
    """The dataset in a binary file, read by the compiled scanner (see
    :func:`.ingest.scan_rows`) in two passes over the body.

    The first pass counts the body's lines, which bounds its rows, and the
    arrays are allocated once at that size.  The second scans a chunk of
    ``_CHUNK_BYTES`` at a time into the next rows, so neither the file's
    bytes nor a second copy of the rows is ever held whole; the dataset keeps
    a prefix of each array, which stays C-contiguous.  None when the scanner
    cannot be loaded, or when the file leaves its strict grammar (see the C
    source) or holds a fault; :meth:`FusedDataset._parse` then reads the file
    again, as the reference, and raises the fault.
    """
    for line in handle:  # the header, after blank and comment lines
        text = line.removesuffix(b"\n")
        if not _PRINTABLE.fullmatch(text):
            return None
        if text and not text.startswith(b"#"):
            break
    else:
        return None
    header = text.decode("ascii").split(",")
    if len(header) < 3 or header[-2:] != ["target", "row_time"]:
        return None
    body = handle.tell()
    capacity = 1 + sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(_CHUNK_BYTES), b""))
    handle.seek(body)
    out = np.empty((capacity, len(header) - 2)), np.empty(capacity), np.empty(capacity, np.int64)
    count = _scan_body(handle, out)
    if count is None:
        return None
    return FusedDataset(tuple(header[:-2]), *(array[:count] for array in out))


def _scan_body(handle: BinaryIO, out: tuple[np.ndarray, np.ndarray, np.ndarray]) -> int | None:
    """Scan the rest of ``handle`` into ``out`` (rows, targets and row
    minutes), a chunk of whole lines at a time; the row count, or None if
    :func:`_scan_rows` refuses a chunk or ``out`` has no room (the file grew
    since its lines were counted).  At most one raw read, one chunk and one
    chunk's block are alive at once.
    """
    count, tail = 0, b""
    while chunk := handle.read(_CHUNK_BYTES):
        chunk = tail + chunk
        end = chunk.rfind(b"\n") + 1
        count = _scan_into(chunk, end, out, count)
        if count is None:
            return None
        tail = chunk[end:]
    return _scan_into(tail, len(tail), out, count)


def _scan_into(buf: bytes, end: int, out: tuple[np.ndarray, np.ndarray, np.ndarray],
               start: int) -> int | None:
    """Copy :func:`_scan_rows`'s block of ``buf[:end]`` into ``out`` from row
    ``start``; the row after it, or None."""
    rows, targets, minutes = out
    block = _scan_rows(buf, end, rows.shape[1] + 2)
    if block is None or start + len(block[1]) > len(rows):
        return None
    values, block_minutes = block
    stop = start + len(block_minutes)
    rows[start:stop], targets[start:stop], minutes[start:stop] = (
        values[:, :-1], values[:, -1], block_minutes)
    return stop


def _scan_rows(buf: bytes, end: int, width: int) -> tuple[np.ndarray, np.ndarray] | None:
    """``[rows | target]`` and the row minutes of the lines in ``buf[:end]``,
    which end in a newline or at the end of ``buf``; None if the scanner
    refuses a line, or a cell is empty or a target or time out of place.
    """
    scanned = scan_rows(buf, end, width - 1, stamp_last=True)
    if scanned is None:
        return None
    _, stamps, values, present = scanned
    minutes, valid = minutes_from_digits(stamps)
    targets = values[:, -1]
    if not (present.all() and valid.all() and (targets >= 0.0).all() and (targets <= 9.0).all()):
        return None
    return values, minutes


def _line_fault(line_no: int, cells: list[str], width: int) -> DataError | None:
    """The first fault of one dataset line, read left to right."""
    if len(cells) != width:
        return MalformedLine(line_no, f"expected {width} cells, got {len(cells)}")
    fault = _number_fault(cells[:-1])
    if fault is not None:
        return MalformedLine(line_no, fault)
    target = float(cells[-2])
    if not 0.0 <= target <= 9.0:
        return ValueOutOfRange(line_no, f"target must lie in [0, 9], got {target}")
    try:
        parse_timestamp(cells[-1])
    except ValueError as exc:
        return BadTimestamp(line_no, str(exc))
    return None


def _parse_block(block: list[tuple[int, str]], width: int) -> tuple[np.ndarray, np.ndarray]:
    """``[rows | target]`` and the row minutes of numbered dataset lines.

    The whole block converts at once; only if that fails, or a value or time
    is out of place, are its lines checked one by one for the first fault.
    """
    split = [line.split(",") for _, line in block]
    try:
        if all(len(cells) == width for cells in split):
            values = np.array([cells[:-1] for cells in split], dtype=np.float64)
            targets = values[:, -1]
            digits = [_stamp_digits(cells[-1]) for cells in split]
            if (np.isfinite(values).all() and targets.min() >= 0.0 and targets.max() <= 9.0
                    and None not in digits):
                minutes, valid = minutes_from_digits(np.array(digits, dtype=np.int64))
                if valid.all():
                    return values, minutes
    except ValueError:
        pass
    for (line_no, _), cells in zip(block, split):
        fault = _line_fault(line_no, cells, width)
        if fault is not None:
            raise fault
    raise AssertionError("a dataset block failed to convert without a faulty line")


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
