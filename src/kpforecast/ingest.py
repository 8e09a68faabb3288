r"""Readers and writers for the three canonical measurement formats, and the
one reader and writer of CSV rows.

All three formats share the same shape: UTF-8 text, comma-separated, no
header, ``#``-prefixed comment lines ignored, one record per line, an empty
field meaning "gap".  A line ends at ``\n``, ``\r\n`` or ``\r`` (the
universal newlines of ``open()``) and nowhere else.  Timestamps are ISO-8601
UTC at minute resolution with a trailing ``Z`` (``2021-01-01T00:05Z``).
Trailing whitespace on a line is tolerated; any other deviation raises a
:class:`~kpforecast.errors.DataError` subtype carrying the offending line
number.

Formats:

* solar wind — ``t,fma,bx,by,bz,speed,density,temperature`` at 5-minute
  cadence (field magnitude average and components in nT, speed in km/s,
  density in 1/cm^3, temperature in K)
* Dst — ``t,dst`` hourly (nT, typically negative during storms)
* Kp — ``t,kp`` every 3 hours on 00/03/06/... UTC boundaries, value in [0, 9]

A parser takes the file's bytes and returns a :class:`MeasurementTable`,
the records column by column: int64 minute times (every instant in the
package counts minutes from 1970-01-01T00:00Z), a 2-D float64 value array
and a ``present`` mask.

``to_series`` places one table column onto its cadence grid with gaps marked
explicitly, which is the form the fusion stage consumes.  ``format_table``
returns a table's bytes in its canonical format, every number as ``repr``
writes it.  The package's one timestamp codec is here too:
``minutes_from_digits`` and ``format_minutes`` for arrays,
``parse_timestamp`` and ``format_timestamp`` for one instant.

The row codec is here as well, and nowhere else.  It takes and returns
``bytes`` only, never CSV text as ``str``.  A row is a timestamp and
numbers, the stamp first (a measurement record) or last (a dataset row,
which :func:`parse_dataset_rows` reads a chunk of lines at a time).  One
reader serves both.  Bytes that are not UTF-8 raise first,
named by their place in the file.  The reader turns ``\r\n`` and ``\r``
into ``\n``, then makes one pass over the lines, which splits the fields,
matches the timestamp pattern (keeping its digits) and converts the
numbers.  Every other check (calendar validity, finiteness, ranges, and
for a measurement file time order and alignment) runs on the arrays and
reports the first faulty line in file order, with the error that checking
each line as it is read would raise there: within a line, faults rank left
to right.  The pass is ``scan_rows``, the compiled kernel ``csvscan.c``
(built by :func:`.splitkernel.load`), where the bytes keep to its strict
form: printable ASCII, plain decimal numbers that it converts to the value
``float`` gives.  Any other bytes, and all bytes where the kernel cannot be
built, take the Python pass, which decodes them, converts with ``float``
and is the scanner's test reference.  ``format_rows`` returns the bytes of
rows written as ``repr`` would, through the kernel where it can be built,
else through its one Python reference writer.

The dataset CSV of :class:`.fusion.FusedDataset` is here too.
:func:`write_rows` writes it (and the rows of ``predict`` and ``pca``) 256
rows at a time, each block straight from the codec's buffer.  Its reader
reads the bytes twice, 1 MiB at a time: once to count the lines and check
that they are UTF-8, then into arrays allocated once.
"""

from __future__ import annotations

import codecs
import io
import math
import operator
import re
from array import array
from dataclasses import dataclass
from functools import partial
from datetime import datetime
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator, Sequence

import numpy as np

from . import splitkernel
from .errors import (
    BadTimestamp,
    CadenceMismatch,
    EmptyDataset,
    MalformedLine,
    NonMonotonicTime,
    ValueOutOfRange,
)

__all__ = [
    "SOLAR_WIND_FIELDS",
    "MeasurementTable",
    "MeasurementSeries",
    "parse_timestamp",
    "format_timestamp",
    "minutes_from_digits",
    "format_minutes",
    "parse_solar_wind",
    "parse_dst",
    "parse_kp",
    "format_table",
    "scan_rows",
    "parse_dataset_rows",
    "format_rows",
    "write_rows",
    "write_dataset",
    "format_dataset",
    "read_dataset",
    "parse_dataset",
    "to_series",
    "solar_wind_series",
]

#: Canonical order of the seven solar-wind quantities everywhere in the package.
SOLAR_WIND_FIELDS = ("fma", "bx", "by", "bz", "speed", "density", "temperature")

_TIMESTAMP_RE = re.compile(
    r"^(\d{4})-(\d{2})-(\d{2})T(\d{2}):(\d{2})(?::00)?Z$"
)


def _stamp_digits(text: str) -> int | None:
    """YYYYMMDDHHMM of a timestamp of the canonical pattern, or None."""
    m = _TIMESTAMP_RE.match(text)
    return None if m is None else int("".join(m.groups()))


def minutes_from_digits(digits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Minutes of YYYYMMDDHHMM values, and which are calendar instants (year 1 on).

    The minutes of a value that is not a calendar instant mean nothing.
    """
    year, month, day = digits // 10**8, digits // 10**6 % 100, digits // 10**4 % 100
    hour, minute = digits // 100 % 100, digits % 100
    months = (year - 1970) * 12 + month - 1
    first_day = months.astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    next_first_day = (months + 1).astype("datetime64[M]").astype("datetime64[D]").astype(np.int64)
    valid = ((year >= 1) & (month >= 1) & (month <= 12) & (day >= 1)
             & (day <= next_first_day - first_day) & (hour <= 23) & (minute <= 59))
    return (first_day + day - 1) * 1440 + hour * 60 + minute, valid


def format_minutes(minutes: np.ndarray | Sequence[int]) -> list[str]:
    """The canonical text (``YYYY-MM-DDTHH:MMZ``) of each minute since 1970-01-01T00:00Z."""
    stamps = np.datetime_as_string(np.asarray(minutes, dtype=np.int64).astype("datetime64[m]"),
                                   unit="m")
    return [stamp + "Z" for stamp in stamps.tolist()]


def parse_timestamp(text: str) -> int:
    """The minute since 1970-01-01T00:00Z of a canonical UTC timestamp.

    Accepts ``YYYY-MM-DDTHH:MMZ`` (canonical) and ``YYYY-MM-DDTHH:MM:00Z``;
    anything else — offsets, sub-minute precision, missing ``Z``, a date
    the calendar lacks — raises ``ValueError``.
    """
    m = _TIMESTAMP_RE.match(text)
    if m is None:
        raise ValueError(f"not a minute-resolution UTC timestamp: {text!r}")
    minutes, valid = minutes_from_digits(np.array([int("".join(m.groups()))]))
    if not valid[0]:
        try:  # for datetime's account of what is wrong
            datetime(*map(int, m.groups()))
        except ValueError as exc:
            raise ValueError(f"invalid calendar instant {text!r}: {exc}") from None
    return int(minutes[0])


def format_timestamp(minute: int) -> str:
    """Inverse of :func:`parse_timestamp`."""
    return format_minutes([minute])[0]


@dataclass(frozen=True, eq=False)
class MeasurementTable:
    """The records of one canonical file, column by column.

    Record ``i`` was taken at ``minutes[i]``, counted in whole minutes from
    1970-01-01T00:00Z (strictly increasing in a parsed file).
    ``values[i, j]`` is its ``fields[j]`` and is data only where
    ``present[i, j]``; an empty field is a gap and holds NaN.  Arrays are
    frozen read-only, as in :class:`MeasurementSeries`.
    """

    fields: tuple[str, ...]
    minutes: np.ndarray
    values: np.ndarray
    present: np.ndarray

    def __post_init__(self) -> None:
        minutes = np.asarray(self.minutes, dtype=np.int64)
        values = np.asarray(self.values, dtype=np.float64)
        present = np.asarray(self.present, dtype=bool)
        shape = (minutes.size, len(self.fields))
        if minutes.ndim != 1 or values.shape != shape or present.shape != shape:
            raise ValueError("need 1-D minutes and (records, fields) values and present")
        for name, array in (("minutes", minutes), ("values", values), ("present", present)):
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    @classmethod
    def from_series(cls, series: Sequence[MeasurementSeries]) -> MeasurementTable:
        """One record per grid slot of series that share a grid (inverse of :func:`to_series`)."""
        first = series[0]
        grid = (first.start_minute, first.cadence_minutes, len(first))
        if any((s.start_minute, s.cadence_minutes, len(s)) != grid for s in series):
            raise ValueError("series must share start, cadence and length")
        present = np.column_stack([s.present for s in series])
        return cls(
            tuple(s.name for s in series),
            first.start_minute + first.cadence_minutes * np.arange(len(first), dtype=np.int64),
            np.where(present, np.column_stack([s.values for s in series]), np.nan),
            present,
        )

    def __len__(self) -> int:
        return self.minutes.size


@dataclass(frozen=True)
class MeasurementSeries:
    """One quantity regularised onto its cadence grid.

    ``values[i]`` is the sample at minute ``start_minute + i * cadence_minutes``.
    A slot is data only where ``present[i]`` is True; the mask is the
    authoritative gap marker (missing slots hold NaN purely as poison, never
    read as data).  Arrays are frozen read-only so a series can be shared
    across threads safely.
    """

    name: str
    cadence_minutes: int
    start_minute: int
    values: np.ndarray
    present: np.ndarray

    def __post_init__(self) -> None:
        if self.cadence_minutes not in (5, 60, 180):
            raise ValueError(f"unsupported cadence: {self.cadence_minutes}")
        object.__setattr__(self, "start_minute", operator.index(self.start_minute))
        values = np.asarray(self.values, dtype=np.float64)
        present = np.asarray(self.present, dtype=bool)
        if values.shape != present.shape or values.ndim != 1:
            raise ValueError("values and present must be 1-D and equal length")
        values.setflags(write=False)
        present.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "present", present)

    def __len__(self) -> int:
        return len(self.values)


# --------------------------------------------------------------------------
# parsing

# The order in which checking one line as it is read meets each kind of
# fault, left to right: a measurement record's stamp comes first, a dataset
# row's last.
_SHAPE, _STAMP, _ORDER, _ALIGNMENT, _NUMBER, _RANGE, _LAST_STAMP = range(7)


def _timestamp_error(line_no: int, text: str) -> BadTimestamp:
    try:
        parse_timestamp(text)
    except ValueError as exc:
        return BadTimestamp(line_no, str(exc))
    raise AssertionError(f"{text!r} is a valid timestamp")


def _number_fault(fields: Iterable[str]) -> str | None:
    """Why the first field, in line order, is not a finite number."""
    for field in fields:
        try:
            value = float(field)
        except ValueError:
            return f"unparsable number {field!r}"
        if not math.isfinite(value):
            return f"non-finite number {field!r}"
    return None


def _lf(content: bytes) -> bytes:
    r"""``content`` with each ``\r\n`` and ``\r`` line end made ``\n``."""
    return content.replace(b"\r\n", b"\n").replace(b"\r", b"\n")


def _data_lines(lines: Iterable[str]) -> Iterator[tuple[int, str]]:
    """The 1-based number and text of each line that holds data: trailing
    whitespace stripped, blank and ``#`` lines skipped."""
    return ((line_no, line) for line_no, line in enumerate(map(str.rstrip, lines), start=1)
            if line and not line.startswith("#"))


def scan_rows(buf: bytes, end: int, cols: int, *, stamp_last: bool):
    """The rows of ``buf[:end]`` as the compiled ``kp_scan_rows`` of ``csvscan.c`` reads them.

    A row is a timestamp and ``cols`` numbers, the stamp first or, with
    ``stamp_last``, last.  Returns each row's 1-based line (an ``array``),
    its time as YYYYMMDDHHMM, its values, which values are present (an
    empty field is a gap, NaN), and the newlines of ``buf[:end]``, counted
    once to size the arrays.  None when the scanner cannot be loaded or
    the bytes leave its strict grammar (see the C source); the caller's
    Python reader then reads them.  Past ``end``, only a number's ``strtod``
    fallback reads on, and a byte that is not part of a number stops it: the
    newline before ``end``, or the NUL after a ``bytes`` object's last byte.
    """
    if not 0 <= end <= len(buf) or cols < 1:
        raise ValueError(f"need 0 <= end <= {len(buf)} and cols >= 1, got {end} and {cols}")
    library = splitkernel.load("csvscan")
    if library is None:
        return None
    newlines = buf.count(b"\n", 0, end)
    capacity = newlines + 1  # lines, so at least the rows
    line_nos = array("q", bytes(8 * capacity))
    stamps = np.empty(capacity, dtype=np.int64)
    values = np.empty((capacity, cols))
    present = np.empty((capacity, cols), dtype=bool)
    rows = library.kp_scan_rows(buf, end, cols, stamp_last, capacity, line_nos.buffer_info()[0],
                                stamps.ctypes.data, values.ctypes.data, present.ctypes.data)
    if rows < 0:
        return None
    del line_nos[rows:]
    return line_nos, stamps[:rows], values[:rows], present[:rows], newlines


class _Scan:
    """One pass over the lines of ``content[:end]``, then every other check on whole arrays.

    A row is a timestamp and ``cols`` numbers: the stamp first (a
    measurement record, where an empty field is a gap) or, with
    ``stamp_last``, last (a dataset row, which has no gaps: an empty cell is
    not a number).  Lines are numbered from ``first_line``; the bytes must be
    UTF-8, and a byte that is not raises the ``UnicodeDecodeError`` of
    decoding ``content[:end]`` before any fault of a line is reported.
    The pass is the compiled scanner's where it reads the content, else
    :meth:`_scan_lines`; either counts the newlines of the content once, as
    ``newlines``.  Each check notes the first record it fails on, and
    :meth:`raise_first` raises the fault of the earliest line and, within
    that line, of the lowest rank, so the error names the same line and
    problem as checking every line in turn.
    """

    def __init__(self, content: bytes, cols: int, *, end: int | None = None,
                 stamp_last: bool = False, first_line: int = 1) -> None:
        end = len(content) if end is None else end
        if content.find(b"\r", 0, end) >= 0:  # \r\n and \r end a line as \n does
            content = content[:end]
            if not content.isascii():  # name a byte that is not UTF-8 by its place in the file
                content.decode("utf-8")
            content = _lf(content)
            end = len(content)
        self.content, self.end = content, end
        self.stamp_last, self.first_line = stamp_last, first_line
        self.faults: list[tuple[int, int, Callable[[], Exception]]] = []  # (record, rank, error)
        scanned = scan_rows(content, end, cols, stamp_last=stamp_last)
        if scanned is None:
            scanned = self._scan_lines(cols)
        self.line_nos, stamps, self.values, self.present, self.newlines = scanned
        self.minutes, valid = minutes_from_digits(stamps)
        self.check(~valid, _LAST_STAMP if stamp_last else _STAMP, lambda r: _timestamp_error(
            self.line_no(r), self._cells(r)[-1 if stamp_last else 0]))
        nonfinite = ~np.isfinite(self.values)
        if not stamp_last:  # a gap is NaN; a dataset has none
            nonfinite &= self.present
        self.check(nonfinite.any(axis=1), _NUMBER,
                   lambda r: MalformedLine(self.line_no(r), _number_fault(self._numbers(r))))

    def _scan_lines(self, cols: int):
        """The Python pass over the lines: the reference for the compiled
        scanner, and the reader of all it refuses.  It stops after the first
        line whose cells, timestamp pattern or numbers cannot be read."""
        # Packed arrays, not lists: a list holds a Python object per cell,
        # four times the memory of a packed number.
        line_nos = array("q")
        stamps = array("q")  # YYYYMMDDHHMM of each record
        values = array("d")  # every value of every record, record after record
        gaps: list[int] = []  # positions in ``values`` of empty fields
        lines = self._text().split("\n")
        for line_no, line in _data_lines(lines):
            parts = line.split(",")
            record = len(line_nos)
            if len(parts) != cols + 1:
                self.faults.append((record, _SHAPE, partial(
                    MalformedLine, self.first_line - 1 + line_no,
                    f"expected {cols + 1} {'cells' if self.stamp_last else 'fields'}, "
                    f"got {len(parts)}")))
                break
            stamp, fields = (parts[-1], parts[:-1]) if self.stamp_last else (parts[0], parts[1:])
            digits = _stamp_digits(stamp)
            line_nos.append(line_no)
            stamps.append(0 if digits is None else digits)  # 0 is no calendar instant
            try:
                values.extend(map(float, fields))
            except ValueError:  # a gap, or a field that is not a number
                del values[record * cols:]
                try:
                    values.extend([float(f) if f else math.nan for f in fields])
                except ValueError:  # present, so the number check names the field
                    values.extend([math.nan] * cols)
                    break
                gaps += (record * cols + j for j, f in enumerate(fields) if f == "")
            if digits is None:
                break
        records = len(line_nos)
        present = np.ones((records, cols), dtype=bool)
        present.flat[gaps] = False
        return (line_nos, np.frombuffer(stamps, dtype=np.int64),
                np.frombuffer(values, dtype=np.float64).reshape(records, cols), present,
                len(lines) - 1)

    def line_no(self, record: int) -> int:
        """The line number of ``record``."""
        return self.first_line - 1 + self.line_nos[record]

    def _text(self) -> str:
        return self.content[:self.end].decode("utf-8")

    def _cells(self, record: int) -> list[str]:
        return self._text().split("\n")[self.line_nos[record] - 1].rstrip().split(",")

    def _numbers(self, record: int) -> list[str]:
        """The number cells of ``record``; a measurement record's gaps are left out."""
        cells = self._cells(record)
        return cells[:-1] if self.stamp_last else [cell for cell in cells[1:] if cell]

    def check(self, bad: np.ndarray, rank: int, error) -> None:
        """Note ``error(record)`` for the first record flagged in ``bad``.

        The error is built only if it is the one raised: a record after an
        invalid calendar date may be flagged on a time that means nothing.
        """
        flagged = np.flatnonzero(bad)
        if flagged.size:
            record = int(flagged[0])
            self.faults.append((record, rank, partial(error, record)))

    def check_order(self) -> None:
        """Note the first record whose time does not advance past the one before."""
        stalled = np.zeros(self.minutes.size, dtype=bool)
        stalled[1:] = self.minutes[1:] <= self.minutes[:-1]
        self.check(stalled, _ORDER, lambda r: NonMonotonicTime(
            self.line_no(r),
            f"{format_timestamp(self.minutes[r])} does not advance past previous record"))

    def raise_first(self) -> None:
        """Raise the error of the first faulty line, if any."""
        if self.faults:
            raise min(self.faults, key=lambda fault: fault[:2])[2]()

    def table(self, fields: tuple[str, ...]) -> MeasurementTable:
        """The parsed table, or the error of the first faulty line."""
        self.raise_first()
        return MeasurementTable(fields, self.minutes, self.values, self.present)


def parse_solar_wind(content: bytes) -> MeasurementTable:
    """Parse the 8-column solar-wind format; an empty file gives an empty table."""
    scan = _Scan(content, len(SOLAR_WIND_FIELDS))
    scan.check_order()
    names = ("fma", "speed", "density", "temperature")
    columns = [SOLAR_WIND_FIELDS.index(name) for name in names]
    negative = scan.present[:, columns] & (scan.values[:, columns] < 0)

    def error(record: int) -> ValueOutOfRange:
        k = int(np.flatnonzero(negative[record])[0])
        value = float(scan.values[record, columns[k]])
        return ValueOutOfRange(scan.line_no(record),
                               f"{names[k]} must be non-negative, got {value}")

    scan.check(negative.any(axis=1), _RANGE, error)
    return scan.table(SOLAR_WIND_FIELDS)


def parse_dst(content: bytes) -> MeasurementTable:
    """Parse the hourly Dst format (timestamps must sit on hour boundaries)."""
    scan = _Scan(content, 1)
    scan.check_order()
    scan.check(scan.minutes % 60 != 0, _ALIGNMENT, lambda r: BadTimestamp(
        scan.line_no(r), "dst timestamps must be hour-aligned"))
    return scan.table(("dst",))


def parse_kp(content: bytes) -> MeasurementTable:
    """Parse the 3-hourly Kp format; values must lie in [0, 9]."""
    scan = _Scan(content, 1)
    scan.check_order()
    scan.check(scan.minutes % 180 != 0, _ALIGNMENT, lambda r: BadTimestamp(
        scan.line_no(r), "kp timestamps must be 3-hour-aligned"))
    values, present = scan.values[:, 0], scan.present[:, 0]
    scan.check(present & ((values < 0.0) | (values > 9.0)), _RANGE, lambda r: ValueOutOfRange(
        scan.line_no(r), f"kp must lie in [0, 9], got {float(values[r])}"))
    return scan.table(("kp",))


def parse_dataset_rows(buf: bytes, end: int, cols: int,
                       first_line: int) -> tuple[int, np.ndarray, np.ndarray]:
    """The rows of the dataset CSV lines in ``buf[:end]``, the first of them line ``first_line``.

    A row is ``cols`` numbers, the last of them the target, then the row's
    timestamp.  Returns the number of line ends read, the row minutes and
    the ``(rows, cols)`` values.  A fault raises the error of the first
    faulty line; within a line, faults rank left to right: the cell count,
    a cell that is empty or not a finite number, a target outside [0, 9],
    then the stamp.  A chunk of clean LF lines reaches the scanner as the
    bytes object given.
    """
    scan = _Scan(buf, cols, end=end, stamp_last=True, first_line=first_line)
    targets = scan.values[:, -1]
    scan.check((targets < 0.0) | (targets > 9.0), _RANGE, lambda r: ValueOutOfRange(
        scan.line_no(r), f"target must lie in [0, 9], got {float(targets[r])}"))
    scan.raise_first()
    return scan.newlines, scan.minutes, scan.values


# --------------------------------------------------------------------------
# serialisation (inverse of the parsers; floats via repr for exact round-trip)


def format_table(table: MeasurementTable) -> bytes:
    """The table in its canonical format, one line per record, gaps empty."""
    return format_rows(table.values, format_minutes(table.minutes), table.present,
                       stamp_last=False)


#: The most bytes ``kp_format_rows`` writes for a value and its comma:
#: ``-2.2250738585072014e-308`` is 24 bytes.
_CELL_BYTES = 25


def format_rows(values: np.ndarray, stamps: list[str], present: np.ndarray | None = None,
                *, stamp_last: bool) -> bytes:
    """CSV lines of the rows of ``values``, each value as ``repr`` writes it.

    Line ``r`` holds ``stamps[r]`` (ASCII) and the values of row ``r``: the
    stamp first, or last with ``stamp_last``.  A value whose ``present``
    flag is False is an empty cell; without ``present`` every value is
    written.  The compiled ``kp_format_rows`` of ``csvscan.c`` writes the
    lines; where it cannot be built, :func:`_format_rows` does.
    """
    return bytes(_formatted(values, stamps, present, stamp_last))


def _formatted(values, stamps, present, stamp_last) -> bytes | memoryview:
    """:func:`format_rows`'s bytes, or the used part of the kernel's buffer that holds them."""
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.ndim != 2 or len(stamps) != values.shape[0]:
        raise ValueError("values must be 2-D with one stamp per row")
    flags = None
    if present is not None:
        present = np.ascontiguousarray(present, dtype=bool)
        if present.shape != values.shape:
            raise ValueError("present must flag each value")
        flags = present.ctypes.data
    library = splitkernel.load("csvscan")
    if library is None:
        return _format_rows(values, stamps, present, stamp_last)
    rows, cols = values.shape
    encoded = np.array(stamps, dtype=bytes)
    out = np.empty(rows * (cols * _CELL_BYTES + encoded.itemsize + 2), dtype=np.uint8)
    size = library.kp_format_rows(values.ctypes.data, flags, rows, cols, encoded.ctypes.data,
                                  encoded.itemsize, stamp_last, out.ctypes.data)
    return out[:size].data


def _format_rows(values: np.ndarray, stamps: list[str], present: np.ndarray | None,
                 stamp_last: bool) -> bytes:
    """:func:`format_rows` in Python: the reference for ``kp_format_rows``.

    Dataset rows (stamp last) format each distinct bit pattern once and
    gather the strings per row: a raw solar-wind sample recurs in the lag
    columns of consecutive dataset rows, so most cells of a block repeat
    another.  A measurement table's values rarely repeat, so its cells are
    formatted one by one.
    """
    if stamp_last:
        # Bit patterns, not values, so that -0.0 keeps its sign.
        distinct, inverse = np.unique(values.view(np.int64).ravel(), return_inverse=True)
        text = np.array([repr(v) for v in distinct.view(np.float64).tolist()], dtype=object)
        cells = text[inverse].reshape(values.shape)
    else:
        cells = np.array([repr(v) for v in values.ravel().tolist()], dtype=object)
        cells = cells.reshape(values.shape)
    if present is not None:
        cells[~present] = ""
    lines = cells.tolist()
    if stamp_last:
        text = "".join(",".join(line) + "," + stamp + "\n" for line, stamp in zip(lines, stamps))
    else:
        text = "".join(stamp + "," + ",".join(line) + "\n" for line, stamp in zip(lines, stamps))
    return text.encode("ascii")


# --------------------------------------------------------------------------
# the dataset CSV: the feature names then ``target,row_time``, then its rows

_BLOCK_ROWS = 256  # rows per block of a CSV file as it is written
_CHUNK_BYTES = 1 << 20  # bytes per read of the dataset CSV


def write_rows(handle: BinaryIO, header: Sequence[str], columns: Sequence[np.ndarray],
               stamps: list[str], *, stamp_last: bool) -> None:
    """Write the ``header`` line, then each row as :func:`format_rows` writes it, to
    a binary handle.  Row ``r`` is ``stamps[r]`` and row ``r`` of each of
    ``columns`` (1-D columns or 2-D blocks of them)."""
    handle.write((",".join(header) + "\n").encode("utf-8"))
    for start in range(0, len(stamps), _BLOCK_ROWS):
        stop = start + _BLOCK_ROWS
        handle.write(_formatted(np.column_stack([column[start:stop] for column in columns]),
                                stamps[start:stop], None, stamp_last))


def write_dataset(handle: BinaryIO, data) -> None:
    """Write the dataset CSV of ``data``, a :class:`.fusion.FusedDataset`, to a binary handle."""
    write_rows(handle, [*data.feature_names, "target", "row_time"], (data.rows, data.targets),
               format_minutes(data.row_minutes), stamp_last=True)


def format_dataset(data) -> bytes:
    """The bytes :func:`write_dataset` writes."""
    handle = io.BytesIO()
    write_dataset(handle, data)
    return handle.getvalue()


def read_dataset(path: str | Path) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """The feature names, rows, targets and row minutes of a dataset CSV file.

    Blank and ``#`` lines are skipped, as is trailing whitespace.  A fault raises
    the :class:`~kpforecast.errors.DataError` that names its line: :class:`EmptyDataset`
    (no header), :class:`MalformedLine` (a bad header, cell count or number),
    :class:`ValueOutOfRange` (a target outside [0, 9]) or :class:`BadTimestamp`.
    Bytes that are not UTF-8 raise ``UnicodeDecodeError`` first."""
    with open(path, "rb") as handle:
        return _read_dataset(handle)


def parse_dataset(content: bytes) -> tuple[tuple[str, ...], np.ndarray, np.ndarray, np.ndarray]:
    """:func:`read_dataset` of a file holding ``content``."""
    return _read_dataset(io.BytesIO(content))


def _read_dataset(handle: BinaryIO):
    """The dataset in a binary file, in arrays allocated once for its line count
    and grown only if too short (mixed line ends, or a file that grew)."""
    capacity = _count_lines(handle)
    handle.seek(0)
    names, line_no, tail = _read_header(handle)
    out = [np.empty((capacity, len(names))), np.empty(capacity), np.empty(capacity, np.int64)]
    count = 0
    while chunk := handle.read(_CHUNK_BYTES):
        chunk = tail + chunk
        end = _lines_end(chunk)
        tail = chunk[end:]
        if chunk.find(b"\r", 0, end) >= 0:  # made LF here, so the chunk is not held twice
            chunk = _lf(chunk[:end])
            end = len(chunk)
        count, line_no = _fill(out, count, chunk, end, line_no)
    count, _ = _fill(out, count, tail, len(tail), line_no)
    return (names, *(array[:count] for array in out))


def _lines_end(buf: bytes, start: int = 0) -> int:
    """The end of the last whole line of ``buf``, found in ``buf[start:]``; 0 if none ends there.

    A line ends after a ``\\n``, or after a ``\\r`` that is not the last byte: a
    last ``\\r`` may begin a ``\\r\\n`` that the next bytes read complete."""
    return max(buf.rfind(b"\n", start), buf.rfind(b"\r", start, len(buf) - 1)) + 1


def _count_lines(handle: BinaryIO) -> int:
    """One more than the line ends of ``handle``, whose bytes must be UTF-8.

    A chunk whose lines all end alike (``\\n``, ``\\r\\n`` or ``\\r``) has as
    many line ends as it has of the commoner of ``\\n`` and ``\\r``, give or
    take a ``\\r\\n`` split between two chunks; a chunk that mixes them has
    more, and the reader's arrays then grow.  An ASCII chunk with no ``\\r``
    costs one ``bytes.count`` and one ``bytes.isascii``.  Bytes that are not
    UTF-8 raise, before any fault of a line, the ``UnicodeDecodeError`` of
    decoding the file whole, which counts the byte's position from its start.
    """
    decoder = codecs.getincrementaldecoder("utf-8")()
    ends = 0
    try:
        while chunk := handle.read(_CHUNK_BYTES):
            newlines = chunk.count(b"\n")
            ends += max(newlines, chunk.count(b"\r")) if b"\r" in chunk else newlines
            if not chunk.isascii() or decoder.getstate()[0]:  # or a character runs on
                decoder.decode(chunk)
        decoder.decode(b"", final=True)
    except UnicodeDecodeError:
        handle.seek(0)
        handle.read().decode("utf-8")
        raise
    return ends + 1


def _read_header(handle: BinaryIO) -> tuple[tuple[str, ...], int, bytes]:
    """The feature names of the header, the number of the line after it, and
    the rest of the bytes read to find it.

    The handle is read up to each ``\\n``, but a buffer at most at a time, so
    a file whose lines end in a lone ``\\r`` is not read whole to find it."""
    line_no, buf = 0, b""  # the lines before ``buf``, and the bytes read after them
    while True:
        block = handle.readline(io.DEFAULT_BUFFER_SIZE)
        buf += block
        end = _lines_end(buf, max(len(buf) - len(block) - 1, 0)) if block else len(buf)
        lines = _lf(buf[:end]).decode("utf-8").split("\n")
        for k, line in _data_lines(lines):
            header = line.split(",")
            if len(header) < 3 or header[-2:] != ["target", "row_time"]:
                raise MalformedLine(line_no + k, "dataset CSV header must end with target,row_time")
            return tuple(header[:-2]), line_no + k + 1, "\n".join(lines[k:]).encode() + buf[end:]
        if not block:
            raise EmptyDataset("dataset CSV has no header line")
        line_no, buf = line_no + len(lines) - 1, buf[end:]


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


# --------------------------------------------------------------------------
# grid regularisation


def to_series(table: MeasurementTable, field: str, cadence_minutes: int) -> MeasurementSeries:
    """Place one column of a table onto the cadence grid anchored at its first record.

    Grid slots with no record, and records whose ``field`` is a gap, come out
    with ``present == False``.  A record whose timestamp is off the grid
    raises :class:`CadenceMismatch`; an empty table raises
    :class:`EmptyDataset`.
    """
    if not len(table):
        raise EmptyDataset(f"no records to build series {field!r}")
    j = table.fields.index(field)
    offsets = table.minutes - table.minutes[0]
    off_grid = offsets % cadence_minutes != 0
    if off_grid.any():
        bad = -1 if off_grid[-1] else int(np.flatnonzero(off_grid)[0])
        raise CadenceMismatch(
            f"{field}: record at {format_timestamp(table.minutes[bad])} is off the "
            f"{cadence_minutes}-minute grid anchored at {format_timestamp(table.minutes[0])}"
        )
    slots = offsets // cadence_minutes
    present = table.present[:, j]
    values = np.full(int(slots[-1]) + 1, np.nan)
    values[slots[present]] = table.values[present, j]
    on_grid = np.zeros(values.size, dtype=bool)
    on_grid[slots[present]] = True
    return MeasurementSeries(field, cadence_minutes, table.minutes[0], values, on_grid)


def solar_wind_series(table: MeasurementTable) -> tuple[MeasurementSeries, ...]:
    """All seven solar-wind series in canonical order."""
    return tuple(to_series(table, f, 5) for f in SOLAR_WIND_FIELDS)
