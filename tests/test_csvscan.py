"""The compiled CSV scanner reads every file exactly as the Python parsers do,
its writer writes every number as ``repr`` does, and every reader ends a
line where ``open()`` does: at ``\\n``, ``\\r\\n`` or ``\\r``."""

from __future__ import annotations

import ctypes
import math
import re
import struct
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kpforecast import datagen, ingest, splitkernel
from kpforecast.cli import main
from kpforecast.errors import DataError, MalformedLine
from kpforecast.fusion import FusedDataset
from kpforecast.ingest import SOLAR_WIND_FIELDS, format_minutes


@pytest.fixture(scope="module")
def scanner():
    found = splitkernel.load("csvscan")
    if found is None:
        pytest.skip("the CSV scanner cannot be built here")
    return found


_PARSERS = {"solar wind": ingest.parse_solar_wind, "dst": ingest.parse_dst,
            "kp": ingest.parse_kp}
_WIDTHS = {"solar wind": len(SOLAR_WIND_FIELDS), "dst": 1, "kp": 1}

# Spellings of numbers in [0, 9] that both paths read: the repr of a drawn
# float, or one of these forms of it.
_SPELLINGS = ("{!r}", "{:.3f}", "{:e}", "{:E}", "+{!r}", "{:.0f}", "{:.0f}.", "{:.17g}")


@st.composite
def _cells(draw):
    value = draw(st.floats(0.0, 9.0))
    text = draw(st.sampled_from(_SPELLINGS)).format(value)
    if text.startswith("0.") and text[2:3].isdigit() and draw(st.booleans()):
        return text[1:]  # .5
    return text


@st.composite
def measurement_lines(draw, kind):
    """The lines of a valid measurement file: times on the 3-hour grid (which
    suits all three cadences), strictly increasing, some fields empty."""
    minute = 180 * draw(st.integers(-3_000_000, 10_000_000))
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        cells = [draw(st.one_of(_cells(), st.just(""))) for _ in range(_WIDTHS[kind])]
        lines.append(",".join([format_minutes([minute])[0], *cells]))
        minute += 180 * draw(st.integers(1, 3))
    return lines


@st.composite
def dataset_lines(draw):
    """The lines of a valid dataset CSV: a header, then rows of [features | target | time]."""
    width = draw(st.integers(1, 4))
    lines = [",".join([*(f"x{i}_m{5 * i}" for i in range(width)), "target", "row_time"])]
    for _ in range(draw(st.integers(0, 6))):
        minute = draw(st.integers(-1_035_593_280, 4_223_371_679))
        lines.append(",".join([*(draw(_cells()) for _ in range(width + 1)),
                               format_minutes([minute])[0]]))
    return lines


_CELL_EDITS = ["1_0", "٣", "1٥.5", "0x1p3", "nan", "inf", "-inf", "1e400", "-1e400",
               "1e-400", "", " 1", "1 ", "1e", ".", "+-1", "1.5.2", "--1", "1e+", "e5",
               "9" * 400, "0." + "0" * 330 + "49", "-0", "12", "-3", "1\x00"]
_STAMP_EDITS = ["2021-02-30T00:00Z", "2020-02-29T00:00Z", "2021-13-01T00:00Z",
                "2021-01-01T24:00Z", "2021-01-01T00:60Z", "0000-01-01T00:00Z",
                "2021-01-01T00:00", "2021-01-01T00:00:30Z", "2021-1-01T00:00Z",
                "2021-01-01 00:00Z", "٢021-01-01T00:00Z", "2021-01-01T00:00+00:00",
                "2021-01-01T00:05Z", "2021-01-01T01:00Z", "2021-01-01T00:00 ",
                "2021-01-01T00:00z", " 2021-01-01T00:00Z", "2021-01-01T00:00:00:00Z",
                "12021-01-01T00:00Z", ""]
# Numbers outside the ranges of Kp, a target or a non-negative quantity.
_RANGE_EDITS = ["-1", "-0.0", "-1e-300", "9.000000000000002", "9.5", "12", "1e300"]
_LINE_EDITS = ["crlf", "cr", "trailing spaces", "comment", "blank", "spaces line",
               "cell", "range", "stamp", ":00", "drop cell", "add cell", "control",
               "non-UTF-8"]
# The line ends of str.splitlines that are not line ends of open(); in a
# file they are characters like any other.
_NOT_LINE_ENDS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
_INSERTS = ["\t", *_NOT_LINE_ENDS, "\x7f", "\x00", "é", "\\"]


@st.composite
def one_edit(draw, lines, stamp_column):
    """The bytes of ``lines`` after one edit of one of them (or none)."""
    lines = list(lines)
    edit = draw(st.sampled_from([None, *_LINE_EDITS]))
    at = draw(st.integers(0, len(lines) - 1))
    cells = lines[at].split(",")
    if edit == "crlf":
        lines[at] += "\r"
    elif edit == "cr":
        lines[at] = lines[at].replace(",", "\r", 1)
    elif edit == "trailing spaces":
        lines[at] += draw(st.sampled_from([" ", "  ", " \t"]))
    elif edit == "comment":
        # A record after \r starts a line of its own; after any other
        # separator it is part of the comment.
        breaks = [f"#{end}{lines[-1]}" for end in ("\r", *_NOT_LINE_ENDS)]
        lines.insert(at, draw(st.sampled_from(["#", "# a note", "#1,2,3", "# é", " # x",
                                               *breaks])))
    elif edit in ("blank", "spaces line"):
        lines.insert(at, "" if edit == "blank" else "   ")
    elif edit == "cell":
        j = draw(st.integers(0, len(cells) - 1))
        cells[j] = draw(st.sampled_from(_CELL_EDITS))
        lines[at] = ",".join(cells)
    elif edit == "range":  # a value cell; in a dataset, the target half the time
        j = draw(st.sampled_from([-2, -2, *range(len(cells) - 1)] if stamp_column
                                 else range(1, len(cells))))
        cells[j] = draw(st.sampled_from(_RANGE_EDITS))
        lines[at] = ",".join(cells)
    elif edit == "stamp":
        cells[stamp_column] = draw(st.sampled_from(_STAMP_EDITS))
        lines[at] = ",".join(cells)
    elif edit == ":00":
        cells[stamp_column] = cells[stamp_column].replace("Z", ":00Z")
        lines[at] = ",".join(cells)
    elif edit == "drop cell":
        del cells[draw(st.integers(0, len(cells) - 1))]
        lines[at] = ",".join(cells)
    elif edit == "add cell":
        cells.insert(draw(st.integers(0, len(cells))), draw(_cells()))
        lines[at] = ",".join(cells)
    elif edit == "control":
        k = draw(st.integers(0, len(lines[at])))
        lines[at] = lines[at][:k] + draw(st.sampled_from(_INSERTS)) + lines[at][k:]
    ending = draw(st.sampled_from(["\n", "", "\n\n"]))
    content = ("\n".join(lines) + ending).encode("utf-8")
    if edit == "non-UTF-8":
        k = draw(st.integers(0, len(content)))
        invalid = draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"]))
        content = content[:k] + invalid + content[k:]
    return content


_LOAD = splitkernel.load


def _scanner_off(name="splitkernel"):
    """``splitkernel.load`` as it is where the scanner cannot be built."""
    return None if name == "csvscan" else _LOAD(name)


def _bits(result):
    """A parsed table or dataset as comparable bytes, or its error."""
    if isinstance(result, Exception):
        return type(result), str(result)
    if isinstance(result, FusedDataset):
        arrays = (result.rows, result.targets, result.row_minutes)
        return result.feature_names, [(a.shape, a.dtype.str, a.tobytes()) for a in arrays]
    arrays = (result.minutes, result.values, result.present)
    return result.fields, [(a.shape, a.dtype.str, a.tobytes()) for a in arrays]


def _measurement(kind, content: bytes):
    try:
        return _PARSERS[kind](content)
    except (DataError, UnicodeDecodeError) as exc:
        return exc


def _dataset_file(path):
    try:
        return FusedDataset.read_csv(path)
    except (DataError, UnicodeDecodeError) as exc:
        return exc


def _dataset_text(content: bytes):
    try:
        return FusedDataset.from_csv(content)
    except (DataError, UnicodeDecodeError) as exc:
        return exc


@settings(max_examples=500, deadline=None)
@given(data=st.data(), kind=st.sampled_from(sorted(_PARSERS)))
def test_measurement_parsers_agree_on_both_paths(scanner, data, kind):
    lines = data.draw(measurement_lines(kind), label="lines")
    content = data.draw(one_edit(lines, 0), label="content")
    compiled = _bits(_measurement(kind, content))
    with mock.patch.object(splitkernel, "load", _scanner_off):
        assert _bits(_measurement(kind, content)) == compiled


@settings(max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), chunk=st.sampled_from([1, 2, 7, 64, 1 << 20]))
def test_dataset_readers_agree_on_both_paths(scanner, tmp_path, data, chunk):
    lines = data.draw(dataset_lines(), label="lines")
    content = data.draw(one_edit(lines, -1), label="content")
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        from_file, from_text = _dataset_file(path), _dataset_text(content)
    assert _bits(from_text) == _bits(from_file)
    with mock.patch.object(splitkernel, "load", _scanner_off):
        assert _bits(_dataset_file(path)) == _bits(from_file)
        assert _bits(_dataset_text(content)) == _bits(from_text)


@given(data=st.data())
def test_the_scanner_reads_every_clean_file(scanner, data):
    """A clean file never falls back, so the differential tests compare two paths."""
    with mock.patch.object(ingest._Scan, "_scan_lines", None):
        for kind in sorted(_PARSERS):
            _PARSERS[kind](("\n".join(data.draw(measurement_lines(kind))) + "\n").encode())
        FusedDataset.from_csv("\n".join(data.draw(dataset_lines())).encode())


def test_the_scanner_reads_the_synthetic_archive(scanner, tmp_path):
    datagen.write_csv(datagen.SynthConfig(seed=2, n_days=3), tmp_path)
    for kind, name in (("solar wind", "solar_wind.csv"), ("dst", "dst.csv"), ("kp", "kp.csv")):
        content = (tmp_path / name).read_bytes()
        with mock.patch.object(ingest._Scan, "_scan_lines", None):  # LF and CRLF are scanned
            compiled = _bits(_PARSERS[kind](content))
            assert _bits(_PARSERS[kind](content.replace(b"\n", b"\r\n"))) == compiled
        with mock.patch.object(splitkernel, "load", _scanner_off):
            assert _bits(_PARSERS[kind](content)) == compiled


_PEAK_CHUNK = 1 << 18


def _traced_read(tmp_path, newline=b"\n"):
    """A 1000 x 200 dataset, the same rows read back from its file with lines
    ending in ``newline``, and the peak memory tracemalloc saw during the read."""
    rng = np.random.default_rng(5)
    n, p = 1000, 200
    data = FusedDataset(tuple(f"x{j}" for j in range(p)), rng.standard_normal((n, p)),
                        rng.uniform(0.0, 9.0, n), 180 * np.arange(n))
    path = tmp_path / "data.csv"
    with open(path, "wb") as handle:
        data.write_csv(handle)
    if newline != b"\n":
        path.write_bytes(path.read_bytes().replace(b"\n", newline))
    with mock.patch.object(ingest, "_CHUNK_BYTES", _PEAK_CHUNK):
        tracemalloc.start()
        try:
            read = FusedDataset.read_csv(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert _bits(read) == _bits(data)
    return read, peak


def test_the_scanner_allocates_the_rows_once(scanner, tmp_path):
    """numpy reports its buffers to tracemalloc: reading holds the rows once,
    plus a raw read, a chunk and one chunk's block, never a second matrix."""
    read, peak = _traced_read(tmp_path)
    assert read.rows.flags.c_contiguous  # so forest.fit reads it without a copy
    assert peak <= read.rows.nbytes + 4 * _PEAK_CHUNK


@pytest.mark.parametrize("load", [_LOAD, _scanner_off], ids=["as built", "without scanner"])
@pytest.mark.parametrize("newline", [b"\r", b"\r\n"], ids=["cr", "crlf"])
def test_a_dataset_with_other_line_ends_is_read_a_chunk_at_a_time(scanner, tmp_path, load,
                                                                  newline):
    """Lines that end in \\r or \\r\\n are counted and cut into chunks as \\n
    lines are, so the read stays within the bound of an LF read: the file is
    never held whole, the arrays are sized once, and a chunk is made LF
    where its bytes as read can be let go."""
    with mock.patch.object(splitkernel, "load", load):
        read, peak = _traced_read(tmp_path, newline)
    assert peak <= read.rows.nbytes + 4 * _PEAK_CHUNK


def test_the_dataset_writer_writes_each_block_from_the_codec_buffer(scanner, tmp_path):
    """numpy reports its buffers to tracemalloc: writing holds one block's
    matrix and the codec's buffer for its text, never a copy of that text."""
    rng = np.random.default_rng(6)
    n, p, rows = 600, 200, ingest._BLOCK_ROWS
    data = FusedDataset(tuple(f"x{j}" for j in range(p)), rng.standard_normal((n, p)),
                        rng.uniform(0.0, 9.0, n), 180 * np.arange(n))
    buffer = rows * ((p + 1) * ingest._CELL_BYTES + len("1970-01-01T00:00Z") + 2)
    text = len(data.to_csv()) * rows // n  # about a block's text
    with open(tmp_path / "data.csv", "wb") as handle:
        tracemalloc.start()
        try:
            data.write_csv(handle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert (tmp_path / "data.csv").read_bytes() == data.to_csv()
    assert peak < buffer + rows * (p + 1) * 8 + text // 4


class _CountedBytes(bytes):
    """Bytes that note each ``count`` of their newlines."""

    def count(self, *args):
        self.counts.append(args)
        return super().count(*args)


@pytest.mark.parametrize("load", [_LOAD, _scanner_off], ids=["as built", "without scanner"])
def test_a_dataset_chunk_counts_its_newlines_once(load):
    """``parse_dataset_rows`` returns the line ends the scanner counted to
    size its arrays, or that the Python pass split, and counts none again."""
    text = b"# note\n1.0,2.0,1970-01-01T00:00Z\n\n1.5,3.0,1970-01-01T03:00Z\n# end\nrest"
    buf = _CountedBytes(text)
    buf.counts = []
    end = text.rfind(b"\n") + 1
    with mock.patch.object(splitkernel, "load", load):
        lines, minutes, values = ingest.parse_dataset_rows(buf, end, 2, 7)
    assert lines == text.count(b"\n", 0, end) == 5
    assert minutes.tolist() == [0, 180] and values.tolist() == [[1.0, 2.0], [1.5, 3.0]]
    assert len(buf.counts) == (load("csvscan") is not None)


def _random_dataset(rows, width=3, seed=4):
    rng = np.random.default_rng(seed)
    return FusedDataset(tuple(f"x{j}" for j in range(width)), rng.standard_normal((rows, width)),
                        rng.uniform(0.0, 9.0, rows), 180 * np.arange(rows))


def test_a_refused_chunk_alone_takes_the_python_pass(scanner, tmp_path):
    """A line the scanner refuses sends only its own chunk to the Python
    pass; the file is not read again from the start."""
    chunk = 64
    lines = _random_dataset(40).to_csv().decode().splitlines()
    lines[-1] = "abc," + lines[-1].split(",", 1)[1]
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    passes = []
    scan_lines = ingest._Scan._scan_lines

    def counted(self, cols):
        passes.append(self.content[:self.end])
        return scan_lines(self, cols)

    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
            mock.patch.object(ingest._Scan, "_scan_lines", counted):
        with pytest.raises(MalformedLine, match=rf"^line {len(lines)}: unparsable number 'abc'$"):
            FusedDataset.read_csv(path)
    assert len(passes) == 1
    assert passes[0].endswith((lines[-1] + "\n").encode())
    assert len(passes[0]) <= chunk + max(map(len, lines)) + 1


@pytest.mark.parametrize("chunk", [7, 1 << 20])
@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
def test_a_dataset_with_other_line_ends_reads_through_the_scanner(scanner, tmp_path, newline,
                                                                   chunk):
    """Lines that end in \\r\\n or \\r read as LF lines do, with no Python pass,
    whichever chunk a line end falls in."""
    data = _random_dataset(30)
    lf, other = tmp_path / "lf.csv", tmp_path / "other.csv"
    lf.write_bytes(data.to_csv())
    other.write_bytes(data.to_csv().replace(b"\n", newline.encode()))
    expected = _bits(FusedDataset.read_csv(lf))
    assert expected == _bits(data)
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
            mock.patch.object(ingest._Scan, "_scan_lines", None):
        assert _bits(FusedDataset.read_csv(other)) == expected


def _record(kind, minute):
    return ",".join([format_minutes([minute])[0], *["1.5"] * _WIDTHS[kind]])


@pytest.mark.parametrize("sep", _NOT_LINE_ENDS, ids=lambda sep: f"U+{ord(sep):04X}")
def test_only_universal_newlines_end_a_line(sep, tmp_path):
    """Text after a separator that ``str.splitlines`` ends lines at, and
    ``open()`` does not, stays in its comment for every reader."""
    for kind, parse in _PARSERS.items():
        text = f"{_record(kind, 0)}\n# note{sep}{_record(kind, 180)}\n"
        assert len(parse(text.encode())) == 1, kind
    text = ("x0,target,row_time\n1.0,2.0,1970-01-01T00:00Z\n"
            f"# note{sep}1.0,2.0,1970-01-01T03:00Z\n")
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert FusedDataset.from_csv(text.encode("utf-8")).n_rows == 1
    assert FusedDataset.read_csv(path).n_rows == 1
    config = tmp_path / "synth.toml"
    config.write_bytes(f"# note{sep}bogus = 1\ndays = 1\n".encode("utf-8"))
    assert main(["synth", "--config", str(config), "--out", str(tmp_path / "out")]) == 0


def _faulty(kind):
    """The lines of a measurement file whose fifth line is out of order."""
    return [_record(kind, 0), "# a note", "", _record(kind, 180), _record(kind, 180)]


@pytest.mark.parametrize("load", [_LOAD, _scanner_off], ids=["as built", "without scanner"])
def test_crlf_and_cr_text_parses_as_lf_text_does(load):
    with mock.patch.object(splitkernel, "load", load):
        for kind in _PARSERS:
            for lines in (_faulty(kind)[:4], _faulty(kind)):
                expected = _bits(_measurement(kind, ("\n".join(lines) + "\n").encode()))
                for end in ("\r\n", "\r"):
                    got = _bits(_measurement(kind, (end.join(lines) + end).encode()))
                    assert got == expected, (kind, end)
            assert expected[1].startswith("line 5:")


@pytest.mark.parametrize("end, cols", [(-1, 1), (5, 1), (4, 0)])
def test_scan_rows_refuses_what_it_cannot_pass_to_the_kernel(end, cols):
    with pytest.raises(ValueError):
        ingest.scan_rows(b"1,2\n", end, cols, stamp_last=False)


@pytest.mark.parametrize("load", [_LOAD, _scanner_off], ids=["as built", "without scanner"])
@pytest.mark.parametrize("row", ["1.0,,2.0,1970-01-01T03:00Z", "1.0,2.0,,1970-01-01T03:00Z"],
                         ids=["feature", "target"])
def test_an_empty_dataset_cell_is_a_malformed_line(tmp_path, load, row):
    """The scanner reads an empty cell as a gap, as in a measurement file;
    a dataset has no gaps, so its reader names the line from the scanned rows."""
    text = f"x0,x1,target,row_time\n1.0,2.0,3.0,1970-01-01T00:00Z\n{row}\n".encode()
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    with mock.patch.object(splitkernel, "load", load):
        if load("csvscan") is not None:
            buf = row.encode("ascii")
            scanned = ingest.scan_rows(buf, len(buf), 3, stamp_last=True)
            assert scanned[3].tolist() == [[cell != "" for cell in row.split(",")[:3]]]
            with mock.patch.object(ingest._Scan, "_scan_lines", None):
                with pytest.raises(MalformedLine, match=r"^line 3: unparsable number ''$"):
                    FusedDataset.from_csv(text)
        for read in (lambda: FusedDataset.read_csv(path), lambda: FusedDataset.from_csv(text)):
            with pytest.raises(MalformedLine, match=r"^line 3: unparsable number ''$"):
                read()


# -- number text, both ways --------------------------------------------------

#: POW5_MIN to POW5_MAX of csvscan.c, the q of every entry of ``kp_pow5``.
_POW5_MIN, _POW5_MAX = (
    int(re.search(rf"^#define POW5_{end} \(?(-?\d+)\)?$",
                  splitkernel.source_path("csvscan").read_text(), re.M).group(1))
    for end in ("MIN", "MAX"))
_POW5_RANGE = range(_POW5_MIN, _POW5_MAX + 1)


def test_the_powers_of_five_are_exact(scanner):
    """``kp_pow5`` holds the top 128 bits of 5^q, truncated, for every q."""
    table = (ctypes.c_uint64 * (2 * len(_POW5_RANGE))).in_dll(scanner, "kp_pow5")
    for i, q in enumerate(_POW5_RANGE):
        if q >= 0:
            bits = (5**q).bit_length()
            expected = 5**q >> (bits - 128) if bits > 128 else 5**q << (128 - bits)
        else:
            expected = (1 << ((5**-q).bit_length() + 127)) // 5**-q
        assert table[2 * i] << 64 | table[2 * i + 1] == expected, q


def _formatted(scanner, values):
    """Each value as ``kp_format_rows`` writes it."""
    text = ingest.format_rows(np.reshape(values, (-1, 1)), ["t"] * len(values), stamp_last=False)
    return [line.removeprefix("t,") for line in text.decode("ascii").split("\n")[:-1]]


def _scanned(scanner, texts):
    """The value ``kp_scan_rows`` reads from each text, as ``float.hex``,
    or None where it refuses the text; the same with the stamp first and last."""
    line_no, stamp, value = np.empty(1, dtype=np.int64), np.empty(1, dtype=np.int64), np.empty(1)
    present = np.empty(1, dtype=bool)
    read = []
    for text in texts:
        both = []
        for stamp_last, line in ((False, f"1970-01-01T00:00Z,{text}"),
                                 (True, f"{text},1970-01-01T00:00Z")):
            line = line.encode("ascii")
            count = scanner.kp_scan_rows(line, len(line), 1, stamp_last, 1, line_no.ctypes.data,
                                         stamp.ctypes.data, value.ctypes.data, present.ctypes.data)
            both.append(float(value[0]).hex() if count == 1 and present[0] else None)
        assert both[0] == both[1], text
        read.append(both[0])
    return read


def _read(text):
    """``float(text)`` as ``float.hex``, or None if it is not finite."""
    value = float(text)
    return value.hex() if math.isfinite(value) else None


_BIT_PATTERNS = st.integers(0, 2**64 - 1).map(
    lambda bits: struct.unpack("<d", struct.pack("<Q", bits))[0])
_DOUBLES = st.one_of(_BIT_PATTERNS.filter(math.isfinite), st.floats(allow_nan=False,
                                                                     allow_infinity=False))


@settings(max_examples=300)
@given(values=st.lists(st.one_of(_BIT_PATTERNS, st.floats()), min_size=1, max_size=64))
def test_the_writer_writes_each_number_as_repr_does(scanner, values):
    assert _formatted(scanner, values) == [repr(v) for v in values]


@settings(max_examples=300)
@given(values=st.lists(_DOUBLES, min_size=1, max_size=64), spelling=st.sampled_from(_SPELLINGS))
def test_the_scanner_reads_each_number_as_float_does(scanner, values, spelling):
    texts = [spelling.format(abs(v)) for v in values]
    texts = [f"-{t.lstrip('+')}" if math.copysign(1.0, v) < 0 else t for v, t in zip(values, texts)]
    assert _scanned(scanner, texts) == [_read(text) for text in texts]


@settings(max_examples=300)
@given(digits=st.text("0123456789", min_size=1, max_size=24), exponent=st.integers(-360, 330),
       point=st.integers(0, 24))
def test_the_scanner_reads_long_mantissas_as_float_does(scanner, digits, exponent, point):
    """Mantissas of 1 to 24 digits, the point anywhere in them: past 19
    significant digits the scanner hands the number to strtod."""
    text = f"{digits[:point]}.{digits[point:]}e{exponent}"
    assert _scanned(scanner, [text]) == [_read(text)]


_HAND_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-323, 2.2250738585072014e-308,
                2.225073858507201e-308, 1.7976931348623157e308, -1.7976931348623157e308,
                1e-05, 0.0001, 0.00012, 1e16, 1e15, 9999999999999998.0, 123456789012345680.0,
                1e22, 1e23, 0.1, 0.3, 2 / 3, 1.0, -1.5, 1125899906842624.2,
                4503599627370497.0, 9007199254740992.0, 2.0**-1022, 2.0**-1000, 2.0**1000]


@pytest.mark.parametrize("value", _HAND_VALUES, ids=repr)
def test_hand_values_round_trip_as_repr_and_float_do(scanner, value):
    # 1e23 lies halfway between two doubles, and 1125899906842624.2 and .3
    # are equally near 1125899906842624.25: the shortest digits of the even
    # double, and the even last digit
    assert _formatted(scanner, [value]) == [repr(value)]
    assert _scanned(scanner, [repr(value)]) == [value.hex()]


@pytest.mark.parametrize("text", [
    "9007199254740993", "9007199254740993.0", "9007199254740995", "4503599627370496.5",
    "4503599627370497.5", "1125899906842624.25", "1125899906842624.125",
    "2.4703282292062328e-324", "2.4703282292062327e-324", "4.9406564584124654e-324",
    "2.2250738585072011e-308", "1.7976931348623158e308", "1e23", "8.98846567431158e307",
    "12345678901234567", "123456789012345678", "1234567890123456789", "12345678901234567890",
    "9999999999999999999", "18446744073709551615", "18446744073709551616",
    "0.1000000000000000055511151231257827", "1." + "0" * 30, "0" * 25 + "1.5", "1e-400",
    "0e999999999999", "-0e-999", "7.2057594037927933e16", "1e-342", "1e-343", "1e308"])
def test_hand_texts_read_as_float_reads_them(scanner, text):
    # halfway ties, subnormal and overflow edges, and 17 to 20 digits
    assert _scanned(scanner, [text]) == [_read(text)]


@pytest.mark.parametrize("text", ["1.7976931348623159e308", "-1.7976931348623159e308",
                                  "1e309", "1e400", "9" * 400])
def test_a_number_past_the_largest_double_is_refused(scanner, text):
    assert _read(text) is None
    assert _scanned(scanner, [text]) == [None]


@st.composite
def tables(draw):
    """A measurement table of random doubles (any bit pattern), some gaps."""
    records, fields = draw(st.integers(0, 6)), draw(st.integers(1, 4))
    values = draw(st.lists(st.one_of(_BIT_PATTERNS, st.floats()), min_size=records * fields,
                           max_size=records * fields))
    present = draw(st.lists(st.booleans(), min_size=records * fields,
                            max_size=records * fields))
    minutes = 180 * np.cumsum(draw(st.lists(st.integers(1, 10**6), min_size=records,
                                            max_size=records)), dtype=np.int64)
    return ingest.MeasurementTable(tuple(f"v{j}" for j in range(fields)), minutes - 10**7,
                                   np.reshape(values, (records, fields)),
                                   np.reshape(present, (records, fields)))


@pytest.mark.parametrize("load", [_LOAD, _scanner_off], ids=["as built", "without scanner"])
def test_both_writers_keep_the_sign_of_zero(load):
    """0.0 and -0.0 compare equal but are written apart, in either stamp position."""
    values, present = np.array([[0.0, -0.0, 1.0, -0.0, 0.0]]), np.array([[1, 1, 0, 1, 1]])
    with mock.patch.object(splitkernel, "load", load):
        assert (ingest.format_rows(values, ["t"], present, stamp_last=False)
                == b"t,0.0,-0.0,,-0.0,0.0\n")
        assert (ingest.format_rows(values, ["t"], present, stamp_last=True)
                == b"0.0,-0.0,,-0.0,0.0,t\n")


@settings(max_examples=200)
@given(data=st.data(), rows=st.integers(0, 6), width=st.integers(1, 4), gaps=st.booleans(),
       stamp_last=st.booleans())
def test_both_row_layouts_write_as_the_python_writer_does(scanner, data, rows, width, gaps,
                                                          stamp_last):
    """The Python writer deduplicates dataset rows (stamp last) only; either
    way it writes the compiled writer's bytes, signed zeros and gaps too."""
    size = rows * width
    cells = st.one_of(st.sampled_from([0.0, -0.0, 1.5]), _BIT_PATTERNS, st.floats())
    values = np.reshape(data.draw(st.lists(cells, min_size=size, max_size=size)), (rows, width))
    present = None
    if gaps:
        present = np.reshape(data.draw(st.lists(st.booleans(), min_size=size, max_size=size)),
                             (rows, width))
    stamps = [f"t{r}" for r in range(rows)]
    compiled = ingest.format_rows(values, stamps, present, stamp_last=stamp_last)
    with mock.patch.object(splitkernel, "load", _scanner_off):
        assert ingest.format_rows(values, stamps, present, stamp_last=stamp_last) == compiled


@settings(max_examples=200)
@given(table=tables())
def test_format_table_writes_as_the_python_writer_does(scanner, table):
    compiled = ingest.format_table(table)
    with mock.patch.object(splitkernel, "load", _scanner_off):
        assert ingest.format_table(table) == compiled


@settings(max_examples=200)
@given(data=st.data(), rows=st.integers(0, 5), width=st.integers(1, 4),
       block=st.sampled_from([1, 2, 256]))
def test_the_dataset_writer_writes_as_the_python_writer_does(scanner, data, rows, width, block):
    cells = np.reshape(data.draw(st.lists(_DOUBLES, min_size=rows * width,
                                          max_size=rows * width)), (rows, width))
    targets = data.draw(st.lists(st.floats(0.0, 9.0), min_size=rows, max_size=rows))
    dataset = FusedDataset(tuple(f"x{j}" for j in range(width)), cells, targets,
                           180 * np.arange(rows))
    with mock.patch.object(ingest, "_BLOCK_ROWS", block):
        compiled = dataset.to_csv()
        with mock.patch.object(splitkernel, "load", _scanner_off):
            assert dataset.to_csv() == compiled
