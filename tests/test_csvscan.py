"""The compiled CSV scanner reads every file exactly as the Python parsers do,
and every reader ends a line where ``open()`` does: at ``\\n``, ``\\r\\n`` or ``\\r``."""

from __future__ import annotations

import io
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from kpforecast import datagen, fusion, ingest, splitkernel
from kpforecast.cli import main
from kpforecast.errors import DataError
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
        return _PARSERS[kind](content.decode("utf-8"))
    except (DataError, UnicodeDecodeError) as exc:
        return exc


def _dataset_file(path):
    try:
        return FusedDataset.read_csv(path)
    except (DataError, UnicodeDecodeError) as exc:
        return exc


def _dataset_text(content: bytes):
    try:
        return FusedDataset.from_csv(content.decode("utf-8"))
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
    with mock.patch.object(fusion, "_CHUNK_BYTES", chunk):
        from_file, from_text = _dataset_file(path), _dataset_text(content)
    if isinstance(from_text, UnicodeDecodeError):  # the bytes are not text
        assert isinstance(from_file, UnicodeDecodeError)
    else:
        assert _bits(from_text) == _bits(from_file)
    with mock.patch.object(splitkernel, "load", _scanner_off):
        assert _bits(_dataset_file(path)) == _bits(from_file)
        assert _bits(_dataset_text(content)) == _bits(from_text)


@given(data=st.data())
def test_the_scanner_reads_every_clean_file(scanner, data):
    """A clean file never falls back, so the differential tests compare two paths."""
    for kind in sorted(_PARSERS):
        text = "\n".join(data.draw(measurement_lines(kind))) + "\n"
        assert ingest._scan_compiled(text, _WIDTHS[kind]) is not None
    text = "\n".join(data.draw(dataset_lines()))
    assert fusion._scan_csv(io.BytesIO(text.encode("ascii"))) is not None


def test_the_scanner_reads_the_synthetic_archive(scanner, tmp_path):
    datagen.write_csv(datagen.SynthConfig(seed=2, n_days=3), tmp_path)
    for kind, name in (("solar wind", "solar_wind.csv"), ("dst", "dst.csv"), ("kp", "kp.csv")):
        text = (tmp_path / name).read_text(encoding="utf-8")
        assert ingest._scan_compiled(text, _WIDTHS[kind]) is not None
        compiled = _bits(_PARSERS[kind](text))
        with mock.patch.object(splitkernel, "load", _scanner_off):
            assert _bits(_PARSERS[kind](text)) == compiled
        with mock.patch.object(ingest._Scan, "_scan_lines", None):  # CRLF text is scanned
            assert _bits(_PARSERS[kind](text.replace("\n", "\r\n"))) == compiled


def _record(kind, minute):
    return ",".join([format_minutes([minute])[0], *["1.5"] * _WIDTHS[kind]])


@pytest.mark.parametrize("sep", _NOT_LINE_ENDS, ids=lambda sep: f"U+{ord(sep):04X}")
def test_only_universal_newlines_end_a_line(sep, tmp_path):
    """Text after a separator that ``str.splitlines`` ends lines at, and
    ``open()`` does not, stays in its comment for every reader."""
    for kind, parse in _PARSERS.items():
        text = f"{_record(kind, 0)}\n# note{sep}{_record(kind, 180)}\n"
        assert len(parse(text)) == 1, kind
    text = ("x0,target,row_time\n1.0,2.0,1970-01-01T00:00Z\n"
            f"# note{sep}1.0,2.0,1970-01-01T03:00Z\n")
    path = tmp_path / "data.csv"
    path.write_bytes(text.encode("utf-8"))
    assert FusedDataset.from_csv(text).n_rows == 1
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
