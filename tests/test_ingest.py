"""Canonical format parsing, gap handling, errors, and round-trips."""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from kpforecast import ingest
from kpforecast.errors import (
    BadTimestamp,
    CadenceMismatch,
    EmptyDataset,
    MalformedLine,
    NonMonotonicTime,
    ValueOutOfRange,
)
from kpforecast.fusion import FusedDataset
from kpforecast.rng import PortableRng

UTC = timezone.utc


def _minute(t: datetime) -> int:
    """Minutes from 1970-01-01T00:00Z to ``t``, by ``datetime`` arithmetic."""
    return (t - datetime(1970, 1, 1, tzinfo=UTC)) // timedelta(minutes=1)


# -- timestamps --------------------------------------------------------------


def test_parse_timestamp_minute_form():
    assert ingest.parse_timestamp("2021-01-01T00:05Z") == _minute(datetime(
        2021, 1, 1, 0, 5, tzinfo=UTC
    ))


def test_parse_timestamp_accepts_explicit_zero_seconds():
    assert ingest.parse_timestamp("2021-06-30T23:59:00Z") == _minute(datetime(
        2021, 6, 30, 23, 59, tzinfo=UTC
    ))


@pytest.mark.parametrize(
    "bad",
    [
        "2021-01-01 00:05Z",  # missing T
        "2021-01-01T00:05",  # missing Z
        "2021-01-01T00:05:30Z",  # sub-minute
        "2021-01-01T00:05+00:00",  # offset form
        "2021-13-01T00:05Z",  # no such month
        "21-01-01T00:05Z",
        "",
    ],
)
def test_parse_timestamp_rejects_deviations(bad):
    with pytest.raises(ValueError):
        ingest.parse_timestamp(bad)


def test_format_timestamp_round_trip():
    t = _minute(datetime(2022, 2, 3, 21, 0, tzinfo=UTC))
    assert ingest.parse_timestamp(ingest.format_timestamp(t)) == t


@pytest.mark.parametrize("year, text", [
    (1, "0001-03-04T05:06Z"), (999, "0999-03-04T05:06Z"), (2021, "2021-03-04T05:06Z"),
])
def test_format_timestamp_pads_every_year_to_four_digits(year, text):
    t = _minute(datetime(year, 3, 4, 5, 6, tzinfo=UTC))
    assert ingest.format_timestamp(t) == text
    assert ingest.parse_timestamp(text) == t


@settings(max_examples=300)
@given(st.datetimes(timezones=st.just(UTC)))
def test_parse_timestamp_inverts_format_timestamp(t):
    t = _minute(t.replace(second=0, microsecond=0))
    assert ingest.parse_timestamp(ingest.format_timestamp(t)) == t


def _reference_text(minute: int) -> str:
    """``format_timestamp`` as it was written on ``datetime``: the reference."""
    t = datetime(1970, 1, 1, tzinfo=UTC) + timedelta(minutes=minute)
    return f"{t.year:04d}-{t.month:02d}-{t.day:02d}T{t.hour:02d}:{t.minute:02d}Z"


_FIRST_MINUTE = _minute(datetime(1, 1, 1, tzinfo=UTC))
_LAST_MINUTE = _minute(datetime(9999, 12, 31, 23, 59, tzinfo=UTC))
_LEAP_DAYS = [datetime(y, 2, 29, tzinfo=UTC) for y in (4, 400, 1600, 1904, 1968, 2000, 2024, 9996)]
_INSTANTS = (
    st.integers(_FIRST_MINUTE, _LAST_MINUTE)  # pre-1970 instants are most of the range
    | st.builds(lambda day, m: _minute(day) + m, st.sampled_from(_LEAP_DAYS), st.integers(0, 1439))
    | st.sampled_from([_FIRST_MINUTE, _LAST_MINUTE, -1, 0, 1])
)


@settings(max_examples=200)
@given(st.lists(_INSTANTS, min_size=1, max_size=20), st.booleans())
def test_vectorised_and_scalar_timestamp_codecs_agree(minutes, zero_seconds):
    texts = ingest.format_minutes(minutes)
    assert texts == [ingest.format_timestamp(m) for m in minutes]
    assert texts == [_reference_text(m) for m in minutes]
    if zero_seconds:
        texts = [text[:-1] + ":00Z" for text in texts]
    assert [ingest.parse_timestamp(text) for text in texts] == minutes
    digits = np.array([int("".join(filter(str.isdigit, text[:16]))) for text in texts])
    parsed, valid = ingest.minutes_from_digits(digits)
    assert valid.all() and parsed.tolist() == minutes
    # both array parsers: a measurement file (strictly increasing) and a dataset CSV
    by_minute = dict(zip(minutes, texts))
    ordered = sorted(by_minute)
    table = ingest.parse_solar_wind(
        "".join(f"{by_minute[m]},1,1,1,1,1,1,1\n" for m in ordered).encode())
    assert table.minutes.tolist() == ordered
    dataset = FusedDataset.from_csv(("x0,target,row_time\n"
                                     + "".join(f"1.0,2.0,{text}\n" for text in texts)).encode())
    assert dataset.row_minutes.tolist() == minutes


@pytest.mark.parametrize("text", [
    "1900-02-29T00:00Z", "2100-02-29T12:00Z", "0001-02-29T00:00Z", "2021-04-31T00:00Z",
    "2021-00-10T00:00Z", "2021-01-00T00:00Z", "0000-01-01T00:00Z", "2021-01-01T24:00Z",
    "2021-01-01T23:60:00Z",
])
def test_a_date_the_calendar_lacks_is_refused_by_every_parser(text):
    with pytest.raises(ValueError, match="invalid calendar instant") as scalar:
        ingest.parse_timestamp(text)
    digits = int("".join(filter(str.isdigit, text[:16])))
    assert not ingest.minutes_from_digits(np.array([digits]))[1][0]
    with pytest.raises(BadTimestamp) as in_file:
        ingest.parse_dst(f"2021-01-01T00:00Z,1\n{text},2\n".encode())
    assert str(in_file.value) == f"line 2: {scalar.value}"
    with pytest.raises(BadTimestamp) as in_dataset:
        FusedDataset.from_csv(f"x0,target,row_time\n1.0,2.0,{text}\n".encode())
    assert str(in_dataset.value) == f"line 2: {scalar.value}"


@pytest.mark.parametrize("read", [ingest.parse_solar_wind, ingest.parse_dst, ingest.parse_kp,
                                  FusedDataset.from_csv], ids=lambda read: read.__name__)
@pytest.mark.parametrize("text", ["", "2021-01-01T00:00Z,1\n"], ids=["empty", "a record"])
def test_csv_text_is_bytes_only(read, text):
    with pytest.raises(TypeError):
        read(text)


# -- solar wind ----------------------------------------------------------------

FIELD = {name: j for j, name in enumerate(ingest.SOLAR_WIND_FIELDS)}


def test_parse_solar_wind_values_and_gaps():
    text = (
        b"# comment line\n"
        b"2021-01-01T00:00Z,4.1,0.3,-0.2,0.9,372.0,5.6,95000.0\n"
        b"2021-01-01T00:05Z,4.2,,-0.1,1.0,,5.7,94000.0   \n"
    )
    table = ingest.parse_solar_wind(text)
    assert len(table) == 2
    assert table.fields == ingest.SOLAR_WIND_FIELDS
    assert table.values[0, FIELD["speed"]] == 372.0
    assert not table.present[1, FIELD["bx"]] and not table.present[1, FIELD["speed"]]
    assert table.present.sum() == 12
    assert table.minutes[1] == _minute(datetime(2021, 1, 1, 0, 5, tzinfo=UTC))
    assert table.minutes[1] - table.minutes[0] == 5


def test_parse_solar_wind_empty_file_gives_empty_table():
    for text in (b"", b"# only a comment\n"):
        table = ingest.parse_solar_wind(text)
        assert len(table) == 0
        assert table.values.shape == table.present.shape == (0, 7)


def test_parse_solar_wind_field_count_error_carries_line_number():
    text = b"2021-01-01T00:00Z,4.1,0.3,-0.2,0.9,372.0,5.6,95000.0\n2021-01-01T00:05Z,1,2\n"
    with pytest.raises(MalformedLine) as exc:
        ingest.parse_solar_wind(text)
    assert exc.value.line_no == 2


def test_parse_solar_wind_rejects_bad_numbers_and_non_finite():
    with pytest.raises(MalformedLine):
        ingest.parse_solar_wind(b"2021-01-01T00:00Z,abc,0,0,0,1,1,1\n")
    with pytest.raises(MalformedLine):
        ingest.parse_solar_wind(b"2021-01-01T00:00Z,nan,0,0,0,1,1,1\n")


def test_parse_solar_wind_rejects_negative_physical_quantities():
    with pytest.raises(ValueOutOfRange):
        ingest.parse_solar_wind(b"2021-01-01T00:00Z,4.0,0,0,0,-5.0,1,1\n")


def test_parse_solar_wind_allows_negative_field_components():
    table = ingest.parse_solar_wind(b"2021-01-01T00:00Z,4.0,-9,-9,-9,5,1,1\n")
    assert table.values[0, FIELD["bz"]] == -9.0


def test_non_monotonic_timestamps_rejected():
    text = (
        b"2021-01-01T00:05Z,4,0,0,0,1,1,1\n"
        b"2021-01-01T00:05Z,4,0,0,0,1,1,1\n"
    )
    with pytest.raises(NonMonotonicTime) as exc:
        ingest.parse_solar_wind(text)
    assert exc.value.line_no == 2


def test_bad_timestamp_error_carries_line_number():
    with pytest.raises(BadTimestamp) as exc:
        ingest.parse_dst(b"2021-01-01T00:00Z,-11\nnot-a-time,-12\n")
    assert exc.value.line_no == 2


def test_first_faulty_line_wins_whatever_the_fault():
    # line 2 goes back in time; line 3 cannot be parsed at all
    text = (
        b"2021-01-01T00:05Z,4,0,0,0,1,1,1\n"
        b"2021-01-01T00:00Z,4,0,0,0,1,1,1\n"
        b"2021-01-01T00:10Z,1,2\n"
    )
    with pytest.raises(NonMonotonicTime) as exc:
        ingest.parse_solar_wind(text)
    assert exc.value.line_no == 2
    # on one line, the timestamp is checked before the numbers
    with pytest.raises(BadTimestamp, match="hour-aligned") as exc:
        ingest.parse_dst(b"2021-01-01T00:00Z,-1\n2021-01-01T01:30Z,abc\n")
    assert exc.value.line_no == 2


def test_invalid_calendar_instant_names_its_line():
    text = b"2021-02-28T00:00Z,-1\n2021-02-29T00:00Z,-2\n"
    with pytest.raises(BadTimestamp, match="invalid calendar instant") as exc:
        ingest.parse_dst(text)
    assert exc.value.line_no == 2


# -- dst / kp -----------------------------------------------------------------


def test_parse_dst_alignment():
    assert ingest.parse_dst(b"2021-01-01T05:00Z,-23.5\n").values[0, 0] == -23.5
    with pytest.raises(BadTimestamp):
        ingest.parse_dst(b"2021-01-01T05:30Z,-23.5\n")


def test_parse_kp_alignment_and_range():
    table = ingest.parse_kp(b"2021-01-01T03:00Z,3.7\n2021-01-01T06:00Z,\n")
    assert table.values[0, 0] == 3.7
    assert table.present[:, 0].tolist() == [True, False]
    with pytest.raises(BadTimestamp):
        ingest.parse_kp(b"2021-01-01T04:00Z,3.7\n")
    with pytest.raises(ValueOutOfRange):
        ingest.parse_kp(b"2021-01-01T03:00Z,9.5\n")
    with pytest.raises(ValueOutOfRange):
        ingest.parse_kp(b"2021-01-01T03:00Z,-0.1\n")


def test_kp_boundaries_are_legal():
    table = ingest.parse_kp(b"2021-01-01T00:00Z,0.0\n2021-01-01T03:00Z,9.0\n")
    assert table.values[:, 0].tolist() == [0.0, 9.0]


# -- round-trips ---------------------------------------------------------------


def _table(fields, start, step_minutes, rows):
    """A table of records ``step_minutes`` apart; ``None`` marks a gap."""
    origin = _minute(start)
    present = [[v is not None for v in row] for row in rows]
    values = [[np.nan if v is None else v for v in row] for row in rows]
    return ingest.MeasurementTable(
        tuple(fields),
        origin + step_minutes * np.arange(len(rows)),
        np.reshape(values, (len(rows), len(fields))),
        np.reshape(present, (len(rows), len(fields))),
    )


def _assert_same_table(got, expect):
    assert got.fields == expect.fields
    assert np.array_equal(got.minutes, expect.minutes)
    assert np.array_equal(got.present, expect.present)
    assert np.array_equal(got.values, expect.values, equal_nan=True)


def _random_solar_table(seed, n):
    rng = PortableRng(seed)
    rows = [
        [None if rng.random() < 0.15 else round(rng.random() * 100, 6) for _ in range(7)]
        for _ in range(n)
    ]
    return _table(ingest.SOLAR_WIND_FIELDS, datetime(2021, 3, 1, tzinfo=UTC), 5, rows)


def test_solar_wind_serialise_parse_round_trip():
    for seed in range(10):
        table = _random_solar_table(seed, 40)
        _assert_same_table(ingest.parse_solar_wind(ingest.format_table(table)), table)


def test_dst_and_kp_round_trip():
    base = datetime(2021, 3, 1, tzinfo=UTC)
    dst = _table(("dst",), base, 60, [[-11.25], [None], [-30.0], [4.125]])
    _assert_same_table(ingest.parse_dst(ingest.format_table(dst)), dst)
    kp = _table(("kp",), base, 180, [[0.0], [4.333333333333333], [None], [9.0]])
    _assert_same_table(ingest.parse_kp(ingest.format_table(kp)), kp)


def test_table_from_series_is_the_inverse_of_to_series():
    table = _random_solar_table(3, 25)
    series = ingest.solar_wind_series(table)
    _assert_same_table(ingest.MeasurementTable.from_series(series), table)
    with pytest.raises(ValueError):
        ingest.MeasurementTable.from_series((series[0], ingest.to_series(
            _table(("dst",), datetime(2021, 3, 1, tzinfo=UTC), 60, [[1.0]]), "dst", 60)))


# -- to_series -----------------------------------------------------------------


def test_to_series_marks_missing_slots_and_field_gaps():
    base = datetime(2021, 1, 1, tzinfo=UTC)
    # a present record with a gap value at hour 1; hour 2 absent entirely
    table = ingest.parse_dst(
        b"2021-01-01T00:00Z,-10.0\n2021-01-01T01:00Z,\n2021-01-01T03:00Z,-12.0\n"
    )
    series = ingest.to_series(table, "dst", 60)
    assert len(series) == 4
    assert series.present.tolist() == [True, False, False, True]
    assert series.start_minute == _minute(base) and series.cadence_minutes == 60
    assert series.values[0] == -10.0 and series.values[3] == -12.0


def test_to_series_single_record():
    base = datetime(2021, 1, 1, tzinfo=UTC)
    series = ingest.to_series(_table(("kp",), base, 180, [[2.0]]), "kp", 180)
    assert len(series) == 1 and series.values[0] == 2.0
    assert series.start_minute == _minute(base)


def test_to_series_off_grid_record_raises():
    base = datetime(2021, 1, 1, tzinfo=UTC)
    table = _table(("dst",), base, 60, [[-10.0], [-11.0]])
    with pytest.raises(CadenceMismatch):
        ingest.to_series(table, "dst", 180)  # 1 h offset on a 3 h grid


def test_to_series_empty_raises():
    with pytest.raises(EmptyDataset):
        ingest.to_series(ingest.parse_dst(b""), "dst", 60)


def test_series_arrays_are_read_only():
    series = ingest.to_series(ingest.parse_dst(b"2021-01-01T00:00Z,-10.0\n"), "dst", 60)
    with pytest.raises(ValueError):
        series.values[0] = 0.0


def test_table_arrays_are_read_only():
    table = ingest.parse_dst(b"2021-01-01T00:00Z,-10.0\n")
    for array in (table.minutes, table.values, table.present):
        with pytest.raises(ValueError):
            array[0] = 0


def test_solar_wind_series_order_and_content():
    table = ingest.parse_solar_wind(
        b"2021-01-01T00:00Z,4.1,0.3,-0.2,0.9,372.0,5.6,95000.0\n"
        b"2021-01-01T00:05Z,4.2,0.4,-0.1,1.0,373.0,5.7,94000.0\n"
    )
    series = ingest.solar_wind_series(table)
    assert tuple(s.name for s in series) == ingest.SOLAR_WIND_FIELDS
    assert series[4].values.tolist() == [372.0, 373.0]
    assert all(s.cadence_minutes == 5 for s in series)


def test_gaps_are_explicit_state_not_nan_data():
    # A NaN in the file is rejected; a gap is an empty field and comes back
    # as present=False, so downstream code never mistakes NaN for data.
    table = ingest.parse_solar_wind(b"2021-01-01T00:00Z,4.1,,0,0,1,1,1\n")
    series = ingest.solar_wind_series(table)
    bx = series[1]
    assert not bx.present[0]
    assert np.isnan(bx.values[0])  # poison under the mask


# -- line numbers under corruption (property) -------------------------------------

# kind -> (parser, value fields, cadence in minutes)
KINDS = {
    "solar_wind": (ingest.parse_solar_wind, ingest.SOLAR_WIND_FIELDS, 5),
    "dst": (ingest.parse_dst, ("dst",), 60),
    "kp": (ingest.parse_kp, ("kp",), 180),
}
_NON_NEGATIVE = {"fma", "speed", "density", "temperature", "kp"}


def _value(draw, field):
    if field == "kp":
        return draw(st.floats(0.0, 9.0))
    low = 0.0 if field in _NON_NEGATIVE else -500.0
    return draw(st.floats(low, 1e5))


@st.composite
def canonical_files(draw):
    """A valid file of one kind: ``(kind, lines, data line indexes, records)``.

    Records are ``(minute offset, values)`` with ``None`` for a gap.
    """
    kind = draw(st.sampled_from(sorted(KINDS)))
    _, fields, cadence = KINDS[kind]
    lines, data_lines, records = [], [], []
    minute = cadence * draw(st.integers(0, 20))
    for _ in range(draw(st.integers(1, 12))):
        for _ in range(draw(st.integers(0, 2))):
            lines.append(draw(st.sampled_from(["", "# comment", "   ", "#,,,"])))
        minute += cadence * draw(st.integers(1, 3))
        values = [None if draw(st.booleans()) and draw(st.booleans()) else _value(draw, f)
                  for f in fields]
        stamp = ingest.format_timestamp(_minute(datetime(2021, 1, 1, tzinfo=UTC)) + minute)
        cells = [stamp] + ["" if v is None else repr(v) for v in values]
        data_lines.append(len(lines))
        lines.append(",".join(cells) + draw(st.sampled_from(["", " ", "\t ", "  "])))
        records.append((minute, values))
    return kind, lines, data_lines, records


@settings(max_examples=150, deadline=None)
@given(canonical_files())
def test_valid_files_parse_to_their_records(file):
    kind, lines, _, records = file
    parse, fields, cadence = KINDS[kind]
    table = parse(("\n".join(lines) + "\n").encode())
    assert len(table) == len(records)
    origin = (datetime(2021, 1, 1, tzinfo=UTC) - datetime(1970, 1, 1, tzinfo=UTC)).days * 1440
    assert table.minutes.tolist() == [origin + m for m, _ in records]
    assert table.present.tolist() == [[v is not None for v in vs] for _, vs in records]
    assert table.values[table.present].tolist() == [
        v for _, vs in records for v in vs if v is not None]


# corruption -> (error raised, kinds it applies to)
CORRUPTIONS = {
    "field_count": (MalformedLine, set(KINDS)),
    "bad_timestamp": (BadTimestamp, set(KINDS)),
    "no_advance": (NonMonotonicTime, set(KINDS)),
    "unparsable": (MalformedLine, set(KINDS)),
    "nan": (MalformedLine, set(KINDS)),
    "negative_speed": (ValueOutOfRange, {"solar_wind"}),
    "kp_above_9": (ValueOutOfRange, {"kp"}),
    "dst_half_hour": (BadTimestamp, {"dst"}),
}


def _corrupt(how, cells, previous_cells, draw):
    stamp, values = cells[0], cells[1:]
    if how == "field_count":
        return cells + ["1.0"] if draw(st.booleans()) else cells[:-1]
    if how == "bad_timestamp":
        bad = draw(st.sampled_from([
            stamp.replace("T", " "), stamp[:-1], stamp[:-1] + ":30Z",
            stamp[:5] + "13" + stamp[7:], stamp[:11] + "24" + stamp[13:], "yesterday",
        ]))
        return [bad] + values
    if how == "no_advance":
        return [previous_cells[0]] + values
    if how in ("unparsable", "nan"):
        j = draw(st.integers(0, len(values) - 1))
        token = draw(st.sampled_from(["abc", "1.2.3", "--1", "0x10"] if how == "unparsable"
                                     else ["nan", "NaN", "inf", "-inf", "1e400"]))
        return [stamp] + values[:j] + [token] + values[j + 1:]
    if how == "negative_speed":
        return [stamp] + values[:4] + ["-5.0"] + values[5:]
    if how == "kp_above_9":
        return [stamp, "9.5"]
    if how == "dst_half_hour":
        return [stamp[:14] + "30Z"] + values
    raise AssertionError(how)


@settings(max_examples=300, deadline=None)
@given(canonical_files(), st.data())
def test_a_corrupted_line_is_reported_with_its_number(file, data):
    kind, lines, data_lines, _ = file
    how = data.draw(st.sampled_from(sorted(h for h, (_, kinds) in CORRUPTIONS.items()
                                           if kind in kinds)))
    first = 1 if how == "no_advance" else 0
    assume(len(data_lines) > first)
    k = data.draw(st.integers(first, len(data_lines) - 1))
    index = data_lines[k]
    previous = lines[data_lines[k - 1]].rstrip().split(",") if k else None
    cells = _corrupt(how, lines[index].rstrip().split(","), previous, data.draw)
    lines = lines[:index] + [",".join(cells)] + lines[index + 1:]
    error, _ = CORRUPTIONS[how]
    with pytest.raises(error) as exc:
        KINDS[kind][0](("\n".join(lines) + "\n").encode())
    assert type(exc.value) is error
    assert exc.value.line_no == index + 1
