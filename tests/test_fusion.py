"""Lagged fusion arithmetic, downsampling, selection, splitting, CSV I/O."""

from __future__ import annotations

import dataclasses
import math
import tempfile
import tracemalloc
from datetime import datetime, timezone
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpforecast import datagen, ingest
from kpforecast.errors import (
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
from kpforecast.fusion import (
    FeatureSubset,
    FusedDataset,
    LagSpec,
    downsample_low_kp,
    fuse,
    select_features,
    split_by_time,
)
from kpforecast.rng import PortableRng

from conftest import EPOCH, make_dataset

UTC = timezone.utc
TOY_SPEC = LagSpec(
    solar_wind_lookback_minutes=10,
    solar_wind_step_minutes=5,
    dst_lookback_hours=1,
    kp_lookback_hours=3,
    horizon_hours=3,
)


def _series(name, cadence, start, values):
    values = np.asarray(values, dtype=np.float64)
    return ingest.MeasurementSeries(
        name, cadence, start, values, np.ones(len(values), dtype=bool)
    )


def _toy_sources(n_kp=5, start=EPOCH):
    """Sources with value == grid index (offset per quantity) for hand checks."""
    n5 = (n_kp - 1) * 36 + 1
    solar = tuple(
        _series(name, 5, start, 1000.0 * q + np.arange(n5))
        for q, name in enumerate(ingest.SOLAR_WIND_FIELDS)
    )
    dst = _series("dst", 60, start, 10.0 + np.arange((n_kp - 1) * 3 + 1))
    kp = _series("kp", 180, start, 1.0 + np.arange(n_kp))
    return solar, dst, kp


# -- feature naming and counts ----------------------------------------------


def test_default_spec_yields_767_features():
    spec = LagSpec()
    assert spec.feature_count == 7 * 108 + 3 + 8 == 767
    names = spec.feature_names()
    assert len(names) == 767
    assert names[0] == "fma_m0"
    assert names[107] == "fma_m535"
    assert names[108] == "bx_m0"
    assert names[756] == "dst_m0"
    assert names[758] == "dst_m120"
    assert names[759] == "kp_m0"
    assert names[766] == "kp_m1260"
    assert len(set(names)) == 767


def test_toy_spec_yields_16_features():
    assert TOY_SPEC.feature_count == 16
    names = TOY_SPEC.feature_names()
    assert names[:4] == ("fma_m0", "fma_m5", "bx_m0", "bx_m5")
    assert names[-2:] == ("dst_m0", "kp_m0")


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(solar_wind_lookback_minutes=0),
        dict(solar_wind_lookback_minutes=7, solar_wind_step_minutes=5),
        dict(dst_lookback_hours=0),
        dict(kp_lookback_hours=4),
        dict(horizon_hours=0),
        dict(horizon_hours=2),
    ],
)
def test_lag_spec_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        LagSpec(**kwargs)


# -- fuse worked example -------------------------------------------------------


def test_fuse_toy_worked_example():
    solar, dst, kp = _toy_sources()
    data = fuse(solar, dst, kp, TOY_SPEC)
    # t=00:00 lacks the 5-minute solar lag; the last instant lacks a target.
    assert data.n_rows == 3
    assert data.n_features == 16
    assert data.row_minutes.tolist() == [EPOCH + 60 * h for h in (3, 6, 9)]
    row = data.rows[0]
    names = data.feature_names
    # at t=03:00 the solar index is 36: value = 1000*q + 36, lag 5 -> 35
    assert row[names.index("fma_m0")] == 36.0
    assert row[names.index("fma_m5")] == 35.0
    assert row[names.index("speed_m0")] == 4036.0
    assert row[names.index("temperature_m5")] == 6035.0
    assert row[names.index("dst_m0")] == 13.0  # hourly index 3
    assert row[names.index("kp_m0")] == 2.0
    assert data.targets.tolist() == [3.0, 4.0, 5.0]  # kp at t + 3h


def test_fuse_multi_lag_kp_and_dst_history():
    spec = LagSpec(
        solar_wind_lookback_minutes=5,
        solar_wind_step_minutes=5,
        dst_lookback_hours=3,
        kp_lookback_hours=6,
        horizon_hours=3,
    )
    solar, dst, kp = _toy_sources(n_kp=6)
    data = fuse(solar, dst, kp, spec)
    names = data.feature_names
    # first instant needs kp lag 180: t=03:00 works, dst lags 0,60,120 exist
    assert data.row_minutes[0] == EPOCH + 180
    row = data.rows[0]
    assert row[names.index("kp_m0")] == 2.0
    assert row[names.index("kp_m180")] == 1.0
    assert row[names.index("dst_m0")] == 13.0
    assert row[names.index("dst_m60")] == 12.0
    assert row[names.index("dst_m120")] == 11.0


def test_fuse_gap_in_window_drops_exactly_that_instant():
    solar, dst, kp = _toy_sources()
    # knock out the solar sample at 02:55 (index 35): only t=03:00 needs it
    speed = solar[4]
    present = speed.present.copy()
    present[35] = False
    solar = (
        *solar[:4],
        ingest.MeasurementSeries("speed", 5, speed.start_minute, speed.values, present),
        *solar[5:],
    )
    data = fuse(solar, dst, kp, TOY_SPEC)
    assert data.row_minutes.tolist() == [EPOCH + 60 * h for h in (6, 9)]


def test_fuse_missing_target_drops_instant():
    solar, dst, kp = _toy_sources()
    present = kp.present.copy()
    present[2] = False  # kp at 06:00 gone: kills t=03:00 (target) and t=06:00 (lag 0)
    kp = ingest.MeasurementSeries("kp", 180, kp.start_minute, kp.values, present)
    data = fuse(solar, dst, kp, TOY_SPEC)
    assert data.row_minutes.tolist() == [EPOCH + 9 * 60]


def test_fuse_no_coverage_raises_empty_intersection():
    solar, dst, kp = _toy_sources(n_kp=2)  # no instant can reach a target
    with pytest.raises(EmptyIntersection):
        fuse(solar, dst, kp, TOY_SPEC)


def test_fuse_misaligned_solar_grid_raises():
    solar, dst, kp = _toy_sources()
    shifted = ingest.MeasurementSeries(
        "fma", 5, EPOCH + 2, solar[0].values, solar[0].present
    )
    with pytest.raises(CadenceMismatch):
        fuse((shifted, *solar[1:]), dst, kp, TOY_SPEC)


def test_fuse_wrong_cadence_raises():
    solar, dst, kp = _toy_sources()
    bad_dst = ingest.MeasurementSeries("dst", 180, dst.start_minute, kp.values, kp.present)
    with pytest.raises(CadenceMismatch):
        fuse(solar, bad_dst, kp, TOY_SPEC)


def test_fuse_sources_offset_from_each_other_still_align():
    # solar/dst series that start 3 h before the kp series
    solar, dst, kp = _toy_sources()
    late_kp = ingest.MeasurementSeries(
        "kp", 180, EPOCH + 180, kp.values[:-1], kp.present[:-1]
    )
    data = fuse(solar, dst, late_kp, TOY_SPEC)
    names = data.feature_names
    # first prediction instant on the new grid with full coverage: 03:00
    assert data.row_minutes[0] == EPOCH + 180
    assert data.rows[0][names.index("fma_m0")] == 36.0
    assert data.rows[0][names.index("kp_m0")] == 1.0


def test_row_times_strictly_increasing_and_rows_finite():
    solar, dst, kp = _toy_sources(n_kp=9)
    data = fuse(solar, dst, kp, TOY_SPEC)
    assert (np.diff(data.row_minutes) > 0).all()
    assert np.isfinite(data.rows).all()


def test_in_memory_target_out_of_range_names_no_line():
    with pytest.raises(DataError) as caught:
        make_dataset([[1.0]], [12.0])
    assert not isinstance(caught.value, ValueOutOfRange)  # which names a line
    assert str(caught.value) == "targets must lie in [0, 9], got 12.0"


def test_row_minutes_are_frozen_int64_within_the_timestamp_years():
    data = make_dataset([[1.0], [2.0]], [1.0, 2.0])
    assert data.row_minutes.dtype == np.int64
    with pytest.raises(ValueError):
        data.row_minutes[0] = 0
    # an old caller that passes instants as datetimes fails at construction
    with pytest.raises(TypeError):
        FusedDataset(("x0",), [[1.0]], [1.0], (datetime(2021, 1, 1, tzinfo=UTC),))
    with pytest.raises(TypeError):
        ingest.MeasurementSeries("kp", 180, datetime(2021, 1, 1, tzinfo=UTC), [1.0], [True])
    # a minute no timestamp can name would be written as a row_time the reader refuses
    first = ingest.parse_timestamp("0001-01-01T00:00Z")
    last = ingest.parse_timestamp("9999-12-31T23:59Z")
    assert FusedDataset(("x0",), [[1.0], [2.0]], [1.0, 2.0], [first, last]).n_rows == 2
    for minute in (first - 1, last + 1):
        with pytest.raises(ValueError, match="years 1 to 9999"):
            FusedDataset(("x0",), [[1.0]], [1.0], [minute])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("where", ["rows", "targets"])
def test_a_dataset_refuses_any_non_finite_cell(bad, where):
    rows, targets = np.full((3, 2), 1.7976931348623157e308), np.array([0.0, 9.0, 4.5])
    rows[0, 0] = -rows[0, 0]
    assert make_dataset(rows.copy(), targets.copy()).n_rows == 3  # the extremes are finite
    if where == "rows":
        rows[-1, -1] = bad
    else:
        targets[-1] = bad
    with pytest.raises(NonFiniteValue):
        make_dataset(rows, targets)


# -- fuse against its first algorithm; refusing before any lag; one matrix ------


def _stacked_fuse(solar, dst, kp, spec):
    """``fuse`` as first written, the oracle for the one-allocation build:
    every lag column over every Kp instant, stacked, then the kept rows."""
    n = len(kp)
    instant_idx = np.arange(n)
    target_idx = instant_idx + spec.horizon_hours // 3
    valid = (target_idx < n) & kp.present[np.minimum(target_idx, n - 1)]
    sources = [(s, spec.solar_wind_lags_minutes()) for s in solar]
    sources += [(dst, spec.dst_lags_minutes()), (kp, spec.kp_lags_minutes())]
    columns = []
    for series, lags in sources:
        base = kp.start_minute - series.start_minute
        for lag in lags:
            idx = (base + instant_idx * 180 - lag) // series.cadence_minutes
            safe = np.clip(idx, 0, len(series) - 1)
            valid &= (idx >= 0) & (idx < len(series)) & series.present[safe]
            columns.append(series.values[safe])
    keep = np.flatnonzero(valid)
    return np.stack(columns, axis=1)[keep], kp.values[target_idx[keep]], kp.start_minute + 180 * keep


@st.composite
def fuse_inputs(draw):
    """A small lag spec, a Kp series and eight other sources on grids that
    line up with Kp's.  Each source starts near its lookback before Kp and
    ends near Kp's end, either side, and has its own gaps (a gap holds NaN,
    as ingest leaves it)."""
    step = draw(st.sampled_from([5, 10, 15, 60]))
    spec = LagSpec(
        solar_wind_lookback_minutes=step * draw(st.integers(1, 6)),
        solar_wind_step_minutes=step,
        dst_lookback_hours=draw(st.integers(1, 4)),
        kp_lookback_hours=3 * draw(st.integers(1, 3)),
        horizon_hours=3 * draw(st.integers(1, 2)),
    )
    n_kp = draw(st.integers(1, 24))
    kp_end = EPOCH + 180 * (n_kp - 1)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    gap_rate = draw(st.sampled_from([0.0, 0.002, 0.05]))

    def series(name, cadence, lookback, high=100.0):
        slots = lookback // cadence
        start = EPOCH - cadence * draw(st.integers(-slots - 3, slots + 3))
        end = kp_end + cadence * draw(st.integers(-2 * 180 // cadence, 3))
        length = max(1, (end - start) // cadence + 1)
        present = rng.random(length) >= gap_rate
        values = np.where(present, rng.uniform(-high, high, length), np.nan)
        return ingest.MeasurementSeries(name, cadence, start, values, present)

    solar = tuple(series(name, 5, spec.solar_wind_lookback_minutes)
                  for name in ingest.SOLAR_WIND_FIELDS)
    dst = series("dst", 60, 60 * spec.dst_lookback_hours)
    present = rng.random(n_kp) >= gap_rate
    values = np.where(present, rng.uniform(0.0, 9.0, n_kp), np.nan)
    kp = ingest.MeasurementSeries("kp", 180, EPOCH, values, present)
    return solar, dst, kp, spec


@settings(max_examples=300)
@given(fuse_inputs())
def test_fuse_matches_the_stacked_build_bit_for_bit(inputs):
    rows, targets, minutes = _stacked_fuse(*inputs)
    if not minutes.size:
        with pytest.raises(EmptyIntersection):
            fuse(*inputs)
        return
    data = fuse(*inputs)
    assert data.rows.shape == rows.shape and data.rows.flags.c_contiguous
    assert data.rows.tobytes() == rows.tobytes()
    assert data.targets.tobytes() == targets.tobytes()
    assert data.row_minutes.tobytes() == minutes.astype(np.int64).tobytes()


@pytest.mark.parametrize("field, too_long, fits, message", [
    ("solar_wind_lookback_minutes", 500_000, 725, "fma: .* lookback of 500000 minutes "),
    ("dst_lookback_hours", 20, 13, "dst: .* lookback of 20 hours "),
    ("kp_lookback_hours", 18, 15, "kp: .* lookback of 18 hours "),
])
def test_fuse_refuses_a_window_no_instant_fits_naming_the_source(field, too_long, fits, message):
    """The refusal comes before the lag loop: the 100,000 solar-wind lags of
    the first case are never visited.  One slot less fits the last instant."""
    solar, dst, kp = _toy_sources(n_kp=6)  # instant 4 is the last with a target
    with pytest.raises(EmptyIntersection, match=f"^{message}"):
        fuse(solar, dst, kp, dataclasses.replace(TOY_SPEC, **{field: too_long}))
    data = fuse(solar, dst, kp, dataclasses.replace(TOY_SPEC, **{field: fits}))
    assert data.row_minutes.tolist() == [kp.start_minute + 4 * 180]


def test_fuse_allocates_the_matrix_once():
    """numpy reports its buffers to tracemalloc: the build's peak is the matrix
    and one source's block of index and gathered values, not three matrices."""
    solar, dst, kp = datagen.generate(datagen.SynthConfig(seed=11, n_days=60))
    tracemalloc.start()
    try:
        data = fuse(solar, dst, kp)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert data.n_rows == 8 * 60 - 8
    assert peak <= 1.5 * data.rows.nbytes


# -- downsampling ---------------------------------------------------------------


def _graded_dataset(n=40, seed=0):
    rng = PortableRng(seed)
    targets = np.array([9.0 * rng.random() for _ in range(n)])
    return make_dataset(np.arange(n, dtype=float), targets)


def test_downsample_keeps_every_high_row_and_thins_low():
    data = _graded_dataset()
    out = downsample_low_kp(data, 2, threshold=4.0, seed=5)
    high_before = {t for t, y in zip(data.row_minutes, data.targets) if y > 4.0}
    high_after = {t for t, y in zip(out.row_minutes, out.targets) if y > 4.0}
    assert high_before == high_after
    low_before = int((data.targets <= 4.0).sum())
    low_after = int((out.targets <= 4.0).sum())
    assert low_after == math.ceil(low_before / 2)


def test_downsample_preserves_row_order_and_content():
    data = _graded_dataset()
    out = downsample_low_kp(data, 3, seed=9)
    kept = [data.row_minutes.tolist().index(t) for t in out.row_minutes]
    assert kept == sorted(kept)
    for j, i in enumerate(kept):
        assert np.array_equal(out.rows[j], data.rows[i])
        assert out.targets[j] == data.targets[i]


def test_downsample_identity_when_factor_one():
    data = _graded_dataset()
    out = downsample_low_kp(data, 1, seed=3)
    assert out is data


def test_downsample_deterministic_per_seed():
    data = _graded_dataset()
    a = downsample_low_kp(data, 2, seed=7)
    b = downsample_low_kp(data, 2, seed=7)
    c = downsample_low_kp(data, 2, seed=8)
    assert np.array_equal(a.row_minutes, b.row_minutes)
    assert not np.array_equal(a.row_minutes, c.row_minutes)  # overwhelmingly likely for this data


def test_downsample_rejects_bad_factor():
    with pytest.raises(ValueError):
        downsample_low_kp(_graded_dataset(), 0)


# -- selection and splitting ---------------------------------------------------


def test_select_features_projects_in_subset_order():
    data = make_dataset(np.arange(12.0).reshape(3, 4), [1.0, 2.0, 3.0])
    subset = FeatureSubset(indices=(2, 0), names=("x2", "x0"))
    out = select_features(data, subset)
    assert out.feature_names == ("x2", "x0")
    assert out.rows.tolist() == [[2.0, 0.0], [6.0, 4.0], [10.0, 8.0]]
    assert out.targets.tolist() == data.targets.tolist()


def test_select_features_rejects_bad_indices_and_names():
    data = make_dataset(np.arange(12.0).reshape(3, 4), [1.0, 2.0, 3.0])
    with pytest.raises(IndexOutOfRange):
        select_features(data, FeatureSubset(indices=(4,), names=("x4",)))
    with pytest.raises(ValueError):
        select_features(data, FeatureSubset(indices=(0,), names=("x1",)))
    with pytest.raises(ValueError):
        FeatureSubset(indices=(0, 0), names=("a", "b"))


def test_split_by_time_partitions_chronologically():
    data = make_dataset(np.arange(10.0), np.linspace(0, 9, 10))
    cutoff = EPOCH + 180 * 6
    train, test = split_by_time(data, cutoff)
    assert train.n_rows == 6 and test.n_rows == 4
    assert all(t < cutoff for t in train.row_minutes)
    assert all(t >= cutoff for t in test.row_minutes)
    # boundary row (== cutoff) lands in test
    assert test.row_minutes[0] == cutoff


# -- CSV round-trip --------------------------------------------------------------


def test_dataset_csv_round_trip_is_bit_exact():
    solar, dst, kp = _toy_sources(n_kp=7)
    # make values awkward: thirds and tiny offsets stress the formatting
    solar = tuple(
        ingest.MeasurementSeries(
            s.name, 5, s.start_minute, s.values / 3.0 + 1e-9, s.present
        )
        for s in solar
    )
    data = fuse(solar, dst, kp, TOY_SPEC)
    back = FusedDataset.from_csv(data.to_csv())
    assert back.feature_names == data.feature_names
    assert np.array_equal(back.row_minutes, data.row_minutes)
    assert np.array_equal(back.rows, data.rows)  # bit-exact
    assert np.array_equal(back.targets, data.targets)
    assert FusedDataset.from_csv(back.to_csv()).to_csv() == data.to_csv()


def test_dataset_csv_rejects_malformed_content():
    for empty in (b"", b"\n# only a comment\n"):
        with pytest.raises(EmptyDataset):
            FusedDataset.from_csv(empty)
    with pytest.raises(MalformedLine, match="line 2: .*target,row_time"):
        FusedDataset.from_csv(b"# header next\na,b\n1,2\n")  # header lacks target,row_time
    good = make_dataset([[1.0]], [2.0]).to_csv()
    with pytest.raises(MalformedLine, match="line 3: expected 3 cells, got 1"):
        FusedDataset.from_csv(good + b"1.0\n")  # short row


# -- CSV blocks: bit-exact across block edges, faults by line (properties) -------

_SPECIAL_CELLS = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1.7e308, -1.7e308, 1.7976931348623157e308, 1 / 3]


def _float_of_bits(bits: int) -> float:
    return float(np.array([bits], dtype=np.uint64).view(np.float64)[0])


_FINITE_CELLS = (
    st.floats(allow_nan=False, allow_infinity=False)
    | st.sampled_from(_SPECIAL_CELLS)
    | st.integers(0, 2**64 - 1).map(_float_of_bits).filter(math.isfinite)
)
_TARGETS = st.floats(0.0, 9.0) | st.sampled_from([0.0, -0.0, 5e-324, 9.0])


def _fill(draw, pool_strategy, shape):
    """An array of ``shape`` whose cells repeat a drawn pool, as lag columns do."""
    pool = np.array(draw(st.lists(pool_strategy, min_size=1, max_size=40)), dtype=np.float64)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return pool[rng.integers(0, pool.size, size=shape)]


@st.composite
def datasets(draw, sizes=(0, 1, 255, 256, 257, 513)):
    n, p = draw(st.sampled_from(sizes)), draw(st.integers(1, 3))
    rows = _fill(draw, _FINITE_CELLS, (n, p))
    start = draw(st.integers(ingest.parse_timestamp("0001-01-01T00:00Z"),
                             ingest.parse_timestamp("9000-01-01T00:00Z")))
    names = tuple(f"x{j}_m{5 * j}" for j in range(p))
    return FusedDataset(names, rows, _fill(draw, _TARGETS, n), start + 180 * np.arange(n))


def _written_and_read(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        with open(path, "wb") as handle:
            data.write_csv(handle)
        return path.read_bytes(), FusedDataset.read_csv(path)


def _assert_same_bits(a, b):
    assert a.feature_names == b.feature_names
    assert np.array_equal(a.row_minutes, b.row_minutes)
    assert a.rows.shape == b.rows.shape
    assert np.array_equal(a.rows.view(np.int64), b.rows.view(np.int64))
    assert np.array_equal(a.targets.view(np.int64), b.targets.view(np.int64))


@settings(max_examples=60)
@given(datasets())
def test_dataset_csv_round_trip_is_bit_exact_across_block_edges(data):
    text = data.to_csv()
    _assert_same_bits(FusedDataset.from_csv(text), data)
    written, read = _written_and_read(data)
    assert written == text
    _assert_same_bits(read, data)


# corruption -> error raised
_DATASET_CORRUPTIONS = {
    "cell_count": MalformedLine,
    "unparsable": MalformedLine,
    "non_finite": MalformedLine,
    "target_range": ValueOutOfRange,
    "row_time": BadTimestamp,
}


def _corrupt_dataset_line(how, cells, draw):
    numbers, stamp = cells[:-1], cells[-1]
    if how == "cell_count":
        return cells + ["1.0"] if draw(st.booleans()) else cells[:-1]
    if how in ("unparsable", "non_finite"):
        j = draw(st.integers(0, len(numbers) - 1))
        token = draw(st.sampled_from(["abc", "1.2.3", "", "0x10", "--1"] if how == "unparsable"
                                     else ["nan", "NaN", "inf", "-inf", "1e400"]))
        return numbers[:j] + [token] + numbers[j + 1:] + [stamp]
    if how == "target_range":
        return numbers[:-1] + [draw(st.sampled_from(["12", "-0.5", "9.000001", "-1e-300"]))] + [stamp]
    if how == "row_time":
        bad = draw(st.sampled_from([
            stamp.replace("T", " "), stamp[:-1], stamp[:-1] + ":30Z",
            stamp[:5] + "13" + stamp[7:], stamp[:11] + "24" + stamp[13:], "yesterday",
        ]))
        return numbers + [bad]
    raise AssertionError(how)


@settings(max_examples=200)
@given(datasets(sizes=(1, 2, 7, 255, 256, 257, 600)), st.data())
def test_a_corrupted_dataset_line_is_reported_with_its_number(dataset, data):
    lines = dataset.to_csv().decode().splitlines()
    for _ in range(data.draw(st.integers(0, 3))):
        at = data.draw(st.integers(0, len(lines)))
        lines.insert(at, data.draw(st.sampled_from(["", "# comment", "   ", "#,,,"])))
    data_lines = [i for i, line in enumerate(lines) if line.strip() and line[0] != "#"][1:]
    k = data.draw(st.integers(0, len(data_lines) - 1))
    kinds = st.sampled_from(sorted(_DATASET_CORRUPTIONS))
    faults = [(data_lines[k], data.draw(kinds))]
    # a second fault on a later line, in the same block or another, must not mask the first
    if k + 1 < len(data_lines) and data.draw(st.booleans()):
        later = data.draw(st.integers(k + 1, len(data_lines) - 1))
        faults.append((data_lines[later], data.draw(kinds)))
    for index, how in faults:
        lines[index] = ",".join(_corrupt_dataset_line(how, lines[index].split(","), data.draw))
    text = ("\n".join(lines) + "\n").encode()
    error = _DATASET_CORRUPTIONS[faults[0][1]]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text)
        for read in (lambda: FusedDataset.from_csv(text), lambda: FusedDataset.read_csv(path)):
            with pytest.raises(error) as exc:
                read()
            assert type(exc.value) is error
            assert exc.value.line_no == faults[0][0] + 1


@pytest.mark.parametrize("chunk", [16, 1 << 20])
def test_a_file_that_grows_between_the_passes_still_reads(tmp_path, chunk):
    """Rows appended after the lines were counted grow the arrays."""
    rows = np.arange(15.0).reshape(-1, 1)
    grown = make_dataset(rows, np.linspace(0.0, 9.0, 15))
    header, *lines = grown.to_csv().splitlines(keepends=True)
    path = tmp_path / "data.csv"
    path.write_bytes(header + b"".join(lines[:10]))
    count_lines = ingest._count_lines

    def counted_then_grown(handle):
        counted = count_lines(handle)
        with open(path, "ab") as more:
            more.write(b"".join(lines[10:]))
        return counted

    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk), \
            mock.patch.object(ingest, "_count_lines", counted_then_grown):
        read = FusedDataset.read_csv(path)
    _assert_same_bits(read, grown)


@pytest.mark.parametrize("chunk", [1, 5, 1 << 20])
def test_a_body_that_is_not_utf8_raises_before_any_line_fault(tmp_path, chunk):
    """The counting pass checks the bytes, so a fault on an earlier line does
    not hide them, and the error is that of decoding the file whole."""
    lines = make_dataset([[1.0], [2.0], [3.0]], [1.0, 2.0, 3.0]).to_csv().splitlines()
    lines[1] = b"abc," + lines[1].split(b",", 1)[1]
    body = b"\n".join(lines) + b"\n"
    content = body + b"# caf\xe9\n"
    path = tmp_path / "data.csv"
    path.write_bytes(content)
    with pytest.raises(UnicodeDecodeError) as whole:
        content.decode("utf-8")
    with mock.patch.object(ingest, "_CHUNK_BYTES", chunk):
        with pytest.raises(UnicodeDecodeError) as exc:
            FusedDataset.read_csv(path)
    assert str(exc.value) == str(whole.value)
    with pytest.raises(MalformedLine, match="^line 2: unparsable number 'abc'$"):
        FusedDataset.from_csv(body)
