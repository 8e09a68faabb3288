"""Metric exactness, report contents, and leakage-free orchestration."""

from __future__ import annotations

from datetime import datetime, timezone

import numpy as np
import pytest

from kpforecast import baseline, datagen, forest, modelio
from kpforecast.errors import (
    EmptyDataset,
    EmptyInput,
    EmptyTestSet,
    LengthMismatch,
    NonFiniteValue,
)
from kpforecast.evaluate import (
    ExperimentPlan,
    accuracy_within_1,
    comparison_table,
    run_experiment,
    run_plan,
)
from kpforecast.fusion import (
    FusedDataset,
    LagSpec,
    downsample_low_kp,
    fuse,
    select_features,
    split_by_time,
)
from kpforecast.rng import derive_seed

from conftest import EPOCH, make_dataset

SMALL_SPEC = LagSpec(
    solar_wind_lookback_minutes=60,
    solar_wind_step_minutes=5,
    dst_lookback_hours=2,
    kp_lookback_hours=6,
    horizon_hours=3,
)
FAST_FOREST = forest.ForestConfig(n_trees=5, seed=1)


def _sources(seed=0, n_days=16):
    return datagen.generate(datagen.SynthConfig(seed=seed, n_days=n_days))


def _cutoff(n_days):
    return EPOCH + n_days * 1440


# -- metric ----------------------------------------------------------------------


def test_metric_worked_example():
    # errors 0.5, 1.0, 1.5 -> two of three inside the band
    assert accuracy_within_1([3.5, 5.0, 2.5], [4.0, 4.0, 4.0]) == pytest.approx(
        2.0 / 3.0
    )


def test_metric_boundary_is_inclusive():
    assert accuracy_within_1([5.0], [4.0]) == 1.0
    assert accuracy_within_1([5.0 + 1e-9], [4.0]) == 0.0
    assert accuracy_within_1([3.0], [4.0]) == 1.0


def test_metric_is_symmetric_and_exact():
    assert accuracy_within_1([1.0, 2.0], [2.0, 1.0]) == 1.0
    assert accuracy_within_1([0.0, 9.0], [9.0, 0.0]) == 0.0
    assert accuracy_within_1([1.0, 1.0, 1.0, 5.0], [1.0, 1.5, 2.5, 5.0]) == 0.75


def test_metric_input_validation():
    with pytest.raises(LengthMismatch):
        accuracy_within_1([1.0, 2.0], [1.0])
    with pytest.raises(EmptyInput):
        accuracy_within_1([], [])
    with pytest.raises(NonFiniteValue):
        accuracy_within_1([np.nan], [1.0])
    with pytest.raises(EmptyInput):
        accuracy_within_1(1.0, 2.0)  # scalars are not series


# -- reports ----------------------------------------------------------------------


def _plan(**kwargs):
    defaults = dict(
        cutoff_minute=_cutoff(12), lag_spec=SMALL_SPEC, forest_config=FAST_FOREST
    )
    defaults.update(kwargs)
    return ExperimentPlan(**defaults)


def test_report_bins_and_storm_breakout():
    solar, dst, kp = _sources(seed=11)
    report = run_experiment(_plan(), solar, dst, kp)
    assert report.n == sum(report.per_bin_hits)
    assert report.accuracy_within_1 == pytest.approx(
        report.per_bin_hits[0] / report.n
    )
    assert 0 <= report.storm_n <= report.n
    if report.storm_n:
        assert 0.0 <= report.storm_accuracy_within_1 <= 1.0
    else:
        assert report.storm_accuracy_within_1 is None
    echo = report.config_echo
    assert echo["label"] == "RF"
    assert echo["cutoff"] == "2021-01-13T00:00Z"
    assert echo["forest"]["n_trees"] == 5
    text = report.to_text()
    assert "accuracy within +/-1" in text
    json_blob = report.to_json()
    assert json_blob.endswith("\n") and '"accuracy_within_1"' in json_blob


def test_plan_labels():
    assert _plan().label() == "RF"
    assert _plan(k_features=50).label() == "RF top-50"
    assert _plan(k_features=25, downsample=2).label() == "RF top-25 L=2"
    assert _plan(downsample=3).label() == "RF L=3"
    assert _plan(model_kind="linear").label() == "Linear"


def test_plan_validation():
    with pytest.raises(ValueError):
        _plan(model_kind="boosted")
    with pytest.raises(ValueError):
        _plan(downsample=0)
    with pytest.raises(ValueError):
        _plan(k_features=0)


def test_a_nan_downsample_threshold_is_refused():
    # every comparison with NaN is False, so no row would count as low and
    # the "downsampled" fit would silently be the un-thinned one
    with pytest.raises(ValueError, match="threshold"):
        _plan(downsample=2, downsample_threshold=float("nan"))
    with pytest.raises(ValueError, match="threshold"):
        downsample_low_kp(make_dataset(np.arange(4.0), [1.0, 2.0, 5.0, 6.0]), 2,
                          float("nan"))


@pytest.mark.parametrize("threshold", [-1.0, -1e-300, float("-inf")])
def test_a_negative_downsample_threshold_is_refused(threshold):
    # targets lie in [0, 9]: no row would count as low, as with NaN
    with pytest.raises(ValueError, match="downsample threshold must be >= 0"):
        _plan(downsample=2, downsample_threshold=threshold)
    with pytest.raises(ValueError, match="downsample threshold must be >= 0"):
        downsample_low_kp(make_dataset(np.arange(4.0), [1.0, 2.0, 5.0, 6.0]), 2, threshold)


def test_a_zero_downsample_threshold_thins_the_zero_rows():
    data = make_dataset(np.arange(6.0), [0.0, -0.0, 0.0, 0.0, 5.0, 6.0])
    assert _plan(downsample=2, downsample_threshold=-0.0).downsample_threshold == 0.0
    assert downsample_low_kp(data, 2, 0.0, seed=1).n_rows == 4  # 2 of 4 zeros, both highs


def test_a_datetime_cutoff_fails_at_construction():
    with pytest.raises(TypeError):
        _plan(cutoff_minute=datetime(2021, 1, 13, tzinfo=timezone.utc))
    with pytest.raises(TypeError):
        _plan(cutoff=_cutoff(12))


def test_a_linear_plan_refuses_k_features():
    # run_plan ranks features by a forest's importances: a linear plan with
    # k_features once fitted on every feature and still echoed the k
    with pytest.raises(ValueError, match="k_features needs a forest plan, not a linear one"):
        _plan(model_kind="linear", k_features=5)
    assert _plan(model_kind="linear").echo()["k_features"] is None


def test_a_plan_checks_k_and_mtry_against_the_width_it_fits():
    # a k or mtry too large once failed only after a full-width fit
    width = SMALL_SPEC.feature_count
    with pytest.raises(ValueError, match=f"^k_features {width + 1} exceeds feature count {width}$"):
        _plan(k_features=width + 1)
    with pytest.raises(ValueError, match=f"^mtry {width + 1} exceeds feature count {width}$"):
        _plan(forest_config=forest.ForestConfig(mtry=width + 1))
    with pytest.raises(ValueError, match="^mtry 9 exceeds feature count 8$"):  # the top-k fit
        _plan(k_features=8, forest_config=forest.ForestConfig(mtry=9))
    assert _plan(k_features=width, forest_config=forest.ForestConfig(mtry=width)).k_features == width
    assert _plan(k_features=8, forest_config=forest.ForestConfig(mtry=8)).label() == "RF top-8"
    # a linear plan fits no forest
    assert _plan(model_kind="linear", forest_config=forest.ForestConfig(mtry=width + 1)).label() == "Linear"


def test_downsample_seed_resolution():
    derived = _plan().resolved_downsample_seed()
    assert derived == derive_seed(FAST_FOREST.seed, 0x646F776E)
    assert derived != FAST_FOREST.seed


# -- orchestration == manual stage composition -------------------------------------


def test_run_plan_matches_manual_forest_pipeline():
    solar, dst, kp = _sources(seed=2)
    plan = _plan(k_features=12, downsample=2)
    data = fuse(solar, dst, kp, SMALL_SPEC)
    result = run_plan(data, plan)

    train, test = split_by_time(data, plan.cutoff_minute)
    ranking = forest.importance(forest.fit(train, FAST_FOREST))
    subset = forest.top_k(ranking, 12)
    train = select_features(train, subset)
    test = select_features(test, subset)
    train = downsample_low_kp(train, 2, 4.0, plan.resolved_downsample_seed())
    model = forest.fit(train, FAST_FOREST)
    predicted = forest.predict_batch(model, test.rows)

    assert modelio.model_to_json(result.model) == modelio.model_to_json(model)
    assert result.report.accuracy_within_1 == accuracy_within_1(
        predicted, test.targets
    )
    assert result.report.n == test.n_rows


def test_run_plan_matches_manual_linear_pipeline():
    solar, dst, kp = _sources(seed=3)
    plan = _plan(model_kind="linear")
    data = fuse(solar, dst, kp, SMALL_SPEC)
    result = run_plan(data, plan)

    train, test = split_by_time(data, plan.cutoff_minute)
    model = baseline.fit_linear(train)
    predicted = baseline.predict_linear_batch(model, test.rows)
    assert modelio.model_to_json(result.model) == modelio.model_to_json(model)
    assert result.report.accuracy_within_1 == accuracy_within_1(
        predicted, test.targets
    )


def test_run_experiment_equals_fuse_plus_run_plan():
    solar, dst, kp = _sources(seed=4)
    plan = _plan()
    direct = run_experiment(plan, solar, dst, kp)
    staged = run_plan(fuse(solar, dst, kp, SMALL_SPEC), plan).report
    assert direct == staged


# -- leakage guard ------------------------------------------------------------------


def test_removing_a_test_row_cannot_change_the_model():
    solar, dst, kp = _sources(seed=5)
    plan = _plan(k_features=10, downsample=2)
    data = fuse(solar, dst, kp, SMALL_SPEC)
    full = run_plan(data, plan)

    # drop the final test row and rerun: every fitted artefact must be
    # bit-identical, because nothing downstream of the cutoff may leak in
    keep = slice(0, data.n_rows - 1)
    trimmed = FusedDataset(
        feature_names=data.feature_names,
        rows=data.rows[keep].copy(),
        targets=data.targets[keep].copy(),
        row_minutes=data.row_minutes[keep],
    )
    assert trimmed.row_minutes[-1] >= plan.cutoff_minute  # still a non-empty test split
    again = run_plan(trimmed, plan)
    assert modelio.model_to_json(full.model) == modelio.model_to_json(again.model)


def test_empty_splits_raise():
    data = make_dataset(np.arange(5.0), np.ones(5))
    with pytest.raises(EmptyTestSet):
        run_plan(data, _plan(cutoff_minute=EPOCH + 400 * 1440))
    with pytest.raises(EmptyDataset):
        run_plan(data, _plan(cutoff_minute=EPOCH - 1440))


# -- comparison table ----------------------------------------------------------------


def test_comparison_table_order_labels_and_cache_purity():
    solar, dst, kp = _sources(seed=6)
    plans = [
        _plan(),
        _plan(k_features=8),
        _plan(k_features=8, downsample=2),
        _plan(model_kind="linear"),
    ]
    table = comparison_table(plans, solar, dst, kp)
    assert [label for label, _ in table] == ["RF", "RF top-8", "RF top-8 L=2",
                                             "Linear"]
    assert all(0.0 <= acc <= 1.0 for _, acc in table)
    # the memoised ranking fit must not change any number: run each plan
    # in isolation (fresh caches) and compare
    for plan, (label, acc) in zip(plans, table):
        assert run_experiment(plan, solar, dst, kp).accuracy_within_1 == acc


def test_comparison_table_fits_each_forest_once(monkeypatch):
    solar, dst, kp = _sources(seed=6)
    widths = []
    real_fit = forest.fit

    def counting_fit(data, config=forest.ForestConfig(), threads=1):
        widths.append(data.n_features)
        return real_fit(data, config, threads)

    monkeypatch.setattr(forest, "fit", counting_fit)
    plans = [
        _plan(),
        _plan(k_features=12),
        _plan(k_features=8),
        _plan(k_features=8, downsample=2),
        _plan(model_kind="linear"),
    ]
    comparison_table(plans, solar, dst, kp)
    # one full-width fit serves the RF row and both rankings
    full_width = fuse(solar, dst, kp, SMALL_SPEC).n_features
    assert widths == [full_width, 12, 8, 8]


def test_shared_fits_hold_the_full_width_forest():
    solar, dst, kp = _sources(seed=7)
    data = fuse(solar, dst, kp, SMALL_SPEC)
    fits: dict = {}
    top = run_plan(data, _plan(k_features=10), fits=fits)
    rf = run_plan(data, _plan(), fits=fits)
    assert list(fits) == [(SMALL_SPEC, _cutoff(12), FAST_FOREST)]
    fitted_on, model = fits[(SMALL_SPEC, _cutoff(12), FAST_FOREST)]
    assert fitted_on is data and rf.model is model
    # sharing changes no result
    assert rf.report == run_plan(data, _plan()).report
    assert top.report == run_plan(data, _plan(k_features=10)).report


@pytest.mark.parametrize("k_features", [None, 10], ids=["RF", "top-k ranking"])
def test_shared_fits_refuse_another_dataset(k_features):
    """A dict that holds one dataset's forest never hands it to another
    dataset's plan of the same lag spec, cutoff and forest config."""
    first, second = (fuse(*_sources(seed=seed), SMALL_SPEC) for seed in (1, 2))
    fits: dict = {}
    run_plan(first, _plan(), fits=fits)
    with pytest.raises(ValueError, match="another dataset"):
        run_plan(second, _plan(k_features=k_features), fits=fits)
    assert run_plan(first, _plan(k_features=k_features), fits=fits).report == run_plan(
        first, _plan(k_features=k_features)).report
