"""Experiment orchestration and the within-±1 accuracy metric.

``run_plan`` runs one plan on a dataset the caller fused with the plan's lag
spec, in a fixed, leakage-free order:

1. split chronologically at the cutoff,
2. if a forest with feature selection is asked for: rank the features by
   the importances of the full-width forest fitted on the *training* rows
   only, take the top-k, and project both splits onto them,
3. downsample low-Kp rows (training split only),
4. fit the final model on the training split,
5. predict the test split and score.

The full-width forest of step 2 is the same fit as the final model of a
plain RF plan (same rows, same config, and fits are deterministic).  A
caller-owned ``fits`` dict shares it between plans, so a comparison fits it
once.  Nothing derived from test rows ever reaches a fit.
"""

from __future__ import annotations

import json
import operator
from dataclasses import asdict, dataclass

import numpy as np

from . import baseline, forest
from .errors import EmptyDataset, EmptyInput, EmptyTestSet, LengthMismatch, NonFiniteValue
from .fusion import (
    FusedDataset,
    LagSpec,
    check_downsample,
    downsample_low_kp,
    split_by_time,
    select_features,
)
from .ingest import format_timestamp
from .rng import derive_seed

__all__ = [
    "MODEL_KINDS",
    "EvalReport",
    "ExperimentPlan",
    "PlanResult",
    "accuracy_within_1",
    "run_plan",
    "comparison_table",
]

_DOWNSAMPLE_STREAM = 0x646F776E  # "down": namespaces the downsampling seed
_STORM_KP = 4.0

#: The models a plan can fit: the forest and the linear baseline.
MODEL_KINDS = ("forest", "linear")


def accuracy_within_1(predicted, actual) -> float:
    """Fraction of predictions within 1 Kp of the truth (boundary counts)."""
    predicted = np.asarray(predicted, dtype=np.float64)
    actual = np.asarray(actual, dtype=np.float64)
    if predicted.shape != actual.shape:
        raise LengthMismatch(
            f"{predicted.shape[0] if predicted.ndim else 0} predictions vs "
            f"{actual.shape[0] if actual.ndim else 0} actuals"
        )
    if predicted.ndim != 1 or predicted.size == 0:
        raise EmptyInput("need at least one (predicted, actual) pair")
    if not np.isfinite(predicted).all() or not np.isfinite(actual).all():
        raise NonFiniteValue("metric inputs must be finite")
    return float(np.mean(np.abs(predicted - actual) <= 1.0))


@dataclass(frozen=True)
class EvalReport:
    """Test-split scores plus an echo of the configuration that made them."""

    n: int
    accuracy_within_1: float
    mean_abs_error: float
    per_bin_hits: tuple[int, int, int]  # |error| in [0,1], (1,2], >2
    storm_n: int  # test rows with actual Kp > 4
    storm_accuracy_within_1: float | None
    config_echo: dict

    def to_json(self) -> str:
        obj = asdict(self)
        obj["config"] = obj.pop("config_echo")
        return json.dumps(obj, indent=2, sort_keys=True) + "\n"

    def to_text(self) -> str:
        lines = [
            f"test rows            {self.n}",
            f"accuracy within +/-1 {self.accuracy_within_1:.4f}",
            f"mean absolute error  {self.mean_abs_error:.4f}",
            "error bins           "
            f"[0,1]: {self.per_bin_hits[0]}  (1,2]: {self.per_bin_hits[1]}  "
            f">2: {self.per_bin_hits[2]}",
        ]
        if self.storm_n:
            lines.append(
                f"storm rows (Kp > 4)  {self.storm_n}, "
                f"within +/-1 {self.storm_accuracy_within_1:.4f}"
            )
        else:
            lines.append("storm rows (Kp > 4)  none in test split")
        return "".join(line + "\n" for line in lines)


def _report(predicted: np.ndarray, actual: np.ndarray, config_echo: dict) -> EvalReport:
    err = np.abs(predicted - actual)
    storms = actual > _STORM_KP
    return EvalReport(
        n=int(actual.size),
        accuracy_within_1=accuracy_within_1(predicted, actual),
        mean_abs_error=float(err.mean()),
        per_bin_hits=(
            int((err <= 1.0).sum()),
            int(((err > 1.0) & (err <= 2.0)).sum()),
            int((err > 2.0).sum()),
        ),
        storm_n=int(storms.sum()),
        storm_accuracy_within_1=(
            accuracy_within_1(predicted[storms], actual[storms])
            if storms.any()
            else None
        ),
        config_echo=config_echo,
    )


@dataclass(frozen=True)
class ExperimentPlan:
    """Everything one experiment needs besides the dataset it runs on."""

    cutoff_minute: int  # rows before this minute since 1970-01-01T00:00Z train
    lag_spec: LagSpec = LagSpec()
    forest_config: forest.ForestConfig = forest.ForestConfig()
    model_kind: str = "forest"  # one of MODEL_KINDS
    k_features: int | None = None  # None = keep all features; forests only
    downsample: int = 1  # keep 1/downsample of low-Kp training rows
    downsample_threshold: float = _STORM_KP

    def __post_init__(self) -> None:
        object.__setattr__(self, "cutoff_minute", operator.index(self.cutoff_minute))
        if self.model_kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.model_kind!r}")
        check_downsample(self.downsample, self.downsample_threshold)
        width = self.lag_spec.feature_count  # the columns the plan fits
        if self.k_features is not None:
            if self.k_features < 1:
                raise ValueError("k_features must be >= 1 when given")
            if self.model_kind != "forest":  # the ranking is a forest's importances
                raise ValueError(f"k_features needs a forest plan, not a {self.model_kind} one")
            if self.k_features > width:
                raise ValueError(f"k_features {self.k_features} exceeds feature count {width}")
            width = self.k_features
        if self.model_kind == "forest":
            self.forest_config.resolve_mtry(width)

    def label(self) -> str:
        if self.model_kind == "linear":
            return "Linear"
        parts = ["RF"]
        if self.k_features is not None:
            parts.append(f"top-{self.k_features}")
        if self.downsample > 1:
            parts.append(f"L={self.downsample}")
        return " ".join(parts)

    def resolved_downsample_seed(self) -> int:
        """The seed of the low-Kp draw, derived from the forest seed."""
        return derive_seed(self.forest_config.seed, _DOWNSAMPLE_STREAM)

    def echo(self) -> dict:
        """Every field, with the cutoff as a timestamp, plus the plan's label."""
        obj = asdict(self)
        obj["cutoff"] = format_timestamp(obj.pop("cutoff_minute"))
        obj["forest"] = obj.pop("forest_config")
        obj["label"] = self.label()
        return obj


@dataclass(frozen=True)
class PlanResult:
    model: object  # ForestModel | LinearModel
    report: EvalReport


def _full_width_fit(
    data: FusedDataset, train: FusedDataset, plan: ExperimentPlan, threads: int, fits: dict
) -> forest.ForestModel:
    """The forest fitted on the whole, un-downsampled training split of ``data``.

    ``fits`` maps ``(lag_spec, cutoff_minute, forest_config)`` to the dataset
    and that forest; the key leaves out ``threads``, which never changes a model.
    """
    key = (plan.lag_spec, plan.cutoff_minute, plan.forest_config)
    if key not in fits:
        fits[key] = (data, forest.fit(train, plan.forest_config, threads))
    if fits[key][0] is not data:
        raise ValueError("fits holds a forest of another dataset; give each dataset its own dict")
    return fits[key][1]


def run_plan(
    data: FusedDataset,
    plan: ExperimentPlan,
    threads: int = 1,
    *,
    fits: dict | None = None,
) -> PlanResult:
    """Execute a plan on a dataset fused with its lag spec.

    Plans on one dataset that share a ``fits`` dict share the full-width
    training fit: the plain RF plan's model and every top-k plan's ranking
    forest.  A dataset of another lag spec, or a ``fits`` dict that holds
    another dataset's fit, raises ``ValueError``.
    """
    if data.feature_names != plan.lag_spec.feature_names():
        raise ValueError("the dataset's features are not those of the plan's lag spec")
    fits = {} if fits is None else fits
    train, test = split_by_time(data, plan.cutoff_minute)
    if test.n_rows == 0:
        raise EmptyTestSet(f"no rows at or after {format_timestamp(plan.cutoff_minute)}")
    if train.n_rows == 0:
        raise EmptyDataset(f"no rows before {format_timestamp(plan.cutoff_minute)}")

    if plan.k_features is not None:  # a forest plan: the plan refuses a linear one
        ranking = forest.importance(_full_width_fit(data, train, plan, threads, fits))
        subset = forest.top_k(ranking, plan.k_features)
        train = select_features(train, subset)
        test = select_features(test, subset)

    if plan.downsample > 1:
        train = downsample_low_kp(
            train,
            plan.downsample,
            plan.downsample_threshold,
            plan.resolved_downsample_seed(),
        )

    if plan.model_kind == "forest":
        if plan.k_features is None and plan.downsample == 1:
            model = _full_width_fit(data, train, plan, threads, fits)
        else:
            model = forest.fit(train, plan.forest_config, threads)
        predicted = forest.predict_batch(model, test.rows)
    else:
        model = baseline.fit_linear(train)
        predicted = baseline.predict_linear_batch(model, test.rows)
    return PlanResult(model, _report(predicted, test.targets, plan.echo()))


def comparison_table(plans, data: FusedDataset, threads: int = 1) -> list[tuple[str, float]]:
    """``(label, accuracy_within_1)`` per plan on ``data``, in input order.

    The full-width training fit is shared between the plain RF plan and the
    top-k rankings of plans with identical (cutoff, forest config).  It is a
    pure cache that cannot change any result: the paper's comparison (RF, two
    top-k rows, a downsampled top-k row, Linear) makes four forest fits, not
    five.
    """
    fits: dict = {}
    return [(plan.label(), run_plan(data, plan, threads, fits=fits).report.accuracy_within_1)
            for plan in plans]
