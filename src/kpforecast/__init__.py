"""Early prediction of the geomagnetic Kp index.

The pipeline fuses solar-wind (5-minute), Dst (hourly) and Kp (3-hourly)
measurements into lagged feature rows on the 3-hour Kp grid, trains a
from-scratch random-forest regressor to predict Kp a few hours ahead, and
evaluates it — against an ordinary-least-squares baseline — by the fraction
of test predictions within one Kp unit of the truth.

Importing the package sets numpy's OpenBLAS idle policy, so the lines that
do it must run before anything imports numpy.  OpenBLAS reads
``OPENBLAS_THREAD_TIMEOUT`` once, when numpy loads it, and starts its
worker threads then.  By default (2^28 cycles, about 0.1 s) each idle
worker spins that long at start-up and after every threaded BLAS call
before it sleeps, which costs a short command about 0.1 s of CPU per
worker and does no work.  The package sets the minimum, 4 (2^4 cycles), so
an idle worker sleeps at once.  A value already in the environment is
kept, and so is the worker count (``OPENBLAS_NUM_THREADS``).  The timeout
changes no output.  The worker count changes three, whose last bits follow
how BLAS splits its work: the linear model file (``train --model-kind
linear``), the linear ``evaluate`` report and the ``pca`` projection.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_THREAD_TIMEOUT", "4")

from .baseline import LinearModel, fit_linear, predict_linear_batch
from .datagen import SynthConfig, generate
from .errors import DataError, KpForecastError
from .evaluate import (
    EvalReport,
    ExperimentPlan,
    accuracy_within_1,
    comparison_table,
    run_plan,
)
from .forest import (
    ForestConfig,
    ForestModel,
    ImportanceReport,
    fit,
    importance,
    predict_batch,
    top_k,
)
from .fusion import (
    FeatureSubset,
    FusedDataset,
    LagSpec,
    downsample_low_kp,
    fuse,
    select_features,
    split_by_time,
)
from .ingest import (
    MeasurementSeries,
    MeasurementTable,
    parse_dst,
    parse_kp,
    parse_solar_wind,
    solar_wind_series,
    to_series,
)
from .modelio import load_model, model_from_json, model_to_json, save_model
from .pca import PcaModel, fit_pca, project
from .rng import PortableRng, derive_seed

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "KpForecastError",
    "DataError",
    "PortableRng",
    "derive_seed",
    "MeasurementSeries",
    "MeasurementTable",
    "parse_solar_wind",
    "parse_dst",
    "parse_kp",
    "to_series",
    "solar_wind_series",
    "LagSpec",
    "FusedDataset",
    "FeatureSubset",
    "fuse",
    "downsample_low_kp",
    "select_features",
    "split_by_time",
    "ForestConfig",
    "ForestModel",
    "ImportanceReport",
    "fit",
    "predict_batch",
    "importance",
    "top_k",
    "LinearModel",
    "fit_linear",
    "predict_linear_batch",
    "PcaModel",
    "fit_pca",
    "project",
    "EvalReport",
    "ExperimentPlan",
    "accuracy_within_1",
    "run_plan",
    "comparison_table",
    "SynthConfig",
    "generate",
    "model_to_json",
    "model_from_json",
    "save_model",
    "load_model",
]
