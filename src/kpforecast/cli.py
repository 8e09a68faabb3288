"""Command-line interface.

Subcommands: ``synth``, ``fuse``, ``train``, ``predict``, ``importance``,
``evaluate``, ``compare``, ``pca``.  Every option can also live in a flat
``key = value`` config file (``#`` comments allowed) passed via ``--config``;
a flag given on the command line wins over the file.  Exit codes: 0 success,
1 usage error, 2 data error.  Diagnostics go to stderr; data goes to files
or stdout.  Reruns with identical inputs and seeds produce byte-identical
outputs.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
from pathlib import Path
from types import SimpleNamespace
from typing import BinaryIO

from . import baseline, datagen, evaluate, forest, ingest, modelio, pca
from .errors import DataError
from .fusion import FusedDataset, LagSpec, fuse
from .ingest import parse_timestamp

__all__ = ["main", "entry_point"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage problems exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        raise _UsageError(message)


# --------------------------------------------------------------------------
# option plumbing

_REQUIRED = object()


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1"):
        return True
    if lowered in ("false", "no", "0"):
        return False
    raise ValueError(f"expected true/false, got {text!r}")


def _mtry(text: str) -> int | None:
    return None if text.strip() == "default" else int(text)


def _k_features(text: str) -> int | None:
    return None if text.strip() == "all" else int(text)


def _int_list(text: str) -> tuple[int, ...]:
    items = [t.strip() for t in text.split(",") if t.strip()]
    if not items:
        raise ValueError("expected a comma-separated list of integers")
    values = tuple(int(t) for t in items)
    repeated = next((v for i, v in enumerate(values) if v in values[:i]), None)
    if repeated is not None:
        raise ValueError(f"{repeated} is given twice")
    return values


def _timestamp(text: str) -> int:
    return parse_timestamp(text.strip())


def _model_kind(text: str) -> str:
    if text not in evaluate.MODEL_KINDS:
        raise ValueError(f"expected {' or '.join(evaluate.MODEL_KINDS)}, got {text!r}")
    return text


@contextlib.contextmanager
def _naming(path: str):
    """Prefix ``path`` to a fault in the content of that input file: a
    :class:`DataError`, or bytes that are not UTF-8, becomes a data error
    that names the file."""
    try:
        yield
    except (DataError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None


def _load_config(path: str) -> dict[str, str]:
    with _naming(path):
        text = Path(path).read_text(encoding="utf-8")
    values: dict[str, str] = {}
    set_on: dict[str, int] = {}  # the line each key was set on
    for line_no, raw in enumerate(text.split("\n"), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep or not key.strip():
            raise _UsageError(f"{path}:{line_no}: expected 'key = value'")
        name = key.strip().replace("-", "_")
        if name in set_on:
            raise _UsageError(f"{path}:{line_no}: {key.strip()} is already set on line "
                              f"{set_on[name]}")
        values[name], set_on[name] = value.strip(), line_no
    return values


def _resolve(args: argparse.Namespace, spec: dict) -> SimpleNamespace:
    """Merge flag values over config-file values over defaults.

    The result's ``given`` holds the names of the options that a flag or
    the config file set.
    """
    file_values = _load_config(args.config) if args.config else {}
    unknown = set(file_values) - set(spec)
    if unknown:
        raise _UsageError("unknown config key(s): " + ", ".join(sorted(unknown)))
    resolved, given = {}, set()
    for name, (convert, default, _help) in spec.items():
        raw = getattr(args, name, None)
        if raw is None:
            raw = file_values.get(name)
        if raw is None:
            if default is _REQUIRED:
                raise _UsageError(f"missing required option --{_flag(name)}")
            resolved[name] = default
        else:
            given.add(name)
            try:
                resolved[name] = convert(raw)
            except ValueError as exc:
                raise _UsageError(f"bad value for --{_flag(name)}: {exc}") from None
    return SimpleNamespace(**resolved, given=frozenset(given))


def _flag(name: str) -> str:
    return name.replace("_", "-")


def _field_spec(cls, options: dict) -> dict:
    """Spec entries for flags that set fields of the dataclass ``cls``.

    ``options`` maps each flag name to ``(field, convert, help)``; the flag's
    default is the field's own, so the dataclass states it once.
    """
    defaults = {field.name: field.default for field in dataclasses.fields(cls)}
    return {name: (convert, defaults[field], help_text)
            for name, (field, convert, help_text) in options.items()}


def _values(options: dict, opts) -> dict:
    """The resolved values of the flags in ``options``, keyed by the fields they set."""
    return {field: getattr(opts, name) for name, (field, _, _) in options.items()}


def _add_options(sub: argparse.ArgumentParser, spec: dict) -> None:
    sub.add_argument("--config", help="flat key = value file mirroring the flags")
    for name, (_convert, default, help_text) in spec.items():
        suffix = "" if default in (_REQUIRED, None) else f" (default {default})"
        sub.add_argument(f"--{_flag(name)}", dest=name, help=help_text + suffix)


# shared option blocks ------------------------------------------------------

_SOURCE_SPEC = {
    "solar_wind": (str, _REQUIRED, "solar-wind CSV path"),
    "dst": (str, _REQUIRED, "dst CSV path"),
    "kp": (str, _REQUIRED, "kp CSV path"),
}

_LAG_OPTIONS = {
    "solar_lookback_minutes": ("solar_wind_lookback_minutes", int, "solar-wind lookback window"),
    "solar_step_minutes": ("solar_wind_step_minutes", int, "solar-wind lag step"),
    "dst_lookback_hours": ("dst_lookback_hours", int, "dst lookback window"),
    "kp_lookback_hours": ("kp_lookback_hours", int, "kp lookback window"),
    "horizon_hours": ("horizon_hours", int, "how far ahead to predict"),
}
_LAG_SPEC = _field_spec(LagSpec, _LAG_OPTIONS)

_FOREST_OPTIONS = {
    "trees": ("n_trees", int, "number of trees"),
    "mtry": ("mtry", _mtry, "features tried per split; 'default' = p//3"),
    "min_leaf": ("min_leaf", int, "stop splitting nodes at this size"),
    "bootstrap": ("bootstrap", _bool, "draw a bootstrap sample per tree"),
    "seed": ("seed", int, "random seed"),
}
_FOREST_SPEC = _field_spec(forest.ForestConfig, _FOREST_OPTIONS)

_THREADS_SPEC = {"threads": (int, None, "worker threads (default: the usable CPUs)")}


def _fused(opts, lag_spec: LagSpec) -> FusedDataset:
    """The three source files named in ``opts``, fused with ``lag_spec``."""
    with _naming(opts.solar_wind):
        solar = ingest.solar_wind_series(
            ingest.parse_solar_wind(Path(opts.solar_wind).read_bytes()))
    with _naming(opts.dst):
        dst = ingest.to_series(ingest.parse_dst(Path(opts.dst).read_bytes()), "dst", 60)
    with _naming(opts.kp):
        kp = ingest.to_series(ingest.parse_kp(Path(opts.kp).read_bytes()), "kp", 180)
    return fuse(solar, dst, kp, lag_spec)


def _create(path_text: str) -> BinaryIO:
    """Open an output file for writing bytes, making its directory first."""
    path = Path(path_text)
    if path.parent != Path(""):
        path.parent.mkdir(parents=True, exist_ok=True)
    return path.open("wb")


def _write(path_text: str, content: str) -> None:
    with _create(path_text) as handle:
        handle.write(content.encode("utf-8"))


# --------------------------------------------------------------------------
# subcommands

_SYNTH_OPTIONS = {
    "seed": ("seed", int, "generator seed"),
    "days": ("n_days", int, "days of data"),
    "storm_rate": ("storm_rate_per_day", float, "mean storm events per day"),
    "noise_scale": ("noise_scale", float, "noise multiplier"),
}
_SYNTH_SPEC = {**_field_spec(datagen.SynthConfig, _SYNTH_OPTIONS),
               "out": (str, _REQUIRED, "output directory")}


def _cmd_synth(args) -> int:
    opts = _resolve(args, _SYNTH_SPEC)
    datagen.write_csv(datagen.SynthConfig(**_values(_SYNTH_OPTIONS, opts)), opts.out)
    return 0


_FUSE_SPEC = {**_SOURCE_SPEC, **_LAG_SPEC,
              "out": (str, _REQUIRED, "output dataset CSV")}


def _cmd_fuse(args) -> int:
    opts = _resolve(args, _FUSE_SPEC)
    data = _fused(opts, LagSpec(**_values(_LAG_OPTIONS, opts)))
    with _create(opts.out) as handle:
        data.write_csv(handle)
    return 0


_PLAN_OPTIONS = {
    "model_kind": ("model_kind", _model_kind, " or ".join(evaluate.MODEL_KINDS)),
    "k_features": ("k_features", _k_features, "train on the top-k features; 'all'"),
    "downsample": ("downsample", int, "keep 1/N of low-Kp training rows"),
    "downsample_threshold": ("downsample_threshold", float, "Kp at or below this is 'low'"),
}
_PLAN_SPEC = _field_spec(evaluate.ExperimentPlan, _PLAN_OPTIONS)

_TRAIN_SPEC = {
    "data": (str, _REQUIRED, "fused dataset CSV"),
    "model_kind": _PLAN_SPEC["model_kind"],
    **_FOREST_SPEC,
    **_THREADS_SPEC,
    "out": (str, _REQUIRED, "output model JSON"),
}


def _refuse_forest_options(opts, keep: tuple[str, ...] = ()) -> None:
    """A linear model ignores the forest options: refuse any given but ``keep``."""
    unused = [name for name in _FOREST_OPTIONS if name in opts.given and name not in keep]
    if unused:
        raise _UsageError(f"--{_flag(unused[0])} needs a forest model, not a linear one")


def _cmd_train(args) -> int:
    opts = _resolve(args, _TRAIN_SPEC)
    threads = _threads(opts)  # validate before touching the filesystem
    if opts.model_kind == "linear":
        _refuse_forest_options(opts)
        fit = baseline.fit_linear
    else:
        config = forest.ForestConfig(**_values(_FOREST_OPTIONS, opts))
        fit = functools.partial(forest.fit, config=config, threads=threads)
    with _naming(opts.data):
        model = fit(FusedDataset.read_csv(opts.data))
    _write(opts.out, modelio.model_to_json(model))
    return 0


_PREDICT_SPEC = {
    "model": (str, _REQUIRED, "model JSON path"),
    "data": (str, _REQUIRED, "fused dataset CSV"),
    "out": (str, _REQUIRED, "output predictions CSV"),
}


def _check_feature_names(model, data: FusedDataset, model_path: str,
                         data_path: str) -> None:
    """Refuse a dataset whose columns are not the model's, in order."""
    expected, got = model.feature_names, data.feature_names
    if expected == got:
        return
    i = next(
        (i for i, (a, b) in enumerate(zip(expected, got)) if a != b),
        min(len(expected), len(got)),
    )
    want = expected[i] if i < len(expected) else "no column"
    have = got[i] if i < len(got) else "no column"
    raise DataError(
        f"{data_path} does not match the features of {model_path}: "
        f"column {i + 1} is {have}, the model expects {want}"
    )


def _cmd_predict(args) -> int:
    opts = _resolve(args, _PREDICT_SPEC)
    model = modelio.load_model(opts.model)
    with _naming(opts.data):
        data = FusedDataset.read_csv(opts.data)
    _check_feature_names(model, data, opts.model, opts.data)
    with _naming(opts.model):  # a linear model's coefficients may overflow
        if isinstance(model, forest.ForestModel):
            predicted = forest.predict_batch(model, data.rows)
        else:
            predicted = baseline.predict_linear_batch(model, data.rows)
    with _create(opts.out) as handle:
        ingest.write_rows(handle, ("row_time", "predicted"), (predicted,),
                          ingest.format_minutes(data.row_minutes), stamp_last=False)
    return 0


_IMPORTANCE_SPEC = {
    "model": (str, _REQUIRED, "forest model JSON path"),
    "out": (str, _REQUIRED, "output ranking CSV"),
}


def _cmd_importance(args) -> int:
    opts = _resolve(args, _IMPORTANCE_SPEC)
    model = modelio.load_model(opts.model)
    if not isinstance(model, forest.ForestModel):
        raise DataError(f"{opts.model}: importance needs a forest model, got a linear one")
    _write(opts.out, forest.importance(model).to_csv())
    return 0


_EXPERIMENT_SPEC = {
    **_SOURCE_SPEC,
    **_LAG_SPEC,
    **_FOREST_SPEC,
    "cutoff": (_timestamp, _REQUIRED, "train/test boundary (UTC timestamp)"),
    **_THREADS_SPEC,
}

_EVALUATE_SPEC = {
    **_EXPERIMENT_SPEC,
    **_PLAN_SPEC,
    "out": (str, None, "optional report JSON path"),
}


def _plan(opts, **fields) -> evaluate.ExperimentPlan:
    lag_spec = LagSpec(**_values(_LAG_OPTIONS, opts))
    forest_values = _values(_FOREST_OPTIONS, opts)
    if fields.get("model_kind") == "linear":  # only the seed applies: it seeds the downsample draw
        forest_values = {"seed": forest_values["seed"]}
    return evaluate.ExperimentPlan(
        cutoff_minute=opts.cutoff,
        lag_spec=lag_spec,
        forest_config=forest.ForestConfig(**forest_values),
        **fields,
    )


def _cmd_evaluate(args) -> int:
    opts = _resolve(args, _EVALUATE_SPEC)
    threads = _threads(opts)  # validate before touching the filesystem
    plan = _plan(opts, **_values(_PLAN_OPTIONS, opts))
    if plan.model_kind == "linear":
        _refuse_forest_options(opts, keep=("seed",))
    report = evaluate.run_plan(_fused(opts, plan.lag_spec), plan, threads).report
    sys.stdout.write(report.to_text())
    if opts.out is not None:
        _write(opts.out, report.to_json())
    return 0


_COMPARE_SPEC = {
    **_EXPERIMENT_SPEC,
    "ks": (_int_list, (100, 50), "top-k feature counts to compare"),
    "downsample": (int, 2, "low-Kp factor for the downsampled variant"),
    "downsample_threshold": _PLAN_SPEC["downsample_threshold"],
    "out": (str, None, "optional table CSV path"),
}


def _cmd_compare(args) -> int:
    opts = _resolve(args, _COMPARE_SPEC)
    threads = _threads(opts)  # validate before touching the filesystem
    plans = [_plan(opts)]
    plans += [_plan(opts, k_features=k) for k in opts.ks]
    if opts.downsample != 1:  # the plan refuses a factor below 1, as evaluate's does
        plans.append(
            _plan(
                opts,
                k_features=opts.ks[-1],
                downsample=opts.downsample,
                downsample_threshold=opts.downsample_threshold,
            )
        )
    plans.append(_plan(opts, model_kind="linear"))
    table = evaluate.comparison_table(plans, _fused(opts, plans[0].lag_spec), threads)
    content = "label,accuracy\n" + "".join(
        f"{label},{acc!r}\n" for label, acc in table
    )
    sys.stdout.write(content)
    if opts.out is not None:
        _write(opts.out, content)
    return 0


_PCA_SPEC = {
    "data": (str, _REQUIRED, "fused dataset CSV"),
    "out": (str, _REQUIRED, "output projection CSV (pc1,pc2,kp_label)"),
}


def _cmd_pca(args) -> int:
    opts = _resolve(args, _PCA_SPEC)
    with _naming(opts.data):
        data = FusedDataset.read_csv(opts.data)
        coords = pca.project(pca.fit_pca(data, 2), data.rows)
    labels = [str(math.floor(target + 0.5)) for target in data.targets.tolist()]
    with _create(opts.out) as handle:
        ingest.write_rows(handle, ("pc1", "pc2", "kp_label"), (coords,), labels, stamp_last=True)
    return 0


def _threads(opts) -> int:
    if opts.threads is not None:
        if opts.threads < 1:
            raise _UsageError("bad value for --threads: must be >= 1")
        return opts.threads
    return forest.usable_cpus()


# --------------------------------------------------------------------------
# entry

_COMMANDS = {
    "synth": (_cmd_synth, _SYNTH_SPEC, "generate synthetic measurement CSVs"),
    "fuse": (_cmd_fuse, _FUSE_SPEC, "fuse measurement CSVs into a dataset"),
    "train": (_cmd_train, _TRAIN_SPEC, "fit a model on a fused dataset"),
    "predict": (_cmd_predict, _PREDICT_SPEC, "predict with a saved model"),
    "importance": (_cmd_importance, _IMPORTANCE_SPEC, "rank a forest's features"),
    "evaluate": (_cmd_evaluate, _EVALUATE_SPEC, "run one train/test experiment"),
    "compare": (_cmd_compare, _COMPARE_SPEC, "accuracy table across model variants"),
    "pca": (_cmd_pca, _PCA_SPEC, "project a dataset onto its top 2 components"),
}


def build_parser() -> _Parser:
    parser = _Parser(prog="kpforecast",
                     description="Kp-index early prediction toolkit")
    subparsers = parser.add_subparsers(dest="command", parser_class=_Parser)
    for name, (func, spec, help_text) in _COMMANDS.items():
        sub = subparsers.add_parser(name, help=help_text, description=help_text)
        _add_options(sub, spec)
        sub.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = None
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            sys.stderr.write("error: a subcommand is required\n")
            return 1
        return args.func(args)
    except (_UsageError, ValueError) as exc:  # ValueError: option checks (e.g. n_trees >= 1)
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except FileNotFoundError as exc:
        name = exc.filename if exc.filename else str(exc)
        sys.stderr.write(f"error: cannot read {name}: no such file\n")
        return 2
    except OSError as exc:  # a directory, no permission, ... where a file was named
        where = "" if exc.filename is None else f"{exc.filename}: "
        sys.stderr.write(f"error: {where}{exc.strerror or exc}\n")
        return 2
    except DataError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except MemoryError:  # an input too large for this machine is a data error, not a usage one
        command = getattr(args, "command", None) or parser.prog
        sys.stderr.write(f"error: out of memory while running {command}\n")
        return 2


def entry_point() -> None:
    raise SystemExit(main())
