"""Run one ``kpforecast`` command with spans around each layer's public functions.

Usage: ``python3 perfbench/tracer.py SPANS.json <kpforecast arguments>``
with the package on ``PYTHONPATH``.

Each traced function is replaced, in every ``kpforecast`` module that holds
it (``cli`` and ``evaluate`` import ``fuse`` by name), by a wrapper that
records a span: name, start, end, parent span and the counts taken from the
call's arguments and result.  Spans stay in memory and are written to
SPANS.json when the command ends.  The command's exit code is passed on.
"""

from __future__ import annotations

import functools
import json
import sys
import threading
import time

from kpforecast import baseline, cli, datagen, evaluate, forest, fusion, ingest, modelio


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _records(a, k, result) -> dict:
    return {"ingest.records": len(result)}


def _fused(a, k, result) -> dict:
    return {"fusion.rows": result.n_rows, "fusion.features": result.n_features}


def _fitted(a, k, result) -> dict:
    trees = len(result.trees)
    rows = _arg(a, k, 0, "data").n_rows
    return {"forest.fit_calls": 1, "forest.trees": trees, "forest.fit_row_trees": rows * trees}


def _routed(a, k, result) -> dict:
    return {"forest.predictions": len(result) * len(_arg(a, k, 0, "model").trees)}


# span name -> (owner, attribute, self-time metric, counts(args, kwargs, result))
TRACED = {
    "ingest.parse_solar_wind": (ingest, "parse_solar_wind", "ingest.parse_s", _records),
    "ingest.parse_dst": (ingest, "parse_dst", "ingest.parse_s", _records),
    "ingest.parse_kp": (ingest, "parse_kp", "ingest.parse_s", _records),
    "ingest.to_series": (ingest, "to_series", "ingest.series_s", None),
    "ingest.solar_wind_series": (ingest, "solar_wind_series", "ingest.series_s", None),
    "fusion.fuse": (fusion, "fuse", "fusion.fuse_s", _fused),
    "fusion.split_by_time": (fusion, "split_by_time", "fusion.split_s", None),
    "fusion.select_features": (fusion, "select_features", "fusion.select_s", None),
    "fusion.downsample_low_kp": (fusion, "downsample_low_kp", "fusion.downsample_s", None),
    "fusion.FusedDataset.to_csv": (
        fusion.FusedDataset, "to_csv", "fusion.to_csv_s",
        lambda a, k, r: {"fusion.csv_mb": len(r) / 1e6},
    ),
    "fusion.FusedDataset.from_csv": (
        fusion.FusedDataset, "from_csv", "fusion.from_csv_s",
        lambda a, k, r: {"fusion.csv_mb": len(_arg(a, k, 1, "content")) / 1e6},
    ),
    "forest.fit": (forest, "fit", "forest.fit_s", _fitted),
    "forest.predict_batch": (forest, "predict_batch", "forest.predict_s", _routed),
    "forest.importance": (forest, "importance", "forest.importance_s", None),
    "forest.top_k": (forest, "top_k", "forest.importance_s", None),
    "evaluate.run_plan": (
        evaluate, "run_plan", "evaluate.run_plan_self_s", lambda a, k, r: {"evaluate.plans": 1},
    ),
    "baseline.fit_linear": (baseline, "fit_linear", "baseline.fit_s", None),
    "baseline.predict_linear_batch": (baseline, "predict_linear_batch", "baseline.predict_s", None),
    "modelio.model_to_json": (
        modelio, "model_to_json", "modelio.dump_s",
        lambda a, k, r: {"modelio.model_mb": len(r) / 1e6},
    ),
    "modelio.model_from_json": (
        modelio, "model_from_json", "modelio.load_s",
        lambda a, k, r: {"modelio.model_mb": len(_arg(a, k, 0, "content")) / 1e6},
    ),
    "modelio.load_model": (modelio, "load_model", "modelio.load_s", None),
    "datagen.write_csv": (datagen, "write_csv", "datagen.write_csv_s", None),
    "cli.main": (cli, "main", "cli.self_s", None),
}


class Recorder:
    """Spans of one process, kept in memory; parents come from a per-thread stack."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def wrap(self, name: str, metric: str, func, counts):
        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._local.__dict__.setdefault("stack", [])
            parent = stack[-1] if stack else None
            span = {"name": name, "metric": metric, "parent": parent, "counts": {}}
            with self._lock:
                span["id"] = len(self.spans)
                self.spans.append(span)
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
            if counts is not None:
                span["counts"] = counts(args, kwargs, result)
            return result

        return traced


def install(recorder: Recorder) -> None:
    """Swap every traced function for its wrapper wherever the package holds it."""
    modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "kpforecast"]
    for name, (owner, attribute, metric, counts) in TRACED.items():
        raw = owner.__dict__[attribute]
        if isinstance(raw, classmethod):
            wrapped = recorder.wrap(name, metric, raw.__func__, counts)
            setattr(owner, attribute, classmethod(wrapped))
            continue
        wrapped = recorder.wrap(name, metric, raw, counts)
        if isinstance(owner, type):
            setattr(owner, attribute, wrapped)
            continue
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    setattr(module, key, wrapped)


def main(argv: list[str]) -> int:
    out, args = argv[0], argv[1:]
    recorder = Recorder()
    install(recorder)
    try:
        return cli.main(args)
    finally:
        with open(out, "w", encoding="utf-8") as handle:
            json.dump(recorder.spans, handle)


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
