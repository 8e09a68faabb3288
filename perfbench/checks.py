"""Correctness checks for the benchmark's workloads.

Every reference value here is computed from the raw canonical CSVs with the
benchmark's own arithmetic: it never imports ``kpforecast``.  Each check
returns a list of error strings; an empty list means the output passed.

The lag arithmetic is that of the CLI's default lag spec: solar wind at
lags 0, 5, ..., 535 minutes, Dst at 0, 60, 120 minutes, Kp at
0, 180, ..., 1260 minutes, target Kp 180 minutes ahead.  The archives the
benchmark generates are gap-free, so an instant is a row exactly when its
whole window and its target lie inside the series.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

import numpy as np

SOLAR_FIELDS = ("fma", "bx", "by", "bz", "speed", "density", "temperature")
SOLAR_LAGS = np.arange(0, 540, 5)
DST_LAGS = np.arange(0, 180, 60)
KP_LAGS = np.arange(0, 1440, 180)
HORIZON = 180


class CheckError(Exception):
    """An input the checks cannot read (as opposed to a failed check)."""


def minute_of(text: str) -> int:
    """Minutes since the Unix epoch of a ``YYYY-MM-DDTHH:MMZ`` timestamp."""
    return int(datetime.fromisoformat(text.replace("Z", "+00:00")).timestamp()) // 60


@dataclass(frozen=True)
class Series:
    """A gap-free series: ``values[i]`` is the sample at ``start + i * step``."""

    start: int
    step: int
    values: np.ndarray  # (n, fields)

    def at(self, minutes: np.ndarray) -> np.ndarray:
        offset = np.asarray(minutes) - self.start
        if np.any(offset % self.step) or np.any(offset < 0):
            raise CheckError("instant off the series grid")
        index = offset // self.step
        if np.any(index >= len(self.values)):
            raise CheckError("instant past the end of the series")
        return self.values[index]

    def covers(self, minutes: np.ndarray) -> np.ndarray:
        offset = np.asarray(minutes) - self.start
        return (offset >= 0) & (offset // self.step < len(self.values)) & (offset % self.step == 0)


def read_series(path: Path, step: int) -> Series:
    times, values = [], []
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if not line or line.startswith("#"):
            continue
        stamp, *fields = line.split(",")
        times.append(minute_of(stamp))
        values.append([float(f) for f in fields])
    if not times or np.any(np.diff(times) != step):
        raise CheckError(f"{path}: not a gap-free {step}-minute series")
    return Series(times[0], step, np.asarray(values, dtype=np.float64))


@dataclass(frozen=True)
class Archive:
    solar: Series
    dst: Series
    kp: Series

    @classmethod
    def read(cls, directory: Path) -> "Archive":
        directory = Path(directory)
        return cls(
            read_series(directory / "solar_wind.csv", 5),
            read_series(directory / "dst.csv", 60),
            read_series(directory / "kp.csv", 180),
        )

    def instants(self) -> np.ndarray:
        """Kp instants whose whole lag window and target are in the archive."""
        t = self.kp.start + 180 * np.arange(len(self.kp.values))
        ok = self.kp.covers(t + HORIZON)
        for series, lags in ((self.solar, SOLAR_LAGS), (self.dst, DST_LAGS), (self.kp, KP_LAGS)):
            ok &= series.covers(t[:, None] - lags[None, :]).all(axis=1)
        return t[ok]

    def design(self, t: np.ndarray) -> np.ndarray:
        """Every lagged input of each instant (column order is the benchmark's own)."""
        blocks = [
            self.solar.at(t[:, None] - SOLAR_LAGS[None, :]).reshape(len(t), -1),
            self.dst.at(t[:, None] - DST_LAGS[None, :]).reshape(len(t), -1),
            self.kp.at(t[:, None] - KP_LAGS[None, :]).reshape(len(t), -1),
        ]
        return np.hstack(blocks)

    def truth(self, t: np.ndarray) -> np.ndarray:
        return self.kp.at(t + HORIZON)[:, 0]

    def cell(self, name: str, t: int) -> float:
        """Raw value behind a dataset column ``<quantity>_m<lag>`` at instant ``t``."""
        quantity, _, lag = name.rpartition("_m")
        minute = np.asarray([t - int(lag)])
        if quantity == "dst":
            return float(self.dst.at(minute)[0, 0])
        if quantity == "kp":
            return float(self.kp.at(minute)[0, 0])
        return float(self.solar.at(minute)[0, SOLAR_FIELDS.index(quantity)])


def read_config(path: Path) -> dict[str, str]:
    """The flat ``key = value`` manifest, keys normalised to underscores."""
    values = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def manifest_labels(config: dict[str, str]) -> list[str]:
    """Row labels of ``compare`` in the order its manifest implies."""
    ks = [int(k) for k in config.get("ks", "100,50").split(",") if k.strip()]
    downsample = int(config.get("downsample", "2"))
    labels = ["RF"] + [f"RF top-{k}" for k in ks]
    if downsample > 1 and ks:
        labels.append(f"RF top-{ks[-1]} L={downsample}")
    return labels + ["Linear"]


def within_one(predicted: np.ndarray, truth: np.ndarray) -> int:
    return int(np.count_nonzero(np.abs(predicted - truth) <= 1.0))


@dataclass(frozen=True)
class CompareReference:
    labels: list[str]
    n_test: int
    linear_hits: int  # test rows the benchmark's own least-squares fit gets within 1


def compare_reference(archive: Archive, config: dict[str, str]) -> CompareReference:
    t = archive.instants()
    cutoff = minute_of(config["cutoff"])
    train, test = t < cutoff, t >= cutoff
    X = np.hstack([np.ones((len(t), 1)), archive.design(t)])
    y = archive.truth(t)
    coef, *_ = np.linalg.lstsq(X[train], y[train], rcond=None)
    hits = within_one(X[test] @ coef, y[test])
    return CompareReference(manifest_labels(config), int(test.sum()), hits)


def check_compare(table: str, ref: CompareReference) -> list[str]:
    lines = table.splitlines()
    if not lines or lines[0] != "label,accuracy":
        return ["table header is not 'label,accuracy'"]
    rows = [line.rsplit(",", 1) for line in lines[1:]]
    labels = [r[0] for r in rows]
    if labels != ref.labels:
        return [f"labels {labels} differ from the manifest's {ref.labels}"]
    errors = []
    acc = {label: float(value) for label, value in rows}
    for label, value in acc.items():
        hits = value * ref.n_test
        if abs(hits - round(hits)) > 1e-6 or not 0 <= hits <= ref.n_test:
            errors.append(f"{label}: accuracy {value!r} is not a multiple of 1/{ref.n_test}")
    for label in ref.labels[:-1]:
        if not acc[label] > acc["Linear"]:
            errors.append(f"{label}: {acc[label]!r} does not beat Linear {acc['Linear']!r}")
    if abs(acc["Linear"] * ref.n_test - ref.linear_hits) > 1 + 1e-6:
        errors.append(
            f"Linear: {acc['Linear']!r} vs {ref.linear_hits}/{ref.n_test} "
            "from the benchmark's own least-squares fit"
        )
    return errors


def target_range(archive: Archive) -> tuple[float, float]:
    """Range of the training targets a model fitted on this archive saw."""
    truth = archive.truth(archive.instants())
    return float(truth.min()), float(truth.max())


def check_hindcast(
    archive: Archive,
    dataset_path: Path,
    predictions: str,
    train_range: tuple[float, float],
    floor: float,
    sample_rows: list[int],
) -> list[str]:
    t = archive.instants()
    expected = len(archive.kp.values) - 8
    if len(t) != expected:
        return [f"{len(t)} gap-free instants, expected n_kp - 8 = {expected}"]
    errors = []

    lines = predictions.splitlines()
    if not lines or lines[0] != "row_time,predicted":
        return ["predictions header is not 'row_time,predicted'"]
    stamps = [line.split(",")[0] for line in lines[1:]]
    if len(stamps) != len(t):
        return [f"{len(stamps)} predictions, expected {len(t)} rows"]
    if [minute_of(s) for s in stamps] != t.tolist():
        errors.append("prediction row times are not the archive's gap-free instants")
    predicted = np.asarray([float(line.split(",")[1]) for line in lines[1:]])
    lo, hi = train_range
    outside = np.flatnonzero(~((predicted >= lo) & (predicted <= hi)))
    if outside.size:
        errors.append(f"{outside.size} predictions outside the training range [{lo}, {hi}]")
    accuracy = within_one(predicted, archive.truth(t)) / len(t)
    if not accuracy >= floor:
        errors.append(f"accuracy within 1 Kp {accuracy:.4f} is below the floor {floor}")

    wanted = set(sample_rows)
    with open(dataset_path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")
        n_rows = 0
        for i, line in enumerate(handle):
            n_rows += 1
            if i not in wanted:
                continue
            cells = line.rstrip("\n").split(",")
            row_t = minute_of(cells[-1])
            if row_t != t[i]:
                errors.append(f"dataset row {i}: row_time {cells[-1]} is not instant {i}")
                continue
            for j in range(i % 7, len(header) - 2, 37):  # a spread of columns per row
                raw = archive.cell(header[j], row_t)
                if float(cells[j]) != raw:
                    errors.append(f"dataset row {i} {header[j]}: {cells[j]} != raw {raw!r}")
    if n_rows != len(t):
        errors.append(f"dataset has {n_rows} rows, expected {len(t)}")
    return errors


def check_train(model_json: str, ranking: str, dataset_header: str, n_trees: int) -> list[str]:
    try:
        model = json.loads(model_json)
    except json.JSONDecodeError as exc:
        return [f"model does not load: {exc}"]
    if not isinstance(model, dict):
        return ["model is not a JSON object"]
    errors = []
    trees = model.get("trees")
    if not isinstance(trees, list) or len(trees) != n_trees:
        count = len(trees) if isinstance(trees, list) else "no"
        errors.append(f"model has {count} trees, asked for {n_trees}")
    elif not all(isinstance(tree, dict) and ("p" in tree or "f" in tree) for tree in trees):
        errors.append("model has a tree without a root node")
    oob = model.get("oob_mse")
    if not isinstance(oob, (int, float)) or not math.isfinite(oob):
        errors.append(f"OOB error {oob!r} is not finite")

    columns = dataset_header.rstrip("\n").split(",")[:-2]
    lines = ranking.splitlines()
    if not lines or lines[0] != "feature,importance,rank":
        return errors + ["ranking header is not 'feature,importance,rank'"]
    rows = [line.split(",") for line in lines[1:]]
    names = [r[0] for r in rows]
    if len(names) != len(columns) or set(names) != set(columns):
        errors.append(f"{len(names)} ranked features for {len(columns)} dataset columns")
    values = np.asarray([float(r[1]) for r in rows])
    if np.any(values < 0):
        errors.append("negative importance")
    if abs(values.sum() - 1.0) > 1e-9:
        errors.append(f"importances sum to {values.sum()!r}, not 1")
    if np.any(np.diff(values) > 0):
        errors.append("importances are not in non-increasing order")
    if [int(r[2]) for r in rows] != list(range(1, len(rows) + 1)):
        errors.append("ranks are not 1..p in order")
    return errors
