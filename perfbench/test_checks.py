"""The benchmark's checks pass real program output and fail corrupted copies of it.

Run from the root of a checkout: ``python3 -m pytest -q perfbench/test_checks.py``.
The fixtures run the ``kpforecast`` CLI on a few days of synthetic data.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import checks

ROOT = Path(__file__).resolve().parents[1]
MANIFEST = """\
solar-wind = d/solar_wind.csv
dst = d/dst.csv
kp = d/kp.csv
cutoff = 2021-01-15T00:00Z
seed = 7
trees = 4
ks = 40,20
downsample = 2
"""


def kp(work: Path, *args: str) -> None:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    subprocess.run([sys.executable, "-m", "kpforecast", *args], cwd=work, env=env,
                   check=True, stdout=subprocess.DEVNULL)


def fuse(work: Path, source: str, out: str) -> None:
    kp(work, "fuse", "--solar-wind", f"{source}/solar_wind.csv", "--dst", f"{source}/dst.csv",
       "--kp", f"{source}/kp.csv", "--out", out)


@pytest.fixture(scope="module")
def work(tmp_path_factory) -> Path:
    work = tmp_path_factory.mktemp("bench")
    kp(work, "synth", "--seed", "3", "--days", "20", "--out", "d")
    (work / "fig6.toml").write_text(MANIFEST, encoding="utf-8")
    kp(work, "compare", "--config", "fig6.toml", "--threads", "1", "--out", "table.csv")

    kp(work, "synth", "--seed", "4", "--days", "8", "--out", "history")
    fuse(work, "history", "history.csv")
    kp(work, "train", "--data", "history.csv", "--trees", "4", "--threads", "1",
       "--out", "model.json")
    fuse(work, "d", "archive.csv")
    kp(work, "predict", "--model", "model.json", "--data", "archive.csv",
       "--out", "predictions.csv")
    kp(work, "importance", "--model", "model.json", "--out", "ranking.csv")
    return work


def read(path: Path) -> str:
    return path.read_text(encoding="utf-8")


# ---------------------------------------------------------------------------
# fig6_compare


def compare_errors(work: Path, table: str) -> list[str]:
    config = checks.read_config(work / "fig6.toml")
    ref = checks.compare_reference(checks.Archive.read(work / "d"), config)
    return checks.check_compare(table, ref)


def test_compare_passes_program_output(work):
    assert compare_errors(work, read(work / "table.csv")) == []


def test_compare_fails_shifted_accuracies(work):
    header, *rows = read(work / "table.csv").splitlines()
    labels = [r.rsplit(",", 1)[0] for r in rows]
    values = [r.rsplit(",", 1)[1] for r in rows]
    shifted = [f"{label},{value}" for label, value in zip(labels, values[-1:] + values[:-1])]
    assert compare_errors(work, "\n".join([header, *shifted]) + "\n")


def test_compare_fails_reordered_labels(work):
    header, *rows = read(work / "table.csv").splitlines()
    assert compare_errors(work, "\n".join([header, *rows[1:], rows[0]]) + "\n")


def test_compare_fails_accuracy_off_the_test_grid(work):
    header, *rows = read(work / "table.csv").splitlines()
    label, value = rows[0].rsplit(",", 1)
    bad = f"{label},{float(value) - 1e-3!r}"
    assert compare_errors(work, "\n".join([header, bad, *rows[1:]]) + "\n")


# ---------------------------------------------------------------------------
# archive_hindcast


def hindcast_errors(work: Path, predictions: str, dataset: str = "archive.csv") -> list[str]:
    archive = checks.Archive.read(work / "d")
    history = checks.Archive.read(work / "history")
    rows = range(len(archive.kp.values) - 8)
    return checks.check_hindcast(archive, work / dataset, predictions,
                                 checks.target_range(history), 0.5, list(rows))


def test_hindcast_passes_program_output(work):
    assert hindcast_errors(work, read(work / "predictions.csv")) == []


def test_hindcast_fails_corrupted_prediction(work):
    lines = read(work / "predictions.csv").splitlines()
    stamp, _ = lines[5].split(",")
    lines[5] = f"{stamp},9.0"
    assert hindcast_errors(work, "\n".join(lines) + "\n")


def test_hindcast_fails_missing_prediction(work):
    lines = read(work / "predictions.csv").splitlines()
    assert hindcast_errors(work, "\n".join(lines[:-1]) + "\n")


def test_hindcast_fails_predictions_off_by_two(work):
    lines = read(work / "predictions.csv").splitlines()
    _, high = checks.target_range(checks.Archive.read(work / "history"))
    shifted = [lines[0]] + [
        f"{line.split(',')[0]},{min(high, float(line.split(',')[1]) + 2.0)!r}" for line in lines[1:]
    ]
    assert hindcast_errors(work, "\n".join(shifted) + "\n")


def test_hindcast_fails_dataset_cell_from_the_wrong_lag(work, tmp_path):
    lines = read(work / "archive.csv").splitlines()
    cells = lines[3].split(",")  # dataset row 2, whose sampled columns start at 2 % 7
    cells[2] = cells[3]  # fma at lag 10 min replaced by its lag-15 neighbour
    lines[3] = ",".join(cells)
    (tmp_path / "archive.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert hindcast_errors(work, read(work / "predictions.csv"), str(tmp_path / "archive.csv"))


# ---------------------------------------------------------------------------
# archive_train


def train_errors(work: Path, model: str, ranking: str, n_trees: int = 4) -> list[str]:
    with open(work / "history.csv", encoding="utf-8") as handle:
        header = handle.readline()
    return checks.check_train(model, ranking, header, n_trees)


def test_train_passes_program_output(work):
    assert train_errors(work, read(work / "model.json"), read(work / "ranking.csv")) == []


def test_train_fails_ranking_with_a_missing_row(work):
    lines = read(work / "ranking.csv").splitlines()
    assert train_errors(work, read(work / "model.json"), "\n".join(lines[:-1]) + "\n")


def test_train_fails_ranking_out_of_order(work):
    header, *rows = read(work / "ranking.csv").splitlines()
    assert train_errors(work, read(work / "model.json"), "\n".join([header, *rows[::-1]]) + "\n")


def test_train_fails_wrong_tree_count(work):
    assert train_errors(work, read(work / "model.json"), read(work / "ranking.csv"), n_trees=5)


def test_train_fails_non_finite_oob(work):
    model = json.loads(read(work / "model.json"))
    model["oob_mse"] = float("nan")
    assert train_errors(work, json.dumps(model), read(work / "ranking.csv"))
