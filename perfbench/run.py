"""Benchmark of the ``kpforecast`` command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process drives the CLI from ``src/`` of the checkout, one command at a
time (a closed loop with one client).  A run makes the workload's inputs from
``--seed`` (set-up), then repeats whole rounds of the workload's commands for
at least ``--seconds`` seconds, then checks the outputs against references
computed by ``checks.py``.  The last line of stdout is one JSON object:

* ``--trace 0``: median per round of ``wall_s``, ``cpu_s`` and
  ``peak_rss_mb`` of the commands' process trees, and the median ``setup_s``
  of ``SETUP_REPEATS`` set-ups;
* ``--trace 1``: every command runs under ``tracer.py``; the per-layer self
  times and counts of one set-up plus the median round.

Work files go to ``.perfbench-work/<workload>`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
WORK = ROOT / ".perfbench-work"
FIG6 = ROOT / "configs" / "fig6.toml"
THREADS = len(os.sched_getaffinity(0))
SETUP_REPEATS = 3

# Workload sizes (see README.md for why each was chosen).
FIG6_DAYS, FIG6_TREES = 120, 10
HINDCAST_DAYS, HISTORY_DAYS, HINDCAST_TREES = 240, 30, 40
HISTORY_SEED_OFFSET = 1_000_003  # the hindcast model learns from another seed's data
HINDCAST_FLOOR = 0.80  # accuracy within 1 Kp the hindcast must reach
HINDCAST_SAMPLE_ROWS = 12
TRAIN_DAYS, TRAIN_TREES = 180, 10

PER_LAYER = {
    "forest.fit_s": "s", "forest.fit_calls": "count", "forest.trees": "count",
    "forest.fit_row_trees": "count", "forest.predict_s": "s", "forest.predictions": "count",
    "forest.importance_s": "s", "evaluate.run_plan_self_s": "s", "evaluate.plans": "count",
    "baseline.fit_s": "s", "baseline.predict_s": "s",
    "ingest.parse_s": "s", "ingest.series_s": "s", "ingest.records": "count",
    "fusion.fuse_s": "s", "fusion.rows": "count", "fusion.features": "count",
    "fusion.split_s": "s", "fusion.select_s": "s", "fusion.downsample_s": "s",
    "fusion.to_csv_s": "s", "fusion.from_csv_s": "s", "fusion.csv_mb": "MB",
    "modelio.dump_s": "s", "modelio.load_s": "s", "modelio.model_mb": "MB",
    "cli.self_s": "s", "datagen.write_csv_s": "s",
}


class Runner:
    """Runs CLI commands in the work directory and keeps what they cost."""

    def __init__(self, work: Path, trace: bool) -> None:
        self.work = work
        self.trace = trace
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            OPENBLAS_NUM_THREADS=str(THREADS),
            OMP_NUM_THREADS=str(THREADS),
            MKL_NUM_THREADS=str(THREADS),
        )
        self.n_spans = 0

    def run(self, *args: str) -> dict:
        """One command: wall, CPU and peak RSS of its process tree, and its spans."""
        spans = self.work / f"spans-{self.n_spans}.json"
        self.n_spans += 1
        if self.trace:
            cmd = [sys.executable, str(HERE / "tracer.py"), str(spans), *args]
        else:
            cmd = [sys.executable, "-m", "kpforecast", *args]
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=self.work, env=self.env, stdout=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        cost = {
            "ok": proc.returncode == 0,
            "wall_s": wall,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0,
            "spans": [],
        }
        if self.trace and spans.exists():
            cost["spans"] = json.loads(spans.read_text(encoding="utf-8"))
            spans.unlink()
        return cost

    def must(self, *args: str) -> dict:
        cost = self.run(*args)
        if not cost["ok"]:
            raise RuntimeError("set-up command failed: kpforecast " + " ".join(args))
        return cost


def synth(seed: int, days: int, out: str) -> tuple[str, ...]:
    return ("synth", "--seed", str(seed), "--days", str(days), "--out", out)


def fuse(source: str, out: str) -> tuple[str, ...]:
    return ("fuse", "--solar-wind", f"{source}/solar_wind.csv", "--dst", f"{source}/dst.csv",
            "--kp", f"{source}/kp.csv", "--out", out)


class Fig6Compare:
    """``compare`` with configs/fig6.toml: five forest fits and the linear baseline."""

    outputs = ("table.csv",)

    def __init__(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work

    def setup(self, runner: Runner) -> list[dict]:
        return [runner.must(*synth(self.seed, FIG6_DAYS, "d"))]

    def round(self, runner: Runner) -> list[dict]:
        return [runner.run("compare", "--config", str(FIG6), "--threads", "1",
                           "--trees", str(FIG6_TREES), "--out", "table.csv")]

    def check(self) -> list[str]:
        archive = checks.Archive.read(self.work / "d")
        ref = checks.compare_reference(archive, checks.read_config(FIG6))
        return checks.check_compare((self.work / "table.csv").read_text(encoding="utf-8"), ref)


class ArchiveHindcast:
    """``fuse`` a one-year archive, then ``predict`` it with a model trained in set-up."""

    outputs = ("archive.csv", "predictions.csv")

    def __init__(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work

    def setup(self, runner: Runner) -> list[dict]:
        return [
            runner.must(*synth(self.seed, HINDCAST_DAYS, "archive")),
            runner.must(*synth(self.seed + HISTORY_SEED_OFFSET, HISTORY_DAYS, "history")),
            runner.must(*fuse("history", "history.csv")),
            runner.must("train", "--data", "history.csv", "--trees", str(HINDCAST_TREES),
                        "--seed", str(self.seed), "--threads", str(THREADS), "--out", "model.json"),
        ]

    def round(self, runner: Runner) -> list[dict]:
        return [
            runner.run(*fuse("archive", "archive.csv")),
            runner.run("predict", "--model", "model.json", "--data", "archive.csv",
                       "--out", "predictions.csv"),
        ]

    def check(self) -> list[str]:
        archive = checks.Archive.read(self.work / "archive")
        history = checks.Archive.read(self.work / "history")
        n_rows = len(archive.kp.values) - 8
        sample = random.Random(self.seed).sample(range(n_rows), HINDCAST_SAMPLE_ROWS)
        return checks.check_hindcast(
            archive,
            self.work / "archive.csv",
            (self.work / "predictions.csv").read_text(encoding="utf-8"),
            checks.target_range(history),
            HINDCAST_FLOOR,
            sample,
        )


class ArchiveTrain:
    """``train`` a forest on a fused archive at ``nproc`` threads, then ``importance``."""

    outputs = ("model.json", "ranking.csv")

    def __init__(self, seed: int, work: Path) -> None:
        self.seed, self.work = seed, work

    def setup(self, runner: Runner) -> list[dict]:
        return [
            runner.must(*synth(self.seed, TRAIN_DAYS, "archive")),
            runner.must(*fuse("archive", "archive.csv")),
        ]

    def round(self, runner: Runner) -> list[dict]:
        return [
            runner.run("train", "--data", "archive.csv", "--trees", str(TRAIN_TREES),
                       "--seed", str(self.seed), "--threads", str(THREADS), "--out", "model.json"),
            runner.run("importance", "--model", "model.json", "--out", "ranking.csv"),
        ]

    def check(self) -> list[str]:
        with open(self.work / "archive.csv", encoding="utf-8") as handle:
            header = handle.readline()
        return checks.check_train(
            (self.work / "model.json").read_text(encoding="utf-8"),
            (self.work / "ranking.csv").read_text(encoding="utf-8"),
            header,
            TRAIN_TREES,
        )


WORKLOADS = {
    "fig6_compare": Fig6Compare,
    "archive_hindcast": ArchiveHindcast,
    "archive_train": ArchiveTrain,
}


def digest(work: Path, names) -> str:
    h = hashlib.sha256()
    for name in names:
        h.update((work / name).read_bytes())
    return h.hexdigest()


def layer_metrics(costs: list[dict]) -> dict[str, float]:
    """Self time per layer and counts, summed over the spans of some commands."""
    totals = dict.fromkeys(PER_LAYER, 0.0)
    for cost in costs:
        spans = cost["spans"]
        covered = [0.0] * len(spans)
        for span in spans:
            if span["parent"] is not None:
                covered[span["parent"]] += span["end"] - span["start"]
        for span in spans:
            totals[span["metric"]] += span["end"] - span["start"] - covered[span["id"]]
            for key, value in span["counts"].items():
                totals[key] += value
    return totals


def measure(workload, runner: Runner, seconds: float) -> tuple[list[list[dict]], list[str]]:
    """Whole rounds until ``seconds`` have passed; every round must give the same outputs."""
    rounds, digests = [], set()
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(workload.round(runner))
        if all(cost["ok"] for cost in rounds[-1]):
            digests.add(digest(workload.work, workload.outputs))
    errors = [] if len(digests) <= 1 else ["outputs differ between rounds"]
    return rounds, errors


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in (ROOT / "src" / "kpforecast" / "cli.py", FIG6) if not p.is_file()]
    if missing:
        sys.stderr.write(f"error: run from the root of a kpforecast checkout; "
                         f"missing {missing[0]}\n")
        return 2

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(work, bool(args.trace))
    workload = WORKLOADS[args.workload](args.seed, work)

    setup_costs, setup_walls = [], []
    for _ in range(1 if args.trace else SETUP_REPEATS):
        start = time.perf_counter()
        setup_costs = workload.setup(runner)
        setup_walls.append(time.perf_counter() - start)

    rounds, errors = measure(workload, runner, args.seconds)
    failed = sum(not cost["ok"] for costs in rounds for cost in costs)
    if not failed:
        try:
            errors += workload.check()
        except (checks.CheckError, ValueError, KeyError, IndexError, OSError) as exc:
            errors.append(f"outputs unreadable: {exc!r}")

    round_wall = [sum(c["wall_s"] for c in costs) for costs in rounds]
    sys.stderr.write(f"{args.workload}: {len(rounds)} rounds, "
                     f"wall {[round(w, 3) for w in round_wall]}\n")
    if args.trace:
        setup = layer_metrics(setup_costs)
        per_round = [layer_metrics(costs) for costs in rounds]
        metrics = {}
        for name, unit in PER_LAYER.items():
            values = [r[name] for r in per_round]
            if unit == "count" and len(set(values)) > 1:
                errors.append(f"{name} differs between rounds: {values}")
            metrics[name] = {"value": setup[name] + statistics.median(values), "unit": unit}
    else:
        cpu = [sum(c["cpu_s"] for c in costs) for costs in rounds]
        rss = [max(c["peak_rss_mb"] for c in costs) for costs in rounds]
        metrics = {
            "wall_s": {"value": statistics.median(round_wall), "unit": "s"},
            "cpu_s": {"value": statistics.median(cpu), "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(rss), "unit": "MB"},
            "setup_s": {"value": statistics.median(setup_walls), "unit": "s"},
        }
    for error in errors:
        sys.stderr.write(f"check failed: {error}\n")
    result = {
        "correct": not errors and not failed,
        "attempted": sum(len(costs) for costs in rounds),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
