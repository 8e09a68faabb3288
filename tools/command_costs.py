"""Compare the cost of one ``kpforecast`` command under two source trees.

Usage::

    python tools/command_costs.py BASE_SRC HEAD_SRC [--pairs 10] [--repeat 3]
        [--cwd DIR] [--output FILE] -- <kpforecast arguments>

``BASE_SRC`` and ``HEAD_SRC`` are ``src/`` directories of two checkouts
(say, the parent commit's and a change's).  The command runs as
``python -m kpforecast <arguments>`` in ``--cwd`` with each directory in
turn on ``PYTHONPATH``, in alternating pairs: the side that runs first
switches from pair to pair, so a drift of the host's speed falls on both
sides alike.  In each pair a side runs ``--repeat`` times in a row and its
median stands for the pair.  The rest of the environment is passed on as
it is, so set ``OPENBLAS_NUM_THREADS`` and the like before running this.

Each child's wall time comes from the clock around its start and its
``os.wait4``, and its CPU time (user + system) and peak resident set
(``ru_maxrss``) from the ``wait4`` usage.  This script imports only the
standard library, so the children it starts inherit no large high-water
mark.  With ``--output FILE`` (relative to ``--cwd``) the SHA-256 of that
file after each run is kept, and the report says whether both sides wrote
the same bytes.

For each side the report gives the median and the quartiles of each
metric over the pairs, and for each metric the pairs in which ``HEAD``
was lower.  A command that exits non-zero stops the script with its exit
code.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

METRICS = ("wall_s", "cpu_s", "peak_rss_mb")


def run_once(src: Path, cwd: Path, args: list[str], output: Path | None) -> dict:
    """One run of ``python -m kpforecast args`` with ``src`` on ``PYTHONPATH``."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, "-m", "kpforecast", *args], cwd=cwd, env=env,
                            stdout=subprocess.DEVNULL)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    code = os.waitstatus_to_exitcode(status)
    if code != 0:
        sys.exit(f"kpforecast {' '.join(args)} exited {code} with PYTHONPATH={src}")
    digest = None if output is None else hashlib.sha256(output.read_bytes()).hexdigest()
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss / 1024.0, "sha256": digest}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile of ``values``."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    lower, median, upper = statistics.quantiles(values, n=4, method="inclusive")
    return lower, median, upper


def measure(sides: dict[str, Path], cwd: Path, args: list[str], pairs: int, repeat: int,
            output: Path | None) -> tuple[dict[str, dict[str, list[float]]], dict[str, set]]:
    """Each side's per-pair medians of every metric, and the output digests it wrote."""
    medians = {side: {metric: [] for metric in METRICS} for side in sides}
    digests: dict[str, set] = {side: set() for side in sides}
    names = list(sides)
    for pair in range(pairs):
        for side in names if pair % 2 == 0 else names[::-1]:
            runs = [run_once(sides[side], cwd, args, output) for _ in range(repeat)]
            for metric in METRICS:
                medians[side][metric].append(statistics.median(run[metric] for run in runs))
            digests[side].update(run["sha256"] for run in runs)
    return medians, digests


def report(medians: dict[str, dict[str, list[float]]], digests: dict[str, set],
           output: Path | None) -> str:
    base, head = medians["base"], medians["head"]
    lines = [f"{'metric':<12} {'side':<5} {'q1':>9} {'median':>9} {'q3':>9}  head lower"]
    for metric in METRICS:
        won = sum(h < b for b, h in zip(base[metric], head[metric]))
        for side in ("base", "head"):
            q1, median, q3 = quartiles(medians[side][metric])
            tail = f"  {won} of {len(base[metric])}" if side == "head" else ""
            lines.append(f"{metric:<12} {side:<5} {q1:9.3f} {median:9.3f} {q3:9.3f}{tail}")
    if output is not None:
        same = len(digests["base"] | digests["head"]) == 1
        lines.append(f"{output.name}: {'identical bytes' if same else 'BYTES DIFFER'} "
                     f"on every run of both sides")
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0],
                                     epilog="-- <kpforecast arguments> ends the options")
    parser.add_argument("base", type=Path, help="src/ directory of the base checkout")
    parser.add_argument("head", type=Path, help="src/ directory of the changed checkout")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--repeat", type=int, default=3, help="runs per side in each pair")
    parser.add_argument("--cwd", type=Path, default=Path.cwd())
    parser.add_argument("--output", type=Path, help="a file the command writes, to compare")
    argv = sys.argv[1:] if argv is None else argv
    split = argv.index("--") if "--" in argv else len(argv)
    opts, command = parser.parse_args(argv[:split]), argv[split + 1:]
    if not command or opts.pairs < 1 or opts.repeat < 1:
        parser.error("need a kpforecast command after --, and --pairs and --repeat >= 1")
    sides = {"base": opts.base.resolve(), "head": opts.head.resolve()}
    output = None if opts.output is None else opts.cwd / opts.output
    medians, digests = measure(sides, opts.cwd, command, opts.pairs, opts.repeat, output)
    print(f"kpforecast {' '.join(command)}  ({opts.pairs} pairs x {opts.repeat} runs)")
    print(report(medians, digests, output))
    return 0


if __name__ == "__main__":
    sys.exit(main())
