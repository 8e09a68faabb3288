"""The benchmark's tracer finds every function it hooks by name and runs
the pipeline under them.

``perfbench/tracer.py`` looks each hooked name up in its owner's
``__dict__``, so a renamed reader or model function would stop a traced
benchmark run; here a tiny pipeline runs under it, the tracer untouched.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _traced(work: Path, *args: str) -> set[str]:
    """The names of the spans of one traced ``kpforecast`` command."""
    spans = work / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(TRACER), str(spans), *args], cwd=work, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    return {span["name"] for span in json.loads(spans.read_text(encoding="utf-8"))}


def test_the_tracer_runs_the_pipeline(tmp_path):
    assert "cli.main" in _traced(tmp_path, "synth", "--seed", "2", "--days", "4", "--out", "d")
    assert "fusion.fuse" in _traced(tmp_path, "fuse", "--solar-wind", "d/solar_wind.csv",
                                    "--dst", "d/dst.csv", "--kp", "d/kp.csv",
                                    "--out", "data.csv")
    assert "forest.fit" in _traced(tmp_path, "train", "--data", "data.csv", "--trees", "2",
                                   "--threads", "1", "--out", "model.json")
    assert "forest.predict_batch" in _traced(tmp_path, "predict", "--model", "model.json",
                                             "--data", "data.csv", "--out", "predictions.csv")
