"""numpy's OpenBLAS settings change no output.

Importing the package sets OpenBLAS's idle policy before numpy loads, keeps
a policy the user gave, and writes the same bytes under either.  Forest
outputs do not depend on the BLAS thread count either.  Each command runs
in a child process, since OpenBLAS reads its variables once, when numpy
loads it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

from kpforecast.cli import main

SRC = Path(__file__).resolve().parents[1] / "src"

# Prints the OPENBLAS_THREAD_TIMEOUT in the environment when numpy is first
# imported, as a list of one value.
_PROBE = """
import os
import sys

seen = []


class Probe:
    def find_spec(self, name, path=None, target=None):
        if name == "numpy" and not seen:
            seen.append(os.environ.get("OPENBLAS_THREAD_TIMEOUT"))
        return None


sys.meta_path.insert(0, Probe())
import kpforecast
print(seen)
"""


def _env(**openblas: str) -> dict[str, str]:
    """This process's environment with the package on ``PYTHONPATH`` and no
    ``OPENBLAS_*`` variable but those given (importing the package here
    has set one)."""
    env = {key: value for key, value in os.environ.items() if not key.startswith("OPENBLAS_")}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return env | openblas


@pytest.mark.parametrize("given, seen", [(None, "4"), ("28", "28")], ids=["unset", "given"])
def test_numpy_loads_under_the_idle_policy(given, seen):
    env = _env() if given is None else _env(OPENBLAS_THREAD_TIMEOUT=given)
    done = subprocess.run([sys.executable, "-c", _PROBE], env=env, capture_output=True,
                          text=True, check=True)
    assert done.stdout.strip() == repr([seen])


@pytest.fixture(scope="module")
def archive(tmp_path_factory) -> Path:
    """A 40-day synthetic archive in ``d/`` and its dataset CSV ``data.csv``."""
    root = tmp_path_factory.mktemp("blas")
    assert main(["synth", "--seed", "6121", "--days", "40", "--out", str(root / "d")]) == 0
    assert main(["fuse", *_sources(root), "--out", str(root / "data.csv")]) == 0
    return root


def _sources(root: Path) -> list[str]:
    return ["--solar-wind", str(root / "d" / "solar_wind.csv"), "--dst", str(root / "d" / "dst.csv"),
            "--kp", str(root / "d" / "kp.csv")]


def _outputs(work: Path, commands: list[list[str]], env: dict[str, str]) -> dict[str, bytes]:
    """The files that ``commands``, run in turn in the new directory ``work``, write there."""
    work.mkdir()
    for args in commands:
        subprocess.run([sys.executable, "-m", "kpforecast", *args], cwd=work, env=env,
                       check=True, stdout=subprocess.DEVNULL)
    return {path.name: path.read_bytes() for path in sorted(work.iterdir())}


def test_the_idle_policy_changes_no_output(archive, tmp_path):
    data = str(archive / "data.csv")
    commands = [
        ["train", "--data", data, "--trees", "10", "--out", "forest.json"],
        ["train", "--data", data, "--model-kind", "linear", "--out", "linear.json"],
        ["compare", *_sources(archive), "--trees", "10", "--cutoff", "2021-01-31T00:00Z",
         "--out", "table.csv"],
    ]
    default = _outputs(tmp_path / "default", commands, _env(OPENBLAS_NUM_THREADS="2"))
    assert sorted(default) == ["forest.json", "linear.json", "table.csv"]
    assert _outputs(tmp_path / "given", commands, _env(OPENBLAS_NUM_THREADS="2",
                                                       OPENBLAS_THREAD_TIMEOUT="28")) == default


def test_forest_outputs_do_not_depend_on_the_blas_thread_count(archive, tmp_path):
    """The linear model's coefficients do (see README, "Determinism"), so it is left out."""
    data = str(archive / "data.csv")
    commands = [
        ["train", "--data", data, "--trees", "10", "--out", "forest.json"],
        ["predict", "--model", "forest.json", "--data", data, "--out", "predictions.csv"],
        ["importance", "--model", "forest.json", "--out", "importance.csv"],
    ]
    one = _outputs(tmp_path / "one", commands, _env(OPENBLAS_NUM_THREADS="1"))
    assert sorted(one) == ["forest.json", "importance.csv", "predictions.csv"]
    assert _outputs(tmp_path / "two", commands, _env(OPENBLAS_NUM_THREADS="2")) == one
