"""Run the tier-1 tests as a machine without a C compiler runs them.

Usage: ``python tools/tier1_without_cc.py [pytest arguments]``

The repository's files (tracked, plus untracked ones that git does not
ignore) are copied to a temporary directory, so no kernel library that an
earlier run built into ``src/kpforecast/__pycache__`` comes along, and the
checkout itself is never written to.  A ``bin/`` directory there links only
the real interpreter binary (as ``python`` and ``python3``), ``sh`` and
``env``, and the tier-1 command

    PYTHONPATH=src python -m pytest -q --continue-on-collection-errors

runs in the copy with ``PATH`` set to that directory alone, so no ``cc`` is
found and every compiled path takes its Python fallback.  Extra arguments
are passed on to pytest.  pytest's output, summary included, is printed as
it runs, and the script exits with pytest's exit code.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _files() -> list[str]:
    listed = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True).stdout
    return [name for name in listed.decode().split("\0") if name and (ROOT / name).is_file()]


def main(args: list[str]) -> int:
    # The real binary, not a launcher script such as pyenv's shim, which needs bash.
    interpreter = os.path.realpath(sys.executable)
    tools = {name: shutil.which(name) for name in ("sh", "env")}
    missing = [name for name, path in tools.items() if path is None]
    if missing:
        sys.exit(f"not found on PATH: {', '.join(missing)}")
    with tempfile.TemporaryDirectory(prefix="tier1-without-cc-") as tmp:
        copy, bin_dir = Path(tmp) / "repo", Path(tmp) / "bin"
        for name in _files():
            (copy / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, copy / name)
        bin_dir.mkdir()
        for name, target in {"python": interpreter, "python3": interpreter, **tools}.items():
            (bin_dir / name).symlink_to(os.path.realpath(target))
        env = dict(os.environ, PATH=str(bin_dir), PYTHONPATH="src")
        command = ["python", "-m", "pytest", "-q", "--continue-on-collection-errors", *args]
        print(f"{copy}$ PATH={bin_dir} PYTHONPATH=src {' '.join(command)}", flush=True)
        return subprocess.run(command, cwd=copy, env=env).returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
