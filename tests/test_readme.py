"""README's "Library use" examples run as written."""

from __future__ import annotations

import re
from pathlib import Path

from kpforecast.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_use_blocks() -> list[str]:
    """The ``python`` blocks of README's "Library use" section, in order."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(r"^```python\n(.*?)^```$", section, flags=re.MULTILINE | re.DOTALL)


def test_library_use_blocks_run_as_written(tmp_cwd, capsys):
    # the section's second block reads the files of its Quick start's synth
    assert main(["synth", "--seed", "7", "--days", "120", "--out", "d"]) == 0
    blocks = _library_use_blocks()
    assert len(blocks) == 3
    namespace: dict = {}
    for i, block in enumerate(blocks, 1):  # later blocks use the names of earlier ones
        exec(compile(block, f"README.md Library use block {i}", "exec"), namespace)
    assert capsys.readouterr().out == namespace["report"].to_text() + "\n"  # print adds one
    assert namespace["report"].config_echo["label"] == "RF top-50"
    assert namespace["coords"].shape == (namespace["test"].n_rows, 2)
