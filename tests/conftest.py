"""Shared helpers for building small datasets and series in tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import settings

from kpforecast.fusion import FusedDataset
from kpforecast.ingest import parse_timestamp

# Every run draws the same examples, so a property test cannot pass on one
# run and fail on the next; no deadline, since timings vary between hosts.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

EPOCH = parse_timestamp("2021-01-01T00:00Z")


def make_dataset(rows, targets, names=None) -> FusedDataset:
    """Wrap plain arrays in a FusedDataset with 3-hourly row minutes from EPOCH."""
    rows = np.asarray(rows, dtype=np.float64)
    if rows.ndim == 1:
        rows = rows.reshape(-1, 1)
    targets = np.asarray(targets, dtype=np.float64)
    if names is None:
        names = tuple(f"x{i}" for i in range(rows.shape[1]))
    return FusedDataset(tuple(names), rows, targets, EPOCH + 180 * np.arange(rows.shape[0]))


@pytest.fixture
def tmp_cwd(tmp_path, monkeypatch):
    """Run a test from inside a scratch directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


#: One line per acceptance criterion, echoed after the test summary so the
#: verdicts stay visible under pytest's output capture.
ACCEPTANCE_VERDICTS: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_VERDICTS:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_VERDICTS:
            terminalreporter.line(line)
