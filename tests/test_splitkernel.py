"""The compiled split kernel: bit-for-bit equal to the numpy search, and built safely."""

from __future__ import annotations

import math
import shutil
import threading

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpforecast import datagen, forest, modelio, splitkernel
from kpforecast.forest import ForestConfig, fit
from kpforecast.fusion import fuse

from conftest import make_dataset

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture(scope="module")
def kernel():
    found = splitkernel.load()
    if found is None:
        pytest.skip("the split kernel cannot be built here")
    return found


def _bits(found):
    """A split as comparable bits: -0.0 and 0.0 differ, NaN equals itself."""
    if found is None:
        return None
    feature, threshold, left, right, gain = found
    return feature, np.float64(threshold).tobytes(), left.tolist(), right.tolist(), np.float64(gain).tobytes()


_CONSTANTS = st.sampled_from([-0.0, 0.0, 1.0, 5e-324, 1e300])


@st.composite
def nodes(draw):
    """(X, y, rows, cand) of one node; rows may repeat, as a bootstrap's do.

    Columns hold few values (so ties, equal neighbours and signed zeros are
    common), distinct values or one constant.  Targets are Kp-like thirds
    with signed zeros, generic reals whose sums round differently in another
    order, or include values whose squares overflow (inf and NaN scores).
    """
    n = draw(st.integers(2, 80))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["ties", "distinct", "constant"]), min_size=1, max_size=5)):
        if kind == "ties":
            columns.append(rng.choice([-0.0, 0.0, 1.0, 2.5], n))
        elif kind == "distinct":
            columns.append(rng.normal(size=n))
        else:
            columns.append(np.full(n, draw(_CONSTANTS)))
    X = np.column_stack(columns)
    kind = draw(st.sampled_from(["thirds", "reals", "overflow"]))
    if kind == "thirds":
        y = rng.integers(0, 28, n) / 3.0
        y[(y == 0.0) & (rng.random(n) < 0.5)] = -0.0
    else:
        y = rng.uniform(0.0, 9.0, n)
        if kind == "overflow":
            y[rng.random(n) < 0.2] = rng.choice([1e154, 1e155, -1e200])
    m = draw(st.one_of(st.just(2), st.integers(2, n)))
    rows = rng.integers(0, n, m) if draw(st.booleans()) else np.sort(rng.choice(n, m, replace=False))
    cand = np.array(sorted(draw(st.sets(st.integers(0, X.shape[1] - 1), min_size=1))), dtype=np.int64)
    return X, y, rows, cand


def _overflow_in_one_order():
    """A node whose sum of squared targets overflows in one column's order only.

    Each square of ``a`` is 2**1023 - 2 ulp and each square of ``z`` 0.4 ulp.
    Summed with the two ``a`` last, the eight ``z`` add 3 ulp first and the
    total rounds to inf, so column 0 scores NaN; with an ``a`` first, each
    ``z`` rounds away and column 1 keeps finite scores.  numpy's minimum is
    then NaN, and the node has no split.
    """
    a, z = 9.480751908109176e153, math.sqrt(0.4 * 2.0**970)
    y = np.array([a, a] + [z] * 8)
    X = np.column_stack([[8.0, 9.0, *range(8)], [0.0, 9.0, *range(1, 9)]])
    return X, y, np.arange(10), np.arange(2)


@settings(max_examples=400)
@given(nodes())
@example(node=_overflow_in_one_order())
def test_kernel_split_equals_numpy_split_bit_for_bit(kernel, node):
    X, y, rows, cand = node
    with np.errstate(all="ignore"):
        expected = forest._best_split(X, y, rows, cand)
        got = forest._kernel_search(kernel, np.asfortranarray(X), y)(rows, cand)
    assert _bits(got) == _bits(expected)


def _synthetic(days=30):
    return fuse(*datagen.generate(datagen.SynthConfig(seed=5, n_days=days)))


_CONFIGS = {
    "default": ForestConfig(n_trees=3, seed=11),
    "mtry=p": ForestConfig(n_trees=3, seed=11, mtry=767),
    "min_leaf=1": ForestConfig(n_trees=3, seed=11, min_leaf=1),
    "bootstrap=false": ForestConfig(n_trees=3, seed=11, bootstrap=False),
}


@pytest.mark.parametrize("name", _CONFIGS)
def test_model_json_is_byte_identical_on_both_paths(kernel, name, monkeypatch):
    data = _synthetic()
    compiled = modelio.model_to_json(fit(data, _CONFIGS[name]))
    monkeypatch.setattr(splitkernel, "load", lambda: None)
    assert modelio.model_to_json(fit(data, _CONFIGS[name])) == compiled


@needs_cc
def test_split_kernel_is_built_where_a_compiler_exists(monkeypatch):
    def numpy_search(*args):
        raise AssertionError("fit fell back to the numpy split search")

    monkeypatch.setattr(forest, "_best_split", numpy_search)
    model = fit(make_dataset([[0.0], [1.0], [10.0], [11.0]], [0.0, 0.0, 5.0, 5.0]),
                ForestConfig(n_trees=2, min_leaf=1, seed=1))
    assert all(tree.left[0] != -1 for tree in model.trees)  # every root splits


@pytest.mark.parametrize("missing", ["compiler", "working compiler", "writable cache"])
def test_fit_without_the_kernel_fits_the_same_model(missing, monkeypatch, tmp_path):
    data = _synthetic(days=8)
    config = ForestConfig(n_trees=3, seed=2)
    expected = modelio.model_to_json(fit(data, config))
    if missing == "compiler":
        monkeypatch.setattr(splitkernel, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(shutil, "which", lambda name: None)
    elif missing == "working compiler":
        failing = tmp_path / "cc"
        failing.write_text("#!/bin/sh\nexit 1\n")
        failing.chmod(0o755)
        monkeypatch.setattr(splitkernel, "CACHE_DIR", tmp_path / "cache")
        monkeypatch.setattr(shutil, "which", lambda name: str(failing))
    else:
        (tmp_path / "file").write_text("")
        monkeypatch.setattr(splitkernel, "CACHE_DIR", tmp_path / "file" / "cache")
    assert splitkernel.load() is None
    assert not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())
    assert modelio.model_to_json(fit(data, config)) == expected


@needs_cc
def test_concurrent_first_builds_leave_one_library_that_loads(monkeypatch, tmp_path):
    monkeypatch.setattr(splitkernel, "CACHE_DIR", tmp_path)
    together = threading.Barrier(2, timeout=60)
    build = splitkernel._build

    def build_together(*args):
        together.wait()  # both found no library, so both compile
        build(*args)

    monkeypatch.setattr(splitkernel, "_build", build_together)
    loaded = [None, None]

    def load(i):
        loaded[i] = splitkernel.load()

    threads = [threading.Thread(target=load, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    library = splitkernel.library_path(splitkernel.SOURCE.read_bytes())
    assert [path.name for path in tmp_path.iterdir()] == [library.name]

    X = np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
    y = np.array([4.0, 1.0, 2.0, 0.0])
    rows, cand = np.arange(4), np.arange(2)
    for kernel in loaded:
        assert kernel is not None
        got = forest._kernel_search(kernel, np.asfortranarray(X), y)(rows, cand)
        assert _bits(got) == _bits(forest._best_split(X, y, rows, cand))
