"""The compiled grower: bit-for-bit equal to the numpy grower, and built safely."""

from __future__ import annotations

import contextlib
import io
import math
import re
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpforecast import datagen, forest, ingest, modelio, splitkernel
from kpforecast.cli import main
from kpforecast.forest import ForestConfig, fit
from kpforecast.fusion import fuse
from kpforecast.rng import PortableRng

from conftest import make_dataset

needs_cc = pytest.mark.skipif(shutil.which("cc") is None, reason="no C compiler")


@pytest.fixture(scope="module")
def kernel():
    found = splitkernel.load()
    if found is None:
        pytest.skip("the split kernel cannot be built here")
    return found


@pytest.fixture(scope="module")
def builds(kernel):
    """Both builds of the split kernel: 16-bit ranks and positions, then 32-bit ones."""
    wide = splitkernel.load("splitkernel32")
    if wide is None:
        pytest.skip("the 32-bit split kernel cannot be built here")
    return kernel, wide


def _fit_in(library, data, config):
    """:func:`fit` with its trees grown by ``library``, whatever the rows' count."""
    with mock.patch.object(splitkernel, "kernel_for", lambda rows: library):
        return fit(data, config)


_CONSTANTS = st.sampled_from([-0.0, 0.0, 1.0, 5e-324, 1e300])
_HUGE_PAIRS = ((1e308, 1.7e308), (-1.7e308, -1e308))  # lo + hi is +inf or -inf


@st.composite
def _matrices(draw, n):
    """(X, y, a generator for more draws) with n rows.

    Columns hold few values (so ties, equal neighbours and signed zeros are
    common), distinct values, one constant, or two values of one sign whose
    sum overflows (so the midpoint is infinite).  Targets are Kp-like thirds
    with signed zeros, generic reals whose sums round differently in another
    order, or include values whose squares overflow (inf and NaN scores).
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    kinds = st.sampled_from(["ties", "distinct", "constant", "huge"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=5)):
        if kind == "huge":
            columns.append(rng.choice(draw(st.sampled_from(_HUGE_PAIRS)), n))
        elif kind == "ties":
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
    return X, y, rng


def _fit_case(X, y, config):
    """(data, config) for :func:`fit`.  The data is duck-typed, not a
    ``FusedDataset``, so that targets may leave [0, 9] and overflow when summed."""
    n, p = X.shape
    data = SimpleNamespace(rows=X, targets=y, n_rows=n, n_features=p,
                           feature_names=tuple(f"x{i}" for i in range(p)))
    return data, config


def _overflow_in_one_order():
    """A fit whose root's sum of squared targets overflows in one column's order only.

    Each square of ``a`` is 2**1023 - 2 ulp and each square of ``z`` 0.4 ulp.
    Summed with the two ``a`` last, the eight ``z`` add 3 ulp first and the
    total rounds to inf, so column 0 scores NaN; with an ``a`` first, each
    ``z`` rounds away and column 1 keeps finite scores.  numpy's minimum is
    then NaN, and the root has no split: the tree is one leaf.
    """
    a, z = 9.480751908109176e153, math.sqrt(0.4 * 2.0**970)
    y = np.array([a, a] + [z] * 8)
    X = np.column_stack([[8.0, 9.0, *range(8)], [0.0, 9.0, *range(1, 9)]])
    return _fit_case(X, y, ForestConfig(n_trees=1, mtry=2, min_leaf=1, bootstrap=False))


def _tree_bits(tree):
    return [getattr(tree, name).tobytes() for name, _ in forest._TREE_ARRAYS]


def _forest_bits(model):
    """Every tree array, the importances and the OOB error, as bytes."""
    arrays = [_tree_bits(tree) for tree in model.trees]
    oob = None if model.oob_mse is None else np.float64(model.oob_mse).tobytes()
    return arrays, model.importances.tobytes(), oob


@st.composite
def fits(draw):
    """(data, config): a node of 64 rows or more reads each column off the
    column's presorted window, and a smaller one sorts its rows unless that
    window holds at most 8 times its rows, so both sizes of root are drawn.
    Bags repeat rows, and an mtry below the width draws candidate subsets."""
    n = draw(st.one_of(st.integers(2, 63), st.integers(64, 260)))
    X, y, _ = draw(_matrices(n))
    p = X.shape[1]
    config = ForestConfig(n_trees=2, mtry=draw(st.integers(1, p)), min_leaf=draw(st.integers(1, 6)),
                          seed=draw(st.integers(0, 2**64 - 1)), bootstrap=draw(st.booleans()))
    return _fit_case(X, y, config)


@settings(max_examples=300)
@given(fits())
@example(fit_case=_overflow_in_one_order())
def test_compiled_fit_equals_numpy_fit_bit_for_bit(builds, fit_case):
    data, config = fit_case
    with np.errstate(all="ignore"):
        with mock.patch.object(splitkernel, "load", lambda: None):
            reference = _forest_bits(fit(data, config))
        for library in builds:  # the 32-bit build too, on bags the 16-bit one holds
            assert _forest_bits(_fit_in(library, data, config)) == reference


#: The windows a column's presort may hold before the kernel drops it.
_WINDOWS = int(re.search(r"^#define WINDOWS (\d+)$",
                         splitkernel.source_path("splitkernel").read_text(), re.M).group(1))


def _depth(tree):
    """The depth of the tree's deepest node, read off its preorder arrays."""
    depth = np.zeros(len(tree.left), dtype=np.int64)
    for node in np.flatnonzero(tree.left >= 0):  # a parent precedes its children
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


def _assert_fits_alike(builds, data, config):
    """Each build's fit and the numpy fit agree bit for bit; returns the first build's model."""
    with mock.patch.object(splitkernel, "load", lambda: None):
        reference = _forest_bits(fit(data, config))
    models = [_fit_in(library, data, config) for library in builds]
    for model in models:
        assert _forest_bits(model) == reference
    return models[0]


def test_a_chain_deeper_than_the_window_stack_fits_as_in_numpy(builds):
    """Each split peels one row off an end of the column order, the right
    end and the left in turn, so every left child leaves a pending row in
    its parent's windows and the stacks overflow over and over.  Each
    peeled target is 3 times the next, more than all the rest together, so
    peeling it scores best.  The second and third columns order the rows as
    the first does and in reverse; an mtry of 2 leaves some nodes without a
    column, so a window is often read by a node below its own."""
    n = 4 * _WINDOWS
    x = np.arange(n, dtype=np.float64)
    peel = np.column_stack([np.arange(n - 1, n // 2 - 1, -1), np.arange(n // 2)]).ravel()
    y = np.empty(n)
    y[peel] = 3.0 ** np.arange(n, 0, -1)
    data, _ = _fit_case(np.column_stack([x, 2.0 * x + 1.0, -x]), y, None)
    for seed in range(3):
        model = _assert_fits_alike(builds, data, ForestConfig(
            n_trees=2, mtry=2, min_leaf=1, seed=seed, bootstrap=False))
        assert [_depth(tree) for tree in model.trees] == [n - 1, n - 1]


@pytest.mark.parametrize("bootstrap", [True, False])
def test_a_wide_bag_of_deep_trees_fits_as_in_numpy(builds, bootstrap):
    """720 rows over 120 columns at mtry 100: every column orders the rows
    by one latent value, blurred by noise that grows with the column index,
    and the targets grow geometrically away from its middle, so the trees
    peel small groups off both ends, deeper than a column's window stack."""
    rng = np.random.default_rng(15)
    n, p = 720, 120
    t = rng.uniform(-1.0, 1.0, n)
    X = t[:, None] + rng.normal(size=(n, p)) * np.linspace(0.0, 0.2, p)
    data, config = _fit_case(X, 2.0 ** (20.0 * np.abs(t)), ForestConfig(
        n_trees=2, mtry=100, min_leaf=1, seed=15, bootstrap=bootstrap))
    model = _assert_fits_alike(builds, data, config)
    assert min(_depth(tree) for tree in model.trees) > 2 * _WINDOWS


@pytest.mark.parametrize("n", [10, 100])  # sorted and presorted nodes
@pytest.mark.parametrize("lo, hi", _HUGE_PAIRS)
def test_an_overflowing_midpoint_splits_at_lo(builds, n, lo, hi):
    """Columns whose two values sum past the largest float split at the
    lower value, so both children keep rows, on both paths."""
    rng = np.random.default_rng(n)
    X = np.column_stack([rng.choice([lo, hi], n), rng.choice([lo, hi], n)])
    y = np.where(X[:, 0] == lo, 1.0, 7.0) + rng.choice([0.0, 1 / 3], n)
    data = make_dataset(X.tolist(), y.tolist())
    for config in (ForestConfig(n_trees=3, mtry=1, min_leaf=1, seed=3),
                   ForestConfig(n_trees=2, mtry=2, min_leaf=2, seed=4, bootstrap=False)):
        compiled = _assert_fits_alike(builds, data, config)
        for tree in compiled.trees:
            splits = tree.left >= 0
            assert splits.any() and (tree.threshold[splits] == lo).all()
            assert np.isfinite(tree.value).all() and (tree.n_samples[~splits] > 0).all()
        modelio.model_from_json(modelio.model_to_json(compiled))  # a savable model


def test_a_grown_tree_outlives_the_next_grow(kernel):
    X = np.arange(12.0).reshape(4, 3)
    y = np.array([0.0, 1.0, 5.0, 9.0])
    grower = splitkernel.Grower(kernel, X, y)
    first, _ = grower.grow(np.arange(4), 0, 3, 1)
    kept = [array.copy() for array in first]
    grower.grow(np.array([3, 3, 3, 0]), 0, 3, 1)  # a smaller tree over the same buffers
    assert all(np.array_equal(a, b) for a, b in zip(first, kept))


@st.composite
def _keys(draw):
    p = draw(st.integers(1, 60))
    if draw(st.booleans()):  # few distinct keys, so ties are common
        keys = draw(st.lists(st.sampled_from([0, 1, 7, 2**63, 2**64 - 1]), min_size=p, max_size=p))
    else:
        keys = PortableRng(draw(st.integers(0, 2**64 - 1))).block_u64(p).tolist()
    return np.array(keys, dtype=np.uint64), draw(st.integers(0, p))


@settings(max_examples=300)
@given(_keys())
def test_kernel_subset_keeps_the_lowest_index_of_tied_keys(kernel, case):
    keys, k = case
    expected = np.sort(np.argsort(keys, kind="stable")[:k])  # PortableRng.subset after its draw
    work, got = np.empty_like(keys), np.full(k, -1, dtype=np.int64)
    kernel.kp_smallest_keys(keys.ctypes.data, keys.size, k, work.ctypes.data, got.ctypes.data)
    assert got.tolist() == expected.tolist()


def test_each_worker_thread_allocates_one_scratch(kernel, monkeypatch):
    data = _synthetic(days=8)
    config = ForestConfig(n_trees=6, seed=4)
    expected = _forest_bits(fit(data, config))
    made = []
    scratch_bytes = kernel.kp_scratch_bytes

    def counted(*args):
        made.append(threading.get_ident())
        return scratch_bytes(*args)

    monkeypatch.setattr(kernel, "kp_scratch_bytes", counted)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as possible
    try:
        # 4 workers on fewer cores share nothing writable; a pool never
        # holds more workers, nor scratches, than the CPUs it may use.
        for threads, cpus in ((1, 4), (4, 4), (8, 2)):
            monkeypatch.setattr(forest, "usable_cpus", lambda: cpus)
            made.clear()
            assert _forest_bits(fit(data, config, threads=threads)) == expected
            assert 1 <= len(made) <= min(threads, cpus) and len(set(made)) == len(made)
            if threads == 1:  # one worker: every tree grows in the calling thread
                assert made == [threading.get_ident()]
    finally:
        sys.setswitchinterval(interval)


def _grown_bits(grown):
    """Each (six arrays, importances) pair a grower returned, as bytes."""
    return [(_tree_bits(forest.Tree(*arrays)), imp.tobytes()) for arrays, imp in grown]


@pytest.mark.parametrize("n", [65536, 65537])
def test_the_row_count_picks_the_build_at_its_limit(builds, monkeypatch, n):
    """65,536 rows grow in the 16-bit build and 65,537 in the 32-bit one,
    never in numpy, and each grows the tree that ``_grow_tree`` grows.  The
    first column's ranks run up to n - 1; the second holds about 50 rows a value."""
    narrow, library = builds[0], builds[n > 65536]
    assert splitkernel.max_rows(narrow) == 65536
    rng = np.random.default_rng(n)
    X = np.column_stack([rng.permutation(n), rng.integers(0, n // 50, n)]).astype(np.float64)
    y = rng.integers(0, 28, n) / 3.0
    assert splitkernel.kernel_for(n) is library
    ranks = splitkernel.column_ranks(library, X)
    assert ranks.dtype == (np.uint32 if n > 65536 else np.uint16)
    assert ranks[0].max() == n - 1
    if n > 65536:
        with pytest.raises(ValueError):
            splitkernel.Grower(narrow, X, y)
    data, _ = _fit_case(X, y, None)
    config = ForestConfig(n_trees=1, mtry=1, min_leaf=4096, seed=n)
    tree_rng, bag, _ = forest._draw_bag(n, config, forest.derive_seed(
        config.seed, forest._TREE_STREAM, 0))
    arrays, _ = forest._grow_tree(X, y, bag, tree_rng.state, 1, 4096)

    def numpy_grower(*args):
        raise AssertionError("fit fell back to the numpy grower")

    monkeypatch.setattr(forest, "_grow_tree", numpy_grower)
    tree = fit(data, config).trees[0]
    assert _tree_bits(tree) == _tree_bits(forest.Tree(*arrays))
    assert len(tree.feature) > 15  # min_leaf 4096 still leaves a tree of many splits


def test_the_16_bit_build_halves_the_ranks_and_the_presort(builds):
    """Ranks take 2 bytes a row and column, and so does a thread's presort:
    past the per-row buffers, the scratch holds 2 bytes per row and column,
    plus per column a stack of windows and the candidate draw's three keys."""
    narrow, wide = builds
    per_column = 4 + 4 * _WINDOWS + 1 + 3 * 8  # start, ends and count; keys, work, cand
    for n, p in ((1432, 767), (713, 1), (65536, 2)):
        X = np.zeros((n, p))
        assert splitkernel.column_ranks(narrow, X).nbytes == 2 * n * p
        assert splitkernel.column_ranks(wide, X).nbytes == 4 * n * p
        rows_only = narrow.kp_scratch_bytes(n, 0)
        scratch = narrow.kp_scratch_bytes(n, p)
        assert scratch - rows_only <= 2 * n * p + per_column * p + 7 * 15  # 7 buffers aligned to 16
        assert wide.kp_scratch_bytes(n, p) - scratch >= 2 * n * p


def test_one_grower_grows_the_same_trees_in_two_threads_at_once(kernel):
    data = _synthetic(days=8)
    grower = splitkernel.Grower(kernel, np.ascontiguousarray(data.rows), data.targets)
    jobs = []
    for tree_seed in range(8):
        rng, bag, _ = forest._draw_bag(data.n_rows, ForestConfig(), tree_seed)
        jobs.append((bag, rng.state, 50, 2))
    serial = _grown_bits(grower.grow(*job) for job in jobs)
    together = threading.Barrier(2, timeout=60)
    grown = [None, None]

    def grow(i):
        together.wait()  # both threads grow at once, each into its own scratch
        grown[i] = _grown_bits(grower.grow(*job) for job in jobs)

    threads = [threading.Thread(target=grow, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert grown == [serial, serial]


def test_grower_refuses_arrays_it_cannot_pass_to_the_kernel(kernel):
    X = np.arange(12.0).reshape(4, 3)
    y = np.arange(4.0)
    assert splitkernel.column_ranks(kernel, X).tolist() == [[0, 1, 2, 3]] * 3
    with pytest.raises(ValueError):
        splitkernel.column_ranks(kernel, np.asfortranarray(X))  # column-major
    with pytest.raises(ValueError):
        splitkernel.column_ranks(kernel, X.astype(np.float32))
    with pytest.raises(ValueError):
        splitkernel.Grower(kernel, X, y[:3])
    grower = splitkernel.Grower(kernel, X, y)
    for bag in (np.arange(3), np.array([0, 1, 2, 4]), np.array([0, 1, 2, -1])):
        with pytest.raises(ValueError):
            grower.grow(bag, 0, 1, 1)
    for mtry, min_leaf in ((0, 1), (4, 1), (1, 0)):
        with pytest.raises(ValueError):
            grower.grow(np.arange(4), 0, mtry, min_leaf)
    arrays, imp = grower.grow(np.arange(4), 0, 3, 1)
    assert len(arrays[0]) == 7 and imp.shape == (3,)  # a full tree over 4 distinct rows


_SOURCES = sorted(Path(splitkernel.__file__).parent.glob("*.c"))


@needs_cc
def test_kernel_source_compiles_without_warnings(tmp_path):
    assert [source.stem for source in _SOURCES] == ["csvscan", "splitkernel"]
    builds = splitkernel._BUILDS
    assert sorted(builds) == ["csvscan", "splitkernel", "splitkernel32"]
    assert sorted({splitkernel.source_path(name) for name in builds}) == _SOURCES
    for name in builds:  # every build of every kernel of the package
        done = subprocess.run(
            ["cc", *splitkernel.flags(name), "-Wall", "-Wextra", "-Werror",
             "-o", str(tmp_path / f"{name}.so"), str(splitkernel.source_path(name))],
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 0, done.stderr


def test_every_kernel_source_is_package_data():
    # an installed copy without a source would fall back to Python unseen
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).parents[1] / "pyproject.toml"
    listed = tomllib.loads(pyproject.read_text(encoding="utf-8"))["tool"]["setuptools"][
        "package-data"]["kpforecast"]
    assert sorted(source.name for source in _SOURCES) == sorted(listed)


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
    def numpy_grower(*args):
        raise AssertionError("fit fell back to the numpy grower")

    monkeypatch.setattr(forest, "_grow_tree", numpy_grower)
    monkeypatch.setattr(forest, "_best_split", numpy_grower)
    model = fit(make_dataset([[0.0], [1.0], [10.0], [11.0]], [0.0, 0.0, 5.0, 5.0]),
                ForestConfig(n_trees=2, min_leaf=1, seed=1))
    assert all(tree.left[0] != -1 for tree in model.trees)  # every root splits


_MISSING = ["compiler", "working compiler", "writable cache"]


def _break_the_build(missing, monkeypatch, tmp_path):
    """Point the loader at an empty cache it cannot fill for lack of ``missing``."""
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


def _cache_is_empty(tmp_path):
    return not (tmp_path / "cache").exists() or not any((tmp_path / "cache").iterdir())


@needs_cc
def test_load_reads_each_source_once_per_cache_directory(monkeypatch, tmp_path):
    hashed = []
    library_path = splitkernel.library_path

    def counted(name, source):
        hashed.append(name)
        return library_path(name, source)

    monkeypatch.setattr(splitkernel, "library_path", counted)
    monkeypatch.setattr(splitkernel, "CACHE_DIR", tmp_path / "first")
    scanner = splitkernel.load("csvscan")
    assert scanner is not None and splitkernel.load("csvscan") is scanner
    assert splitkernel.load() is splitkernel.load() is not scanner
    assert hashed == ["csvscan", "splitkernel"]
    monkeypatch.setattr(splitkernel, "CACHE_DIR", tmp_path / "second")  # a moved cache builds again
    moved = splitkernel.load("csvscan")
    assert moved is not None and hashed[2:] == ["csvscan"]
    assert [path.name.split(".")[0] for path in (tmp_path / "second").iterdir()] == ["csvscan"]
    # The moved library is another instance, with its own table of powers of five.
    monkeypatch.setattr(splitkernel, "load", lambda name: moved)
    texts = ["0.1", "2.2250738585072014e-308", "1.7976931348623157e308"]
    buf = "".join(f"2021-01-01T00:00Z,{text}\n" for text in texts).encode()
    _, _, values, _, _ = ingest.scan_rows(buf, len(buf), 1, stamp_last=False)
    assert values.ravel().tolist() == [float(text) for text in texts]
    written = ingest.format_rows(values, ["t"] * len(texts), stamp_last=False)
    assert written == "".join(f"t,{float(text)!r}\n" for text in texts).encode()


@needs_cc
def test_the_32_bit_build_is_made_when_a_matrix_first_needs_it(monkeypatch, tmp_path):
    """A fit of a few hundred rows builds the 16-bit kernel alone; the
    32-bit one is built beside it, under its own name, for a larger matrix."""
    monkeypatch.setattr(splitkernel, "CACHE_DIR", tmp_path)
    built = []
    build = splitkernel._build

    def counted(cc, name, target):
        built.append(name)
        build(cc, name, target)

    monkeypatch.setattr(splitkernel, "_build", counted)
    fit(_synthetic(days=8), ForestConfig(n_trees=2, seed=3))
    narrow = splitkernel.load()
    assert splitkernel.kernel_for(splitkernel.max_rows(narrow)) is narrow
    assert built == ["splitkernel"]
    wide = splitkernel.kernel_for(splitkernel.max_rows(narrow) + 1)
    assert wide is not None and wide is not narrow and splitkernel.kernel_for(2**31 - 1) is wide
    assert built == ["splitkernel", "splitkernel32"]
    source = splitkernel.source_path("splitkernel").read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(
        splitkernel.library_path(name, source).name for name in built)


@pytest.mark.parametrize("missing", _MISSING)
def test_fit_without_the_kernel_fits_the_same_model(missing, monkeypatch, tmp_path):
    data = _synthetic(days=8)
    config = ForestConfig(n_trees=3, seed=2)
    expected = modelio.model_to_json(fit(data, config))
    _break_the_build(missing, monkeypatch, tmp_path)
    assert splitkernel.load() is None
    assert _cache_is_empty(tmp_path)
    assert modelio.model_to_json(fit(data, config)) == expected


def _fuse_and_predict(tmp_path, out):
    """The bytes that ``fuse`` and ``predict`` write for a 3-day archive."""
    src = tmp_path / "src"
    if not src.exists():
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["synth", "--seed", "3", "--days", "3", "--out", str(src)]) == 0
            assert main(["fuse", "--solar-wind", str(src / "solar_wind.csv"),
                         "--dst", str(src / "dst.csv"), "--kp", str(src / "kp.csv"),
                         "--out", str(tmp_path / "train.csv")]) == 0
            assert main(["train", "--data", str(tmp_path / "train.csv"), "--trees", "3",
                         "--threads", "1", "--out", str(tmp_path / "model.json")]) == 0
    out.mkdir()
    assert main(["fuse", "--solar-wind", str(src / "solar_wind.csv"),
                 "--dst", str(src / "dst.csv"), "--kp", str(src / "kp.csv"),
                 "--out", str(out / "data.csv")]) == 0
    assert main(["predict", "--model", str(tmp_path / "model.json"),
                 "--data", str(out / "data.csv"), "--out", str(out / "pred.csv")]) == 0
    return (out / "data.csv").read_bytes(), (out / "pred.csv").read_bytes()


@pytest.mark.parametrize("missing", _MISSING)
def test_fuse_and_predict_without_the_scanner_write_the_same_bytes(missing, monkeypatch,
                                                                     tmp_path):
    expected = _fuse_and_predict(tmp_path, tmp_path / "compiled")
    _break_the_build(missing, monkeypatch, tmp_path)
    assert splitkernel.load("csvscan") is None
    assert _fuse_and_predict(tmp_path, tmp_path / "python") == expected
    assert _cache_is_empty(tmp_path)


def _load_twice_at_once(name, monkeypatch, tmp_path):
    """Two threads load the kernel ``name`` into an empty cache, both compiling it."""
    monkeypatch.setattr(splitkernel, "CACHE_DIR", tmp_path)
    together = threading.Barrier(2, timeout=60)
    build = splitkernel._build

    def build_together(*args):
        together.wait()  # both found no library, so both compile
        build(*args)

    monkeypatch.setattr(splitkernel, "_build", build_together)
    loaded = [None, None]

    def load(i):
        loaded[i] = splitkernel.load(name)

    threads = [threading.Thread(target=load, args=(i,)) for i in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    library = splitkernel.library_path(name, splitkernel.source_path(name).read_bytes())
    assert [path.name for path in tmp_path.iterdir()] == [library.name]
    return loaded


@needs_cc
def test_concurrent_first_builds_leave_one_library_that_loads(monkeypatch, tmp_path):
    loaded = _load_twice_at_once("splitkernel", monkeypatch, tmp_path)

    X = np.array([[3.0, 1.0], [1.0, 1.0], [2.0, 0.0], [0.0, 0.0]])
    y = np.array([4.0, 1.0, 2.0, 0.0])
    expected = _grown_bits([forest._grow_tree(X, y, np.arange(4), 7, 2, 1)])
    for kernel in loaded:
        assert kernel is not None
        grower = splitkernel.Grower(kernel, X, y)
        assert _grown_bits([grower.grow(np.arange(4), 7, 2, 1)]) == expected


@needs_cc
def test_concurrent_first_builds_of_the_scanner_leave_one_library(monkeypatch, tmp_path):
    loaded = _load_twice_at_once("csvscan", monkeypatch, tmp_path)
    text = b"2021-01-01T00:00Z,1.5\n# a comment\n\n2021-01-01T03:00:00Z,\n"
    for scanner in loaded:
        assert scanner is not None
        monkeypatch.setattr(splitkernel, "load", lambda name, scanner=scanner: scanner)
        line_nos, stamps, values, present, newlines = ingest.scan_rows(text, len(text), 1,
                                                                       stamp_last=False)
        assert list(line_nos) == [1, 4] and newlines == 4
        assert stamps.tolist() == [202101010000, 202101010300]
        assert values.tobytes() == np.array([[1.5], [math.nan]]).tobytes()
        assert present.tolist() == [[True], [False]]
