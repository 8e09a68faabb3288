"""Random-forest regression, built from scratch on numpy.

Each tree is a CART regression tree grown on a bootstrap resample: at every
node an ``mtry``-sized feature subset is drawn, every midpoint between
consecutive distinct sorted values of each candidate is scored (the lower
value stands in for a midpoint that rounds up to the upper or overflows),
and the split minimising the weighted sum of child target variances wins
(ties: the lowest feature index, then the lowest threshold).  Growth stops
when a node has at most ``min_leaf`` rows, zero target variance, or no
candidate admits a valid split.  A leaf predicts the mean of its routed
targets; the forest predicts the mean over trees for each row of a matrix
(:func:`predict_batch`).  A row routes left when ``value <= threshold``.  A
fitted tree is a :class:`Tree`: six parallel arrays over its nodes,
numbered in preorder, which growth, prediction, out-of-bag scoring and the
model file (:mod:`.modelio`) all share.  Rows route level by level: each
pass moves every row not yet at a leaf one level down, and out-of-bag rows
route by their index into the training matrix, which is never copied.  No
step recurses, so a tree may be as deep as its data makes it.

Each tree grows in one call to the compiled kernel of :mod:`.splitkernel`,
which releases the interpreter lock, so up to ``threads`` trees grow in
parallel, but no more than the process has CPUs; at one, every tree grows
in the calling thread.  It grows bit for bit the tree that the numpy
:func:`_grow_tree` and :func:`_best_split` grow.  Both growers take a
tree's bag and the state of its stream after the bag draw, and return the
tree's six arrays and its importances, so :func:`fit` draws each bag and
makes each :class:`Tree` the same way for both.  The compiled split search
orders each candidate column by the column's ranks, computed once per fit.
A column's bag positions are presorted the first time a node of 64 rows or
more draws it, and each node that reads the presort narrows it to a window
of its own rows, followed by the rows of the nodes still to be split: a
descendant reads a window a few times its own size, not the whole bag.  A
node under 64 rows reads the window when it holds at most 8 times the
node's rows, and sorts its own rows otherwise.  Each thread that grows a
tree allocates its scratch once per fit, about ``2 * n_rows * n_features``
bytes (``4 *`` above 65,536 rows, where ranks and positions take 32 bits)
plus 69 bytes a feature for its windows.  Where the kernel cannot be built
(no ``cc``, no writable cache), :func:`_grow_tree` grows the trees in numpy;
the model is the same either way.

Determinism: tree ``i`` owns a private stream seeded from
``(config.seed, i)``; the bootstrap is drawn first, then each node consumes
the stream in depth-first order (node, left subtree, right subtree).  Tree
construction is therefore a pure function of (data, config), and the
``threads`` argument changes wall time only, never the model.

Feature importance is impurity-based: every internal node splitting on
feature ``f`` contributes ``node_weight * variance_reduction`` with
``node_weight = node sample count / bootstrap sample size``; contributions
are averaged over trees and normalised to sum to one.
"""

from __future__ import annotations

import functools
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, KOutOfRange
from . import splitkernel
from .fusion import FeatureSubset, FusedDataset, _row_matrix
from .rng import PortableRng, derive_seed

_TREE_STREAM = 0x74726565  # "tree": namespaces per-tree seeds in the fan-out

__all__ = [
    "ForestConfig",
    "Tree",
    "ForestModel",
    "RankedFeature",
    "ImportanceReport",
    "fit",
    "predict_batch",
    "importance",
    "top_k",
]


@dataclass(frozen=True)
class ForestConfig:
    """Hyper-parameters; ``mtry=None`` means the regression default p // 3."""

    n_trees: int = 100
    mtry: int | None = None
    min_leaf: int = 5
    seed: int = 0
    bootstrap: bool = True

    def __post_init__(self) -> None:
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.min_leaf < 1:
            raise ValueError("min_leaf must be >= 1")
        if self.mtry is not None and self.mtry < 1:
            raise ValueError("mtry must be >= 1 when given")

    def resolve_mtry(self, n_features: int) -> int:
        mtry = self.mtry if self.mtry is not None else max(1, n_features // 3)
        if mtry > n_features:
            raise ValueError(f"mtry {mtry} exceeds feature count {n_features}")
        return mtry


_TREE_ARRAYS = (
    ("feature", np.int64),
    ("threshold", np.float64),
    ("left", np.int64),
    ("right", np.int64),
    ("value", np.float64),
    ("n_samples", np.int64),
)


@dataclass(frozen=True, eq=False)
class Tree:
    """One CART tree as six read-only parallel arrays, one entry per node.

    Nodes are numbered in preorder (node, left subtree, right subtree), so
    the root is node 0 and a split's left child is the next node.  A split
    routes a row to ``left`` when ``row[feature] <= threshold``; its
    ``value`` is 0.0 and its ``n_samples`` 0.  A leaf is a node whose
    ``left`` is -1: it predicts ``value`` for the ``n_samples`` rows it was
    grown on, and its ``feature`` and ``right`` are -1 and its ``threshold``
    0.0.  Two trees are equal when every array is equal bit for bit.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray
    n_samples: np.ndarray

    def __post_init__(self) -> None:
        for name, dtype in _TREE_ARRAYS:
            array = np.array(getattr(self, name), dtype=dtype)
            if array.shape != (len(self.feature),):
                raise ValueError(f"tree array {name} must be 1-D, one entry per node")
            array.setflags(write=False)
            object.__setattr__(self, name, array)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Tree):
            return NotImplemented
        return all(
            getattr(self, name).tobytes() == getattr(other, name).tobytes()
            for name, _ in _TREE_ARRAYS
        )


@dataclass(frozen=True, eq=False)
class ForestModel:
    trees: tuple[Tree, ...]
    feature_names: tuple[str, ...]
    config: ForestConfig
    importances: np.ndarray  # normalised, sums to 1 (all zero if no split gained)
    train_target_range: tuple[float, float]
    oob_mse: float | None  # out-of-bag MSE; None when bootstrap is off

    def __post_init__(self) -> None:
        imp = np.asarray(self.importances, dtype=np.float64)
        imp.setflags(write=False)
        object.__setattr__(self, "importances", imp)


@dataclass(frozen=True)
class RankedFeature:
    name: str
    importance: float
    rank: int  # 1-based
    index: int  # column in the training dataset


@dataclass(frozen=True)
class ImportanceReport:
    ranked: tuple[RankedFeature, ...]  # descending importance

    def to_csv(self) -> str:
        lines = ["feature,importance,rank"]
        lines += [f"{r.name},{r.importance!r},{r.rank}" for r in self.ranked]
        return "".join(line + "\n" for line in lines)


# --------------------------------------------------------------------------
# growing


def _best_split(X: np.ndarray, y: np.ndarray, rows: np.ndarray, cand: np.ndarray):
    """Score every (candidate feature, midpoint threshold) pair at one node.

    Returns ``(feature, threshold, left_rows, right_rows, sse_reduction)``
    or ``None`` when no candidate separates the rows.  All candidates are
    scored in one vectorised pass: targets are sorted per candidate column
    and prefix sums give each child's sum of squared errors directly.  This
    is the reference that the compiled kernel matches bit for bit.
    """
    m = rows.size
    sub = X[np.ix_(rows, cand)]
    order = np.argsort(sub, axis=0, kind="stable")
    xs = np.take_along_axis(sub, order, axis=0)
    ys = y[rows][order]

    csum = np.cumsum(ys, axis=0)
    csq = np.cumsum(ys * ys, axis=0)
    left_sum, left_sq = csum[:-1], csq[:-1]
    total_sum, total_sq = csum[-1], csq[-1]
    n_left = np.arange(1, m, dtype=np.float64)[:, None]
    n_right = np.float64(m) - n_left
    score = (left_sq - left_sum * left_sum / n_left) + (
        (total_sq - left_sq) - (total_sum - left_sum) ** 2 / n_right
    )
    score[xs[1:] == xs[:-1]] = np.inf  # threshold must separate distinct values

    best = score.min()
    if not np.isfinite(best):
        return None
    # Tie-break: lowest original feature index, then lowest threshold.
    # ``cand`` is ascending, so the first tied column wins; thresholds grow
    # with row position, so the first tied position wins.
    tied = score == best
    j = int(np.flatnonzero(tied.any(axis=0))[0])
    pos = int(np.flatnonzero(tied[:, j])[0])

    lo, hi = float(xs[pos, j]), float(xs[pos + 1, j])
    threshold = (lo + hi) / 2.0
    # The midpoint rounded up to hi, or lo + hi overflowed: lo < hi, so
    # splitting at lo keeps both sides non-empty.
    if threshold == hi or not math.isfinite(threshold):
        threshold = lo
    feature = int(cand[j])
    go_left = X[rows, feature] <= threshold
    parent_sse = float(total_sq[j] - total_sum[j] * total_sum[j] / m)
    return feature, threshold, rows[go_left], rows[~go_left], parent_sse - float(best)


def _draw_bag(n: int, config: ForestConfig, tree_seed: int):
    """The tree's stream after its bootstrap draw, the bag and the out-of-bag rows."""
    rng = PortableRng(tree_seed)
    if config.bootstrap:
        bag = np.asarray(rng.block_below(n, n))
        oob = np.flatnonzero(np.bincount(bag, minlength=n) == 0)
    else:
        bag = np.arange(n)
        oob = np.empty(0, dtype=np.int64)
    return rng, bag, oob


def _grow_tree(X: np.ndarray, y: np.ndarray, bag: np.ndarray, state: int, mtry: int,
               min_leaf: int):
    """One tree on the rows of ``bag``, drawing from the stream at ``state``:
    its six arrays and its unnormalised importances.

    This is the reference that :meth:`.splitkernel.Grower.grow` matches bit
    for bit.  The stack pops a node's left child before its right, so nodes
    are numbered, and the stream and importances consumed, in preorder.
    """
    n, p = X.shape
    rng = PortableRng(state)
    all_features = np.arange(p)
    imp = np.zeros(p)
    feature, threshold, left, right, value, n_samples = [], [], [], [], [], []

    stack = [(bag, -1)]  # (rows, the split whose right child this is, or -1)
    while stack:
        rows, parent = stack.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        ysub = y[rows]
        found = None
        if rows.size > min_leaf and ysub.min() != ysub.max():
            cand = all_features if mtry == p else rng.subset(p, mtry)
            found = _best_split(X, y, rows, cand)
        if found is None:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(float(ysub.mean()))
            n_samples.append(rows.size)
            continue
        f, t, left_rows, right_rows, sse_reduction = found
        # node_weight * variance_reduction == sse_reduction / bag size
        imp[f] += sse_reduction / n
        feature.append(f)
        threshold.append(t)
        left.append(node + 1)
        right.append(-1)  # set when the right child is numbered
        value.append(0.0)
        n_samples.append(0)
        stack.append((right_rows, node))
        stack.append((left_rows, -1))

    return (feature, threshold, left, right, value, n_samples), imp


def _route(tree: Tree, X: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The leaf value of each row ``X[r]`` for ``r`` in ``rows``.

    Every row still at a split moves down one level per pass, so a pass costs
    a few whole-array operations however many nodes the level holds.
    """
    node = np.zeros(rows.size, dtype=np.int64)
    live = np.arange(rows.size)
    while live.size:
        at = node[live]
        split = tree.left[at] >= 0
        live, at = live[split], at[split]
        node[live] = np.where(X[rows[live], tree.feature[at]] <= tree.threshold[at],
                              tree.left[at], tree.right[at])
    return tree.value[node]


def usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        return os.cpu_count() or 1


def fit(data: FusedDataset, config: ForestConfig = ForestConfig(), threads: int = 1) -> ForestModel:
    """Fit a forest on the dataset; ``threads`` never changes the result.

    At most :func:`usable_cpus` trees grow at once, whatever ``threads`` is.
    """
    if data.n_rows == 0:
        raise EmptyDataset("cannot fit a forest on zero rows")
    X = data.rows
    y = data.targets
    mtry = config.resolve_mtry(data.n_features)

    seeds = [derive_seed(config.seed, _TREE_STREAM, i) for i in range(config.n_trees)]
    library = splitkernel.kernel_for(data.n_rows)
    if library is None:
        grow = functools.partial(_grow_tree, X, y)
    else:
        grow = splitkernel.Grower(library, np.ascontiguousarray(X), y).grow

    def build(tree_seed: int):
        rng, bag, oob = _draw_bag(data.n_rows, config, tree_seed)
        arrays, imp = grow(bag, rng.state, mtry, config.min_leaf)
        return Tree(*arrays), imp, oob

    # Threads beyond the CPUs add no speed, and each would hold its own scratch.
    workers = min(threads, usable_cpus())
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            grown = list(pool.map(build, seeds))
    else:  # no pool: a worker thread's allocations add about 2 MB to the peak
        grown = [build(s) for s in seeds]

    trees = tuple(tree for tree, _, _ in grown)
    imp = np.zeros(data.n_features)
    for _, tree_imp, _ in grown:  # fixed accumulation order: by tree index
        imp += tree_imp
    imp /= config.n_trees
    total = imp.sum()
    if total > 0.0:
        imp = imp / total

    oob_mse = None
    if config.bootstrap:
        pred_sum = np.zeros(data.n_rows)
        pred_count = np.zeros(data.n_rows, dtype=np.int64)
        for tree, _, oob in grown:  # by tree index; oob rows are distinct
            pred_sum[oob] += _route(tree, X, oob)
            pred_count[oob] += 1
        covered = pred_count > 0
        if covered.any():
            residual = pred_sum[covered] / pred_count[covered] - y[covered]
            oob_mse = float(np.mean(residual * residual))

    return ForestModel(
        trees=trees,
        feature_names=data.feature_names,
        config=config,
        importances=imp,
        train_target_range=(float(y.min()), float(y.max())),
        oob_mse=oob_mse,
    )


# --------------------------------------------------------------------------
# prediction


def predict_batch(model: ForestModel, rows: np.ndarray) -> np.ndarray:
    """Vector of predictions for a 2-D row matrix."""
    rows = _row_matrix(rows, len(model.feature_names))
    every = np.arange(rows.shape[0])
    total = np.zeros(rows.shape[0])
    for tree in model.trees:  # fixed accumulation order: by tree index
        total += _route(tree, rows, every)
    return total / len(model.trees)


# --------------------------------------------------------------------------
# importance


def importance(model: ForestModel) -> ImportanceReport:
    """Features ranked by normalised importance, ties to the lower index."""
    imp = model.importances
    order = sorted(range(len(imp)), key=lambda i: (-imp[i], i))
    ranked = tuple(
        RankedFeature(model.feature_names[i], float(imp[i]), rank + 1, i)
        for rank, i in enumerate(order)
    )
    return ImportanceReport(ranked)


def top_k(report: ImportanceReport, k: int) -> FeatureSubset:
    """The k best-ranked features as a selectable subset (ranking order)."""
    if not 1 <= k <= len(report.ranked):
        raise KOutOfRange(f"k must lie in [1, {len(report.ranked)}], got {k}")
    picked = report.ranked[:k]
    return FeatureSubset(
        indices=tuple(r.index for r in picked),
        names=tuple(r.name for r in picked),
    )
