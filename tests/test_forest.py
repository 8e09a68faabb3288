"""Hand-authored CART forest: splits, stops, determinism, importances."""

from __future__ import annotations

import contextlib
import shutil
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpforecast import modelio, splitkernel
from kpforecast.errors import DimensionMismatch, KOutOfRange, NonFiniteValue
from kpforecast.forest import (
    _TREE_STREAM,
    ForestConfig,
    ForestModel,
    Tree,
    _draw_bag,
    _route,
    fit,
    importance,
    predict,
    predict_batch,
    top_k,
)
from kpforecast.rng import PortableRng, derive_seed

from cart_oracle import oracle_predict, oracle_tree
from conftest import make_dataset

EXACT_TREE = ForestConfig(n_trees=1, mtry=1, min_leaf=1, seed=0, bootstrap=False)


def _the_tree(model: ForestModel):
    assert len(model.trees) == 1
    return model.trees[0]


def _leaf(value, n_samples):
    """A one-node tree: a leaf predicting ``value`` for ``n_samples`` rows."""
    return Tree([-1], [0.0], [-1], [-1], [value], [n_samples])


def _is_leaf(tree, node):
    return tree.left[node] == -1


def _as_dict(tree, node=0):
    """Node ``node`` of ``tree`` and its subtree as the oracle's nested dicts."""
    if _is_leaf(tree, node):
        return {"p": float(tree.value[node]), "n": int(tree.n_samples[node])}
    return {
        "f": int(tree.feature[node]),
        "t": float(tree.threshold[node]),
        "l": _as_dict(tree, tree.left[node]),
        "r": _as_dict(tree, tree.right[node]),
    }


# -- single-tree split mechanics -------------------------------------------------


def test_two_cluster_split_lands_between_clusters():
    data = make_dataset([[0.0], [1.0], [10.0], [11.0]], [0.0, 0.0, 5.0, 5.0])
    tree = _the_tree(fit(data, EXACT_TREE))
    assert not _is_leaf(tree, 0)
    assert tree.feature[0] == 0
    assert 1.0 < tree.threshold[0] < 10.0  # any gap point separates the clusters
    assert tree.threshold[0] == 5.5  # midpoint of the adjacent pair (1, 10)
    left, right = tree.left[0], tree.right[0]
    assert _is_leaf(tree, left) and tree.value[left] == 0.0
    assert _is_leaf(tree, right) and tree.value[right] == 5.0


def test_min_leaf_stops_splitting_at_five_rows():
    data = make_dataset(
        [[float(i)] for i in range(5)], [1.0, 2.0, 3.0, 4.0, 5.0]
    )
    config = ForestConfig(n_trees=1, mtry=1, min_leaf=5, seed=0, bootstrap=False)
    tree = _the_tree(fit(data, config))
    assert tree == _leaf(3.0, 5)


def test_zero_variance_node_becomes_leaf():
    data = make_dataset([[0.0], [1.0], [2.0]], [4.0, 4.0, 4.0])
    tree = _the_tree(fit(data, EXACT_TREE))
    assert tree == _leaf(4.0, 3)


def test_identical_rows_admit_no_split():
    data = make_dataset([[2.0], [2.0], [2.0]], [1.0, 2.0, 3.0])
    tree = _the_tree(fit(data, EXACT_TREE))
    assert tree == _leaf(2.0, 3)


def test_route_left_on_exact_threshold_match():
    data = make_dataset([[0.0], [1.0], [10.0], [11.0]], [0.0, 0.0, 5.0, 5.0])
    model = fit(data, EXACT_TREE)
    threshold = _the_tree(model).threshold[0]
    assert predict(model, np.array([threshold])) == 0.0  # <= goes left
    assert predict(model, np.array([np.nextafter(threshold, 100.0)])) == 5.0


def test_adjacent_value_midpoint_guard_keeps_split_valid():
    lo = 1.0
    hi = np.nextafter(lo, 2.0)  # midpoint rounds to hi; guard must snap to lo
    data = make_dataset([[lo], [hi]], [0.0, 1.0])
    tree = _the_tree(fit(data, EXACT_TREE))
    assert not _is_leaf(tree, 0)
    assert tree.threshold[0] == lo
    assert tree == Tree([0, -1, -1], [lo, 0.0, 0.0], [1, -1, -1], [2, -1, -1],
                        [0.0, 0.0, 1.0], [0, 1, 1])


def test_tie_break_prefers_lowest_feature_then_lowest_threshold():
    # duplicated perfect separators: columns 1 and 2 copy column 0, so all
    # three candidate scores are computed from identical arithmetic
    X = np.array([[0.0, 0.0, 0.0], [1.0, 1.0, 1.0]])
    data = make_dataset(X, [0.0, 1.0])
    config = ForestConfig(n_trees=1, mtry=3, min_leaf=1, seed=0, bootstrap=False)
    tree = _the_tree(fit(data, config))
    assert tree.feature[0] == 0
    # symmetric dyadic case: cutting at 0.5 or 1.5 both score exactly 0.5,
    # so the scores tie bitwise and the lower threshold must win
    data2 = make_dataset([[0.0], [1.0], [2.0]], [1.0, 0.0, 1.0])
    tree2 = _the_tree(fit(data2, EXACT_TREE))
    assert tree2.feature[0] == 0 and tree2.threshold[0] == 0.5


def test_tree_arrays_are_read_only_with_one_entry_per_node():
    data = make_dataset([[0.0], [1.0], [10.0], [11.0]], [0.0, 0.0, 5.0, 5.0])
    tree = _the_tree(fit(data, EXACT_TREE))
    for name in ("feature", "threshold", "left", "right", "value", "n_samples"):
        array = getattr(tree, name)
        assert array.shape == (3,)
        with pytest.raises(ValueError):
            array[0] = 1
    with pytest.raises(ValueError, match="one entry per node"):
        Tree([-1], [0.0], [-1], [-1], [1.0, 2.0], [1])


def test_trees_are_equal_only_bit_for_bit():
    assert _leaf(1.0, 2) == _leaf(1.0, 2)
    assert _leaf(0.0, 2) != _leaf(-0.0, 2)
    assert _leaf(1.0, 2) != _leaf(1.0, 3)
    assert _leaf(1.0, 2) != Tree([0, -1, -1], [0.5, 0.0, 0.0], [1, -1, -1],
                                 [2, -1, -1], [0.0, 1.0, 1.0], [0, 1, 1])


# -- forest averaging ------------------------------------------------------------


def test_forest_prediction_is_mean_over_stub_trees():
    base = fit(make_dataset([[0.0]], [1.0]), EXACT_TREE)
    model = ForestModel(
        trees=(_leaf(3.0, 1), _leaf(5.0, 1)),
        feature_names=base.feature_names,
        config=base.config,
        importances=np.zeros(1),
        train_target_range=(3.0, 5.0),
        oob_mse=None,
    )
    assert predict(model, np.array([0.0])) == 4.0
    assert predict_batch(model, np.array([[0.0], [9.0]])).tolist() == [4.0, 4.0]


def test_predictions_bounded_by_training_target_range():
    rng = PortableRng(11)
    X = np.array([[rng.random() for _ in range(3)] for _ in range(60)])
    y = np.array([9.0 * rng.random() for _ in range(60)])
    data = make_dataset(X, y)
    model = fit(data, ForestConfig(n_trees=10, seed=2))
    probe = np.array([[rng.random() * 10 - 5 for _ in range(3)] for _ in range(50)])
    out = predict_batch(model, probe)
    assert out.min() >= y.min() - 1e-12
    assert out.max() <= y.max() + 1e-12
    assert model.train_target_range == (y.min(), y.max())


def test_predict_and_predict_batch_agree():
    rng = PortableRng(4)
    X = np.array([[rng.random() for _ in range(4)] for _ in range(40)])
    y = np.array([rng.random() for _ in range(40)])
    model = fit(make_dataset(X, y), ForestConfig(n_trees=7, seed=3))
    batch = predict_batch(model, X)
    single = np.array([predict(model, X[i]) for i in range(len(X))])
    assert np.array_equal(batch, single)


# -- oracle equivalence ----------------------------------------------------------


def test_single_feature_tree_structure_matches_brute_force_oracle():
    # One feature, continuous values: every candidate threshold induces a
    # distinct partition, so no two candidates can tie on the exact score
    # and the greedy structures must agree node for node.
    rng = PortableRng(2024)
    for trial in range(30):
        n = 3 + trial % 14
        min_leaf = 1 + trial % 3
        X = np.array([[rng.random()] for _ in range(n)])
        y = np.array([rng.random() * 9 for _ in range(n)])
        config = ForestConfig(
            n_trees=1, mtry=1, min_leaf=min_leaf, seed=0, bootstrap=False
        )
        tree = _the_tree(fit(make_dataset(X, y), config))
        assert _as_dict(tree) == oracle_tree(X, y, min_leaf=min_leaf), (
            f"trial {trial}"
        )


def test_single_tree_training_predictions_match_oracle_multifeature():
    # Across features, two candidates can induce the same row partition and
    # tie on the exact score; float noise then flips which one wins per
    # implementation.  Tied splits route the training rows identically, so
    # training predictions — unlike structures — must match exactly.
    rng = PortableRng(77)
    for trial in range(25):
        n = 4 + trial % 14
        p = 2 + trial % 3
        min_leaf = 1 + trial % 4
        X = np.array([[rng.random() for _ in range(p)] for _ in range(n)])
        y = np.array([rng.random() * 9 for _ in range(n)])
        data = make_dataset(X, y)
        config = ForestConfig(
            n_trees=1, mtry=p, min_leaf=min_leaf, seed=0, bootstrap=False
        )
        model = fit(data, config)
        expected = oracle_tree(X, y, min_leaf=min_leaf)
        got = [predict(model, X[i]) for i in range(n)]
        want = [oracle_predict(expected, X[i]) for i in range(n)]
        assert got == want, f"trial {trial}"


# -- routing against a scalar walk ---------------------------------------------------


def _walk(tree, row):
    """The leaf value ``row`` reaches, walking one node at a time."""
    node = 0
    while tree.left[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return float(tree.value[node])


def _walk_mean(model, X):
    """The forest's prediction for each row of ``X``, summed over trees in index order."""
    means = []
    for row in X:
        total = 0.0
        for tree in model.trees:
            total += _walk(tree, row)
        means.append(total / len(model.trees))
    return np.array(means, dtype=np.float64)


def _forest_of(trees, p):
    """A forest over ``p`` features holding the given trees."""
    return ForestModel(
        trees=tuple(trees),
        feature_names=tuple(f"x{i}" for i in range(p)),
        config=ForestConfig(n_trees=len(trees)),
        importances=np.zeros(p),
        train_target_range=(0.0, 9.0),
        oob_mse=None,
    )


_GROWERS = [
    "numpy",
    pytest.param("compiled", marks=pytest.mark.skipif(shutil.which("cc") is None,
                                                      reason="no C compiler")),
]


def _grower(kind):
    """Fit with the compiled kernel, or with the numpy grower in its place."""
    if kind == "compiled":
        return contextlib.nullcontext()
    return mock.patch.object(splitkernel, "load", lambda: None)


# Signed zeros, the smallest subnormals and a few repeats, so that rows land
# exactly on thresholds and on both sides of zero.
_CUTS = st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 0.5, 1.0, -1.0, 2.5])
_CELLS = _CUTS | st.floats(-4.0, 4.0)


def _matrix(draw, n, p, cells=_CELLS):
    rows = draw(st.lists(st.lists(cells, min_size=p, max_size=p), min_size=n, max_size=n))
    return np.array(rows, dtype=np.float64).reshape(n, p)


@st.composite
def _fit_cases(draw, bootstrap=st.booleans()):
    n, p = draw(st.integers(1, 40)), draw(st.integers(1, 4))
    X = _matrix(draw, n, p)
    y = np.array(draw(st.lists(st.floats(0.0, 9.0), min_size=n, max_size=n)))
    config = ForestConfig(n_trees=draw(st.integers(1, 4)), mtry=draw(st.integers(1, p)),
                          min_leaf=draw(st.integers(1, 4)), seed=draw(st.integers(0, 2**64 - 1)),
                          bootstrap=draw(bootstrap))
    return make_dataset(X, y), config


@st.composite
def _hand_trees(draw, p, max_nodes=41):
    """A tree of up to ``max_nodes`` nodes, numbered in preorder as growth numbers them."""
    feature, threshold, left, right, value = [], [], [], [], []
    pending = [-1]  # the split whose right child each pending node is, or -1
    while pending:
        parent = pending.pop()
        node = len(feature)
        if parent >= 0:
            right[parent] = node
        if node + len(pending) + 3 <= max_nodes and draw(st.booleans()):
            feature.append(draw(st.integers(0, p - 1)))
            threshold.append(draw(_CUTS))
            left.append(node + 1)
            right.append(-1)
            value.append(0.0)
            pending += [node, -1]
        else:
            feature.append(-1)
            threshold.append(0.0)
            left.append(-1)
            right.append(-1)
            value.append(draw(st.sampled_from([-0.0, 0.0, 1.0, 1 / 3, 8.5])))
    return Tree(feature, threshold, left, right, value, [1] * len(feature))


@pytest.mark.parametrize("kind", _GROWERS)
@settings(max_examples=60)
@given(case=_fit_cases(), probes=st.data())
def test_predict_batch_matches_a_scalar_walk_on_fitted_forests(kind, case, probes):
    data, config = case
    with _grower(kind):
        model = fit(data, config)
    p = data.n_features
    cuts = np.concatenate([tree.threshold[tree.left >= 0] for tree in model.trees])
    X = np.vstack([data.rows, _matrix(probes.draw, probes.draw(st.integers(0, 8)), p),
                   np.repeat(cuts[:, None], p, axis=1)])  # rows exactly on each threshold
    assert predict_batch(model, X).tobytes() == _walk_mean(model, X).tobytes()


@settings(max_examples=200)
@given(data=st.data())
def test_predict_batch_matches_a_scalar_walk_on_hand_built_trees(data):
    p = data.draw(st.integers(1, 3))
    trees = data.draw(st.lists(_hand_trees(p), min_size=1, max_size=3))
    X = _matrix(data.draw, data.draw(st.integers(0, 12)), p, _CUTS)
    model = _forest_of(trees, p)
    assert predict_batch(model, X).tobytes() == _walk_mean(model, X).tobytes()


@settings(max_examples=200)
@given(data=st.data())
def test_routing_a_subset_equals_routing_the_gathered_rows(data):
    p = data.draw(st.integers(1, 3))
    tree = data.draw(_hand_trees(p))
    n = data.draw(st.integers(1, 10))
    X = _matrix(data.draw, n, p, _CUTS)
    rows = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=2 * n)), dtype=np.int64)
    routed = _route(tree, X, rows)
    walked = np.array([_walk(tree, X[r]) for r in rows], dtype=np.float64)
    assert routed.tobytes() == walked.tobytes()
    assert routed.tobytes() == _route(tree, X[rows], np.arange(rows.size)).tobytes()


def test_a_single_leaf_predicts_its_value_for_every_row():
    model = _forest_of([_leaf(3.0, 4)], 2)
    X = np.array([[0.0, 1.0], [-7.0, 1e300], [5e-324, -0.0]])
    assert predict_batch(model, X).tolist() == [3.0, 3.0, 3.0]
    assert _route(model.trees[0], X, np.array([2, 0])).tolist() == [3.0, 3.0]


def test_a_row_on_the_threshold_routes_left():
    tree = Tree([1, -1, -1], [0.25, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, 1.0, 2.0], [0, 1, 1])
    X = np.array([[9.0, 0.25], [9.0, np.nextafter(0.25, 1.0)], [9.0, np.nextafter(0.25, 0.0)]])
    assert predict_batch(_forest_of([tree], 2), X).tolist() == [1.0, 2.0, 1.0]


@pytest.mark.parametrize("cut", [0.0, -0.0])
def test_signed_zeros_route_alike_and_leaf_values_keep_their_sign(cut):
    tree = Tree([0, -1, -1], [cut, 0.0, 0.0], [1, -1, -1], [2, -1, -1], [0.0, -0.0, 1.0], [0, 1, 1])
    X = np.array([[-0.0], [0.0], [5e-324], [-5e-324]])
    routed = _route(tree, X, np.arange(4))
    assert routed.tobytes() == np.array([-0.0, -0.0, 1.0, -0.0]).tobytes()


def test_a_chain_deeper_than_64_levels_routes_every_row_to_its_leaf():
    depth = 100
    feature, threshold, left, right, value = [], [], [], [], []
    for i in range(depth):  # split i sends what reaches it and is <= i to a leaf predicting i
        node = len(feature)
        feature += [0, -1]
        threshold += [float(i), 0.0]
        left += [node + 1, -1]
        right += [node + 2, -1]
        value += [0.0, float(i)]
    feature.append(-1)
    threshold.append(0.0)
    left.append(-1)
    right.append(-1)
    value.append(float(depth))
    tree = Tree(feature, threshold, left, right, value, [1] * len(feature))
    model = _forest_of([tree], 1)
    X = np.arange(depth + 1.0, -1.0, -0.5).reshape(-1, 1)
    out = predict_batch(model, X)
    assert np.array_equal(out, np.minimum(np.ceil(X[:, 0]), depth))
    assert out.tobytes() == _walk_mean(model, X).tobytes()


def test_an_empty_row_set_routes_to_nothing():
    fitted = fit(_random_data(9, n=20, p=3), ForestConfig(n_trees=3, seed=0))
    for model in (fitted, _forest_of([_leaf(1.0, 1)], 3)):
        out = predict_batch(model, np.empty((0, 3)))
        assert out.shape == (0,) and out.dtype == np.float64
    assert _route(fitted.trees[0], np.zeros((2, 3)), np.arange(0)).shape == (0,)


# -- determinism -----------------------------------------------------------------


def _random_data(seed, n=80, p=6):
    rng = PortableRng(seed)
    X = np.array([[rng.random() for _ in range(p)] for _ in range(n)])
    y = np.array([9.0 * rng.random() for _ in range(n)])
    return make_dataset(X, y)


def test_thread_count_never_changes_the_model():
    data = _random_data(1)
    config = ForestConfig(n_trees=8, seed=5)
    serialized = {
        threads: modelio.model_to_json(fit(data, config, threads=threads))
        for threads in (1, 2, 8)
    }
    assert serialized[1] == serialized[2] == serialized[8]


def test_same_seed_reproduces_different_seed_diverges():
    data = _random_data(2)
    a = modelio.model_to_json(fit(data, ForestConfig(n_trees=5, seed=9)))
    b = modelio.model_to_json(fit(data, ForestConfig(n_trees=5, seed=9)))
    c = modelio.model_to_json(fit(data, ForestConfig(n_trees=5, seed=10)))
    assert a == b
    assert a != c


def test_bootstrap_and_mtry_produce_tree_diversity():
    data = _random_data(3)
    model = fit(data, ForestConfig(n_trees=6, mtry=2, seed=0))
    assert len({modelio.model_to_json(
        ForestModel((t,), model.feature_names, model.config,
                    np.zeros(data.n_features), model.train_target_range, None)
    ) for t in model.trees}) > 1


def test_oob_mse_present_only_with_bootstrap():
    data = _random_data(4)
    with_bag = fit(data, ForestConfig(n_trees=20, seed=1))
    without = fit(data, ForestConfig(n_trees=20, seed=1, bootstrap=False))
    assert with_bag.oob_mse is not None and with_bag.oob_mse >= 0.0
    assert without.oob_mse is None


@pytest.mark.parametrize("kind", _GROWERS)
@settings(max_examples=60)
@given(case=_fit_cases(bootstrap=st.just(True)))
def test_oob_mse_is_the_brute_force_out_of_bag_error(kind, case):
    data, config = case
    with _grower(kind):
        model = fit(data, config)
    n = data.n_rows
    total, count = np.zeros(n), np.zeros(n, dtype=np.int64)
    for i, tree in enumerate(model.trees):  # by tree index, as fit sums
        _, _, oob = _draw_bag(n, config, derive_seed(config.seed, _TREE_STREAM, i))
        for r in oob:
            total[r] += _walk(tree, data.rows[r])
            count[r] += 1
    covered = count > 0
    if not covered.any():
        assert model.oob_mse is None
        return
    residual = total[covered] / count[covered] - data.targets[covered]
    assert model.oob_mse.hex() == float(np.mean(residual * residual)).hex()


@pytest.mark.parametrize("n", [1, 2, 7, 100, 1432])
def test_the_out_of_bag_rows_are_the_rows_the_bag_missed(n):
    for tree_seed in range(20):
        _, bag, oob = _draw_bag(n, ForestConfig(), tree_seed)
        expected = np.setdiff1d(np.arange(n), bag)  # the sort-based reference
        assert oob.dtype == expected.dtype and np.array_equal(oob, expected)


# -- importances and selection ----------------------------------------------------


def test_importances_concentrate_on_the_informative_feature():
    rng = PortableRng(6)
    X = np.array([[rng.random(), rng.random()] for _ in range(120)])
    y = 8.0 * X[:, 0]  # feature 1 is pure noise
    model = fit(make_dataset(X, y), ForestConfig(n_trees=15, seed=0))
    imp = model.importances
    assert imp.shape == (2,)
    assert abs(imp.sum() - 1.0) < 1e-12
    assert imp[0] > 0.9
    report = importance(model)
    assert report.ranked[0].index == 0 and report.ranked[0].rank == 1
    assert report.ranked[1].index == 1 and report.ranked[1].rank == 2


def test_constant_feature_scores_zero_importance():
    rng = PortableRng(8)
    X = np.array([[rng.random(), 7.0] for _ in range(60)])
    y = X[:, 0] * 5.0
    model = fit(make_dataset(X, y), ForestConfig(n_trees=10, seed=0))
    assert model.importances[1] == 0.0


def test_importance_ranking_breaks_ties_by_index():
    model = fit(make_dataset([[0.0, 0.0]], [1.0]),
                ForestConfig(n_trees=1, min_leaf=1, seed=0, bootstrap=False))
    # single row -> no splits -> all-zero importances -> rank by index
    report = importance(model)
    assert [r.index for r in report.ranked] == [0, 1]
    assert all(r.importance == 0.0 for r in report.ranked)


def test_top_k_returns_subset_in_ranking_order():
    rng = PortableRng(13)
    X = np.array([[rng.random() for _ in range(4)] for _ in range(100)])
    y = 6.0 * X[:, 2] + 2.0 * X[:, 0]
    model = fit(make_dataset(X, y), ForestConfig(n_trees=12, seed=1))
    report = importance(model)
    subset = top_k(report, 2)
    assert subset.indices == (2, 0)
    assert subset.names == ("x2", "x0")
    with pytest.raises(KOutOfRange):
        top_k(report, 0)
    with pytest.raises(KOutOfRange):
        top_k(report, 5)


def test_importance_csv_round_trip_shape():
    model = fit(_random_data(5, n=30, p=3), ForestConfig(n_trees=3, seed=0))
    csv = importance(model).to_csv()
    lines = csv.splitlines()
    assert lines[0] == "feature,importance,rank"
    assert len(lines) == 4
    assert lines[1].endswith(",1")


# -- input validation --------------------------------------------------------------


def test_predict_rejects_wrong_width_and_nonfinite():
    model = fit(_random_data(7, n=20, p=3), ForestConfig(n_trees=2, seed=0))
    with pytest.raises(DimensionMismatch):
        predict(model, np.zeros(4))
    with pytest.raises(DimensionMismatch):
        predict_batch(model, np.zeros((2, 4)))
    with pytest.raises(NonFiniteValue):
        predict(model, np.array([0.0, np.nan, 0.0]))


_NON_FINITE = st.sampled_from([np.nan, np.inf, -np.inf])


@settings(max_examples=60)
@given(data=st.data(), bad=_NON_FINITE)
def test_predict_batch_refuses_a_non_finite_value_in_any_cell(data, bad):
    n, p = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 4))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, p - 1))
    X = np.zeros((n, p))
    X[i, j] = bad
    model = _forest_of([_leaf(1.0, 1)], p)
    with pytest.raises(NonFiniteValue):
        predict_batch(model, X)
    with pytest.raises(NonFiniteValue):
        predict(model, X[i])


def test_predict_refuses_a_matrix():
    model = _forest_of([_leaf(1.0, 1)], 3)
    with pytest.raises(DimensionMismatch, match="1-D"):
        predict(model, np.zeros((1, 3)))
    with pytest.raises(DimensionMismatch, match="2-D"):
        predict_batch(model, np.zeros(3))


def test_config_validation():
    with pytest.raises(ValueError):
        ForestConfig(n_trees=0)
    with pytest.raises(ValueError):
        ForestConfig(min_leaf=0)
    with pytest.raises(ValueError):
        ForestConfig(mtry=0)
    with pytest.raises(ValueError):
        ForestConfig(mtry=9).resolve_mtry(4)
    assert ForestConfig().resolve_mtry(767) == 255
    assert ForestConfig().resolve_mtry(2) == 1
