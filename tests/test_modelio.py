"""Model JSON container: bit-exact round-trips and failure mapping."""

from __future__ import annotations

import contextlib
import io
import json
import math
import re
import sys
from functools import cache

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kpforecast import baseline, forest
from kpforecast.cli import main
from kpforecast.errors import DataError
from kpforecast.modelio import (
    load_model,
    model_from_json,
    model_to_json,
    save_model,
)
from kpforecast.rng import PortableRng

from conftest import make_dataset


def _training_data(seed=0, n=60, p=5):
    rng = PortableRng(seed)
    X = np.array([[rng.random() * 4 for _ in range(p)] for _ in range(n)])
    y = np.array([9.0 * rng.random() for _ in range(n)])
    return make_dataset(X, y)


def _probe_rows(seed, p, n=50):
    rng = PortableRng(seed)
    return np.array([[rng.random() * 4 for _ in range(p)] for _ in range(n)])


def test_forest_round_trip_predicts_bit_identically():
    data = _training_data()
    model = forest.fit(data, forest.ForestConfig(n_trees=9, seed=3))
    clone = model_from_json(model_to_json(model))
    probe = _probe_rows(99, data.n_features)
    assert np.array_equal(
        forest.predict_batch(model, probe), forest.predict_batch(clone, probe)
    )
    assert clone.feature_names == model.feature_names
    assert clone.config == model.config
    assert np.array_equal(clone.importances, model.importances)
    assert clone.train_target_range == model.train_target_range
    assert clone.oob_mse == model.oob_mse
    assert clone.trees == model.trees  # array for array, bit for bit
    # serialisation is a fixed point: dumping the clone reproduces the bytes
    assert model_to_json(clone) == model_to_json(model)


def test_linear_round_trip_predicts_bit_identically():
    data = _training_data(seed=1)
    model = baseline.fit_linear(data)
    clone = model_from_json(model_to_json(model))
    probe = _probe_rows(77, data.n_features)
    assert np.array_equal(
        baseline.predict_linear_batch(model, probe),
        baseline.predict_linear_batch(clone, probe),
    )
    assert clone.intercept == model.intercept
    assert np.array_equal(clone.coefficients, model.coefficients)
    assert model_to_json(clone) == model_to_json(model)


def test_kind_tags_and_node_shapes():
    data = _training_data(n=20, p=2)
    fj = json.loads(model_to_json(forest.fit(data, forest.ForestConfig(
        n_trees=2, seed=0))))
    assert fj["kind"] == "forest" and fj["format"] == 2
    assert set(fj) == {"kind", "format", "config", "feature_names", "importances",
                       "train_target_range", "oob_mse", "trees"}

    for tree in fj["trees"]:
        assert set(tree) == {"f", "t", "l", "r", "p", "n"}
        assert len({len(column) for column in tree.values()}) == 1
        for f, t, left, right, p, n in zip(*(tree[k] for k in "ftlrpn")):
            if left == -1:  # a leaf: split fields hold their fillers
                assert (f, t, right) == (-1, 0.0, -1) and n >= 1
            else:  # a split: leaf fields hold their fillers
                assert (p, n) == (0.0, 0) and f >= 0 and left >= 0 and right >= 0

    lj = json.loads(model_to_json(baseline.fit_linear(data)))
    assert lj["kind"] == "linear"
    assert set(lj) == {"kind", "feature_names", "intercept", "coefficients"}


def test_file_save_load(tmp_path):
    data = _training_data(seed=2, n=30, p=3)
    model = forest.fit(data, forest.ForestConfig(n_trees=3, seed=1))
    path = tmp_path / "model.json"
    save_model(model, path)
    clone = load_model(path)
    probe = _probe_rows(5, 3)
    assert np.array_equal(
        forest.predict_batch(model, probe), forest.predict_batch(clone, probe)
    )


@pytest.mark.parametrize(
    "content",
    [
        "not json at all {",
        "[1, 2, 3]\n",
        '{"kind": "boosted"}\n',
        '{"no_kind": true}\n',
        '{"kind": "linear", "intercept": 1.0}\n',  # missing keys
        '{"kind": "forest", "trees": []}\n',
    ],
)
def test_malformed_content_raises_data_error(content):
    with pytest.raises(DataError):
        model_from_json(content)


def test_unserialisable_type_is_a_type_error():
    with pytest.raises(TypeError):
        model_to_json(object())


@pytest.fixture
def default_recursion_limit():
    """Run a test at the interpreter's default recursion limit."""
    saved = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield 1000
    sys.setrecursionlimit(saved)


def _depth(tree):
    """Edges on the longest root-to-leaf path; children follow parents in preorder."""
    depth = np.zeros(len(tree.left), dtype=np.int64)
    for node in np.flatnonzero(tree.left != -1):
        depth[tree.left[node]] = depth[tree.right[node]] = depth[node] + 1
    return int(depth.max())


def test_a_fitted_chain_928_levels_deep_survives_the_round_trip(default_recursion_limit):
    # each target is half the next, so every best split peels off one row
    n = 1200
    X = np.arange(float(n)).reshape(n, 1)
    y = 9.0 * 0.5 ** (n - 1 - np.arange(float(n)))
    model = forest.fit(
        make_dataset(X, y),
        forest.ForestConfig(n_trees=1, min_leaf=1, seed=0, bootstrap=False),
    )
    assert sys.getrecursionlimit() == default_recursion_limit
    assert _depth(model.trees[0]) == 928
    content = model_to_json(model)
    assert sys.getrecursionlimit() == default_recursion_limit
    clone = model_from_json(content)
    assert sys.getrecursionlimit() == default_recursion_limit
    assert clone.trees == model.trees
    assert model_to_json(clone) == content
    assert np.array_equal(
        forest.predict_batch(model, X), forest.predict_batch(clone, X)
    )


def test_a_built_chain_5000_splits_deep_survives_the_round_trip(default_recursion_limit):
    # split i is node 2i: x <= i + 0.5 goes to the leaf 2i + 1 predicting
    # 9 i / depth, anything larger on to node 2i + 2; the last node predicts
    # 9 (each leaf its own value, all in the range of Kp, [0, 9])
    depth = 5000
    splits = np.arange(depth)
    feature = np.full(2 * depth + 1, -1)
    threshold = np.zeros(2 * depth + 1)
    left = np.full(2 * depth + 1, -1)
    right = np.full(2 * depth + 1, -1)
    value = np.zeros(2 * depth + 1)
    n_samples = np.zeros(2 * depth + 1, dtype=np.int64)
    feature[2 * splits] = 0
    threshold[2 * splits] = splits + 0.5
    left[2 * splits] = 2 * splits + 1
    right[2 * splits] = 2 * splits + 2
    value[2 * splits + 1] = 9.0 * splits / depth
    value[-1] = 9.0
    n_samples[2 * splits + 1] = 1
    n_samples[-1] = 1
    tree = forest.Tree(feature, threshold, left, right, value, n_samples)
    assert _depth(tree) == depth
    model = forest.ForestModel(
        trees=(tree,),
        feature_names=("x0",),
        config=forest.ForestConfig(n_trees=1, min_leaf=1, bootstrap=False),
        importances=np.ones(1),
        train_target_range=(0.0, 9.0),
        oob_mse=None,
    )
    content = model_to_json(model)
    assert sys.getrecursionlimit() == default_recursion_limit
    clone = model_from_json(content)
    assert sys.getrecursionlimit() == default_recursion_limit
    assert clone.trees == (tree,)
    assert model_to_json(clone) == content
    X = np.arange(depth + 1.0).reshape(-1, 1)
    assert np.array_equal(forest.predict_batch(clone, X), 9.0 * np.arange(depth + 1.0) / depth)
    assert sys.getrecursionlimit() == default_recursion_limit


# -- structural validation on load ------------------------------------------------


def _forest_obj():
    data = _training_data(seed=4, n=40, p=4)
    model = forest.fit(data, forest.ForestConfig(n_trees=3, seed=2))
    return json.loads(model_to_json(model))


def _first_split(obj):
    """The first tree whose root (node 0) is a split."""
    for tree in obj["trees"]:
        if tree["l"][0] != -1:
            return tree
    raise AssertionError("no tree has a split")


def _first_leaf(tree):
    """The first leaf of ``tree`` in preorder: the end of the root's left spine."""
    node = 0
    while tree["l"][node] != -1:
        node = tree["l"][node]
    return node


def _load_tampered(obj):
    # json.dumps writes NaN/Infinity tokens, which json.loads accepts
    return model_from_json(json.dumps(obj))


def test_forest_without_trees_is_rejected():
    obj = _forest_obj()
    obj["trees"] = []
    with pytest.raises(DataError, match="0 trees"):
        _load_tampered(obj)


def test_tree_count_must_match_config():
    obj = _forest_obj()
    obj["trees"].pop()
    with pytest.raises(DataError, match="2 trees, its config says 3"):
        _load_tampered(obj)


@pytest.mark.parametrize("feature", [4, 17, -1])
def test_split_feature_out_of_range_is_rejected(feature):
    obj = _forest_obj()
    _first_split(obj)["f"][0] = feature
    with pytest.raises(DataError, match=f"feature {feature}, outside"):
        _load_tampered(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_threshold_is_rejected(value):
    obj = _forest_obj()
    _first_split(obj)["t"][0] = value
    with pytest.raises(DataError, match="non-finite threshold"):
        _load_tampered(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_leaf_value_is_rejected(value):
    obj = _forest_obj()
    tree = _first_split(obj)
    tree["p"][_first_leaf(tree)] = value
    with pytest.raises(DataError, match="non-finite leaf value"):
        _load_tampered(obj)


def test_importances_must_match_feature_count():
    obj = _forest_obj()
    obj["importances"].append(0.0)
    with pytest.raises(DataError, match="5 importances for 4 features"):
        _load_tampered(obj)


@pytest.mark.parametrize("value", [-1e-12, -0.5])
def test_negative_importance_is_rejected(value):
    obj = _forest_obj()
    obj["importances"][0] = value
    with pytest.raises(DataError, match="negative importance"):
        _load_tampered(obj)


@pytest.mark.parametrize("scale", [0.5, 2.0, 1.0 + 1e-8])
def test_importances_must_sum_to_one(scale):
    obj = _forest_obj()
    obj["importances"] = [v * scale for v in obj["importances"]]
    with pytest.raises(DataError, match="importances summing to"):
        _load_tampered(obj)


def test_importances_may_be_all_zero_or_off_by_rounding():
    obj = _forest_obj()
    assert sum(obj["importances"]) > 0.0
    obj["importances"] = [v * (1.0 + 1e-12) for v in obj["importances"]]
    _load_tampered(obj)
    obj["importances"] = [0.0] * len(obj["importances"])
    assert not _load_tampered(obj).importances.any()


def test_load_errors_name_the_file(tmp_path):
    obj = _forest_obj()
    obj["trees"] = []
    path = tmp_path / "tampered.json"
    path.write_text(json.dumps(obj))
    with pytest.raises(DataError, match="tampered.json"):
        load_model(path)


# -- linear models and field types ------------------------------------------------


def _linear_obj():
    return json.loads(model_to_json(baseline.fit_linear(_training_data(seed=5, p=4))))


def test_linear_with_a_nan_coefficient_is_rejected():
    obj = _linear_obj()
    obj["coefficients"][2] = float("nan")
    with pytest.raises(DataError, match="non-finite coefficient"):
        _load_tampered(obj)


def test_linear_with_a_non_finite_intercept_is_rejected():
    obj = _linear_obj()
    obj["intercept"] = float("-inf")
    with pytest.raises(DataError, match="non-finite intercept"):
        _load_tampered(obj)


def test_linear_coefficients_must_match_feature_count():
    obj = _linear_obj()
    obj["coefficients"].append(1.0)
    with pytest.raises(DataError, match="5 coefficients for 4 features"):
        _load_tampered(obj)


@pytest.mark.parametrize("value", ["false", 0, 1, None])
def test_bootstrap_must_be_a_json_boolean(value):
    obj = _forest_obj()
    obj["config"]["bootstrap"] = value
    with pytest.raises(DataError, match="non-boolean bootstrap"):
        _load_tampered(obj)


def _set_split_feature(obj, value):
    _first_split(obj)["f"][0] = value


def _set_leaf_count(obj, value):
    tree = _first_split(obj)
    tree["n"][_first_leaf(tree)] = value


def _set_config(key):
    def tamper(obj, value):
        obj["config"][key] = value
    return tamper


@pytest.mark.parametrize("tamper, what", [
    (_set_split_feature, "split feature"),
    (_set_leaf_count, "leaf count"),
    (_set_config("n_trees"), "n_trees"),
    (_set_config("min_leaf"), "min_leaf"),
    (_set_config("seed"), "seed"),
    (_set_config("mtry"), "mtry"),
], ids=["f", "n", "n_trees", "min_leaf", "seed", "mtry"])
@pytest.mark.parametrize("value", [2.9, 2.0, True, "2"])
def test_integer_fields_must_be_json_integers(tamper, what, value):
    obj = _forest_obj()
    tamper(obj, value)
    with pytest.raises(DataError, match=f"non-integer {what}"):
        _load_tampered(obj)


# -- values are JSON numbers and strings, never coerced ----------------------------


def _set_leaf_value(obj, value):
    tree = _first_split(obj)
    tree["p"][_first_leaf(tree)] = value


def _set_top(key):
    def tamper(obj, value):
        obj[key] = value
    return tamper


def _scale_tree_1_counts(obj, factor):
    obj["trees"][1]["n"] = [factor * count for count in obj["trees"][1]["n"]]


@pytest.mark.parametrize("make, tamper, value, message", [
    (_forest_obj, _set_top("oob_mse"), "nan", "non-numeric oob_mse: 'nan'"),
    (_forest_obj, _set_top("oob_mse"), True, "non-numeric oob_mse: True"),
    (_forest_obj, _set_top("train_target_range"), ["0", "9"],
     "non-numeric train_target_range: '0'"),
    (_forest_obj, _set_top("train_target_range"), [float("nan"), 9.0],
     "non-finite train_target_range: nan"),
    (_forest_obj, _set_top("train_target_range"), [0.0], "train_target_range of 1 values"),
    (_forest_obj, _set_top("train_target_range"), [9.0, -5.0],
     "train_target_range [9.0, -5.0] outside 0 <= lo <= hi <= 9"),
    (_forest_obj, _set_top("train_target_range"), [-0.5, 9.0],
     "train_target_range [-0.5, 9.0] outside 0 <= lo <= hi <= 9"),
    (_forest_obj, _set_top("train_target_range"), [0.0, 9.5],
     "train_target_range [0.0, 9.5] outside 0 <= lo <= hi <= 9"),
    (_forest_obj, _set_top("oob_mse"), -1.0, "negative oob_mse: -1.0"),
    (_forest_obj, _set_top("oob_mse"), 1e300, "oob_mse above 81: 1e+300"),
    (_forest_obj, _set_top("oob_mse"), 81.00000000000001,
     "oob_mse above 81: 81.00000000000001"),
    (_forest_obj, _scale_tree_1_counts, 2, "tree 1 has leaves counting 80 rows, tree 0 40"),
    (_forest_obj, _set_leaf_value, "1.5", "non-numeric leaf value: '1.5'"),
    (_forest_obj, _set_leaf_value, False, "non-numeric leaf value: False"),
    (_forest_obj, _set_top("feature_names"), [1, 2, 3, 4], "non-string feature name: 1"),
    (_linear_obj, _set_top("feature_names"), [1, 2, 3, 4], "non-string feature name: 1"),
    (_linear_obj, _set_top("intercept"), "1.5", "non-numeric intercept: '1.5'"),
], ids=["oob string", "oob boolean", "range strings", "range NaN", "range length",
        "range reversed", "range below 0", "range above 9", "oob negative",
        "oob huge", "oob above 81", "leaf counts doubled",
        "leaf string", "leaf boolean", "forest names", "linear names", "intercept string"])
def test_values_are_not_coerced(make, tamper, value, message):
    obj = make()
    tamper(obj, value)
    with pytest.raises(DataError, match=re.escape(message)):
        _load_tampered(obj)


def test_oob_mse_may_be_null_and_reals_may_be_json_integers():
    obj = _forest_obj()
    obj["oob_mse"] = None
    obj["train_target_range"] = [0, 9]
    model = _load_tampered(obj)
    assert model.oob_mse is None and model.train_target_range == (0.0, 9.0)


# -- the flat tree layout ---------------------------------------------------------


@pytest.mark.parametrize("form", [None, 1, 3, "2", 2.0, True])
def test_forest_files_of_another_format_are_refused(form):
    obj = _forest_obj()
    if form is None:
        del obj["format"]
    else:
        obj["format"] = form
    with pytest.raises(DataError, match=f"forest format {re.escape(repr(form))}, not 2: .* retrained"):
        _load_tampered(obj)


def _set_node(field, node_of):
    def tamper(obj, value):
        tree = _first_split(obj)
        tree[field][node_of(tree)] = value
    return tamper


@pytest.mark.parametrize("tamper, value, message", [
    (_set_node("f", _first_leaf), 1, "leaf without f = r = -1 and t = 0.0"),
    (_set_node("r", _first_leaf), 2, "leaf without f = r = -1 and t = 0.0"),
    (_set_node("t", _first_leaf), 0.5, "leaf without f = r = -1 and t = 0.0"),
    (_set_node("t", _first_leaf), -0.0, "leaf without f = r = -1 and t = 0.0"),
    (_set_node("n", _first_leaf), 0, "leaf with a row count below 1"),
    (_set_node("p", _first_leaf), 1e300, "leaf value outside [0, 9]: 1e+300"),
    (_set_node("p", _first_leaf), 9.000000000000002,
     "leaf value outside [0, 9]: 9.000000000000002"),
    (_set_node("p", _first_leaf), -1e-300, "leaf value outside [0, 9]: -1e-300"),
    (_set_node("p", lambda tree: 0), 1.0, "split without p = 0.0 and n = 0"),
    (_set_node("p", lambda tree: 0), -0.0, "split without p = 0.0 and n = 0"),
    (_set_node("n", lambda tree: 0), 3, "split without p = 0.0 and n = 0"),
], ids=["leaf f", "leaf r", "leaf t", "leaf t -0.0", "leaf n", "leaf p huge", "leaf p above 9",
        "leaf p below 0", "split p", "split p -0.0", "split n"])
def test_leaf_and_split_fillers_are_checked(tamper, value, message):
    obj = _forest_obj()
    tamper(obj, value)
    with pytest.raises(DataError, match=re.escape(message)):
        _load_tampered(obj)


def _set_root_child(side, value_of):
    def tamper(tree):
        tree[side][0] = value_of(tree)
    return tamper


def _add_orphan(tree):
    for key, value in zip("ftlrpn", (-1, 0.0, -1, -1, 1.0, 1)):
        tree[key].append(value)


@pytest.mark.parametrize("tamper, message", [
    (_set_root_child("r", lambda tree: len(tree["l"])), "child index"),
    (_set_root_child("r", lambda tree: -2), "child index -2 outside"),
    (_set_root_child("l", lambda tree: 0), "node 0 is reached where node 1 belongs"),
    (_set_root_child("r", lambda tree: 1), "not a tree in preorder"),
    (_set_root_child("l", lambda tree: tree["r"][0]), "not a tree in preorder"),
    (_add_orphan, "1 nodes its root does not reach"),
    (lambda tree: tree["p"].pop(), "lists of different lengths"),
    (lambda tree: [tree[k].clear() for k in "ftlrpn"], "has no nodes"),
], ids=["past the end", "negative", "cycle", "repeated", "left skips ahead", "orphan",
        "length mismatch", "empty"])
def test_child_indices_must_form_one_tree_in_preorder(tamper, message):
    obj = _forest_obj()
    tamper(_first_split(obj))
    with pytest.raises(DataError, match=re.escape(message)):
        _load_tampered(obj)


def test_json_nested_too_deeply_to_parse_is_a_data_error():
    with pytest.raises(DataError, match="nests JSON too deeply"):
        model_from_json("[" * 100_000 + "]" * 100_000)


# -- fuzzing the model file -------------------------------------------------------


@cache
def _valid_models():
    data = _training_data(seed=6, n=24, p=3)
    return {
        "forest": model_to_json(forest.fit(data, forest.ForestConfig(n_trees=3, seed=1))),
        "forest without bootstrap": model_to_json(forest.fit(
            data, forest.ForestConfig(n_trees=2, mtry=2, seed=2, bootstrap=False))),
        "linear": model_to_json(baseline.fit_linear(data)),
    }


_FORESTS = ["forest", "forest without bootstrap"]
_NULLABLE = {("config", "mtry"), ("oob_mse",)}


def _paths(node, path=()):
    """Every position in a parsed JSON document, as the keys that lead to it."""
    yield path
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield from _paths(child, (*path, key))


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _json_type(value):
    return {bool: "boolean", int: "number", float: "number", str: "string",
            type(None): "null", list: "array", dict: "object"}[type(value)]


def _wrong_type(draw, obj):
    path = draw(st.sampled_from(list(_paths(obj))))
    here = _at(obj, path)
    value = draw(st.sampled_from([
        v for v in ("1", True, None, [], {})
        if _json_type(v) != _json_type(here) and not (v is None and path in _NULLABLE)
    ]))
    if not path:
        return value
    _at(obj, path[:-1])[path[-1]] = value
    return obj


def _missing_key(draw, obj):
    path = draw(st.sampled_from([p for p in _paths(obj) if isinstance(_at(obj, p), dict)]))
    del _at(obj, path)[draw(st.sampled_from(sorted(_at(obj, path))))]
    return obj


def _nan(draw, obj):
    path = draw(st.sampled_from([p for p in _paths(obj) if _json_type(_at(obj, p)) == "number"]))
    _at(obj, path[:-1])[path[-1]] = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    return obj


def _a_split(draw, obj):
    """A tree of ``obj`` and one of its splits."""
    tree, node = draw(st.sampled_from([
        (tree, node) for tree in obj["trees"] for node, left in enumerate(tree["l"]) if left != -1
    ]))
    return tree, node


def _bad_child(draw, obj):
    tree, node = _a_split(draw, obj)
    side = draw(st.sampled_from("lr"))
    n = len(tree["l"])
    tree[side][node] = draw(st.one_of(
        st.integers(max_value=-2),  # out of range
        st.integers(min_value=n),  # out of range
        st.integers(0, node),  # back to this node or an earlier one: a cycle
        st.just(tree["r" if side == "l" else "l"][node]),  # both children the same node
    ))
    return obj


def _orphan(draw, obj):
    _add_orphan(draw(st.sampled_from(obj["trees"])))
    return obj


def _length_mismatch(draw, obj):
    column = draw(st.sampled_from(obj["trees"]))[draw(st.sampled_from("ftlrpn"))]
    if draw(st.booleans()):
        column.pop()
    else:
        column.append(column[-1])
    return obj


_ALL = [*_FORESTS, "linear"]
_MUTATIONS = {  # name: (mutation of the parsed file, the models it applies to)
    "wrong type": (_wrong_type, _ALL),
    "missing key": (_missing_key, _ALL),
    "NaN": (_nan, _ALL),
    "bad child index": (_bad_child, _FORESTS),
    "orphan node": (_orphan, _FORESTS),
    "length mismatch": (_length_mismatch, _FORESTS),
}


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """A scratch directory holding the dataset the valid models were fitted on."""
    root = tmp_path_factory.mktemp("fuzz")
    with open(root / "data.csv", "wb") as handle:
        _training_data(seed=6, n=24, p=3).write_csv(handle)
    return root


def _refused_by_name(root, text):
    """Save ``text`` as a model file; loading it and predicting with it must fail by name."""
    path = root / "mutated.json"
    path.write_text(text)
    with pytest.raises(DataError, match=re.escape(str(path))):
        load_model(path)
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = main(["predict", "--model", str(path), "--data", str(root / "data.csv"),
                     "--out", str(root / "predicted.csv")])
    assert code == 2
    assert err.getvalue().startswith(f"error: {path}: ")
    assert "Traceback" not in err.getvalue()
    assert not (root / "predicted.csv").exists()


@pytest.mark.parametrize("mutation", _MUTATIONS)
@settings(max_examples=40)
@given(data=st.data())
def test_a_mutated_model_file_is_refused_by_name(fuzz_dir, mutation, data):
    mutate, names = _MUTATIONS[mutation]
    obj = json.loads(_valid_models()[data.draw(st.sampled_from(names))])
    _refused_by_name(fuzz_dir, json.dumps(mutate(data.draw, obj)))


@settings(max_examples=40)
@given(data=st.data())
def test_a_truncated_model_file_is_refused_by_name(fuzz_dir, data):
    text = _valid_models()[data.draw(st.sampled_from(_ALL))]
    # dropping only the final newline would leave a whole JSON document
    _refused_by_name(fuzz_dir, text[:data.draw(st.integers(0, len(text) - 2))])


def test_a_model_file_that_is_not_utf8_is_refused_by_name(fuzz_dir):
    path = fuzz_dir / "latin1.json"
    path.write_bytes(_valid_models()["linear"].replace('"x0"', '"x\u00e9"').encode("latin-1"))
    with pytest.raises(DataError, match=re.escape(f"{path}: 'utf-8' codec can't decode")):
        load_model(path)


def _nested(tree, node=0):
    """Node ``node`` of a format-2 tree object as a format-1 nested object."""
    if tree["l"][node] == -1:
        return {"p": tree["p"][node], "n": tree["n"][node]}
    return {"f": tree["f"][node], "t": tree["t"][node],
            "l": _nested(tree, tree["l"][node]), "r": _nested(tree, tree["r"][node])}


def test_a_format_1_forest_file_exits_2_through_predict(fuzz_dir, capsys):
    obj = json.loads(_valid_models()["forest"])
    del obj["format"]
    obj["trees"] = [_nested(tree) for tree in obj["trees"]]
    path = fuzz_dir / "format1.json"
    path.write_text(json.dumps(obj))
    assert main(["predict", "--model", str(path), "--data", str(fuzz_dir / "data.csv"),
                 "--out", str(fuzz_dir / "predicted.csv")]) == 2
    err = capsys.readouterr().err
    assert f"error: {path}: model file has forest format None, not 2" in err
    assert "must be retrained" in err
    assert not (fuzz_dir / "predicted.csv").exists()
