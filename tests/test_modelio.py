"""Model JSON container: bit-exact round-trips and failure mapping."""

from __future__ import annotations

import json

import numpy as np
import pytest

from kpforecast import baseline, forest
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
    assert fj["kind"] == "forest"
    assert set(fj) == {"kind", "config", "feature_names", "importances",
                       "train_target_range", "oob_mse", "trees"}

    def check(node):
        if "p" in node:
            assert set(node) == {"p", "n"}
        else:
            assert set(node) == {"f", "t", "l", "r"}
            check(node["l"])
            check(node["r"])

    for tree in fj["trees"]:
        check(tree)

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


def test_deep_tree_survives_the_round_trip():
    # a pathological diagonal dataset grows one long chain
    n = 400
    X = np.arange(float(n)).reshape(n, 1)
    y = np.arange(float(n)) / n * 9.0
    data = make_dataset(X, y)
    model = forest.fit(
        data, forest.ForestConfig(n_trees=1, min_leaf=1, seed=0, bootstrap=False)
    )
    clone = model_from_json(model_to_json(model))
    assert np.array_equal(
        forest.predict_batch(model, X), forest.predict_batch(clone, X)
    )


# -- structural validation on load ------------------------------------------------


def _forest_obj():
    data = _training_data(seed=4, n=40, p=4)
    model = forest.fit(data, forest.ForestConfig(n_trees=3, seed=2))
    return json.loads(model_to_json(model))


def _first_split(obj):
    for tree in obj["trees"]:
        if "f" in tree:
            return tree
    raise AssertionError("no tree has a split")


def _first_leaf(node):
    while "p" not in node:
        node = node["l"]
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
    _first_split(obj)["f"] = feature
    with pytest.raises(DataError, match=f"feature {feature}, outside"):
        _load_tampered(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_threshold_is_rejected(value):
    obj = _forest_obj()
    _first_split(obj)["t"] = value
    with pytest.raises(DataError, match="non-finite threshold"):
        _load_tampered(obj)


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_non_finite_leaf_value_is_rejected(value):
    obj = _forest_obj()
    _first_leaf(_first_split(obj))["p"] = value
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
    _first_split(obj)["f"] = value


def _set_leaf_count(obj, value):
    _first_leaf(_first_split(obj))["n"] = value


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
