"""One JSON container for every trained model.

The top-level ``kind`` tag selects the flavour (``"forest"`` or
``"linear"``).  A forest file also carries ``"format": 2`` and stores each
tree as one object of six parallel lists, the arrays of
:class:`~.forest.Tree` with nodes in preorder: ``"f"`` split feature, ``"t"``
threshold, ``"l"`` and ``"r"`` child node indices, ``"p"`` leaf prediction
and ``"n"`` leaf row count.  A leaf is a node whose ``l`` is -1; its ``f``
and ``r`` are -1 too and its ``t`` is 0.0.  A split has ``p`` = 0.0 and
``n`` = 0.  Format-1 forest files, which nested one object per node, are
refused: such a model must be retrained.

Reals are written with full shortest-round-trip precision (up to 17
significant digits), so a loaded model predicts bit-identically to the saved
one and dumps to the same bytes.  Loading checks a model's structure and
field types and raises ``DataError`` instead of building a model that would
crash or predict NaN:

* every real is a finite JSON number, never a string or a boolean
  (``oob_mse`` may also be null); every integer is a JSON integer; every
  feature name is a string;
* forests: the tree count matches the config, ``bootstrap`` is a JSON
  boolean, importances are non-negative and sum to 1 or are all zero, the
  values no fit on Kp targets in [0, 9] can leave are refused (a leaf value
  outside [0, 9], a ``train_target_range`` [lo, hi] without
  0 <= lo <= hi <= 9, an ``oob_mse`` outside [0, 81], trees whose leaves
  count different numbers of rows), and in
  each tree the six lists have one length, every node holds the leaf or
  split fillers above, split features index the feature names, and a walk
  from node 0 down the child indices visits nodes 0, 1, ..., n-1 in that
  order (so every index is in range, there is no cycle and every node is
  reached once, in preorder);
* linear models: one coefficient per feature.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .baseline import LinearModel
from .errors import DataError
from .forest import ForestConfig, ForestModel, Tree

__all__ = ["model_to_json", "model_from_json", "save_model", "load_model"]

FOREST_FORMAT = 2


def _tree_to_obj(tree: Tree) -> dict:
    return {
        "f": tree.feature.tolist(),
        "t": tree.threshold.tolist(),
        "l": tree.left.tolist(),
        "r": tree.right.tolist(),
        "p": tree.value.tolist(),
        "n": tree.n_samples.tolist(),
    }


def _integer(value, what: str) -> int:
    if type(value) is not int:
        raise DataError(f"model file has a non-integer {what}: {value!r}")
    return value


def _real(value, what: str) -> float:
    if type(value) not in (int, float):
        raise DataError(f"model file has a non-numeric {what}: {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise DataError(f"model file has a non-finite {what}: {number!r}")
    return number


def _list(values, what: str) -> list:
    if not isinstance(values, list):
        raise DataError(f"model file has a non-list {what}: {type(values).__name__}")
    return values


def _integers(values, what: str) -> np.ndarray:
    if not set(map(type, _list(values, what))) <= {int}:
        _integer(next(v for v in values if type(v) is not int), what)
    return np.array(values, dtype=np.int64)


def _reals(values, what: str) -> np.ndarray:
    if not set(map(type, _list(values, what))) <= {int, float}:
        _real(next(v for v in values if type(v) not in (int, float)), what)
    array = np.array(values, dtype=np.float64)
    if not np.isfinite(array).all():
        _real(float(array[~np.isfinite(array)][0]), what)
    return array


def _names(values) -> tuple[str, ...]:
    if not set(map(type, _list(values, "feature_names"))) <= {str}:
        wrong = next(v for v in values if type(v) is not str)
        raise DataError(f"model file has a non-string feature name: {wrong!r}")
    return tuple(values)


def _not_plus_zero(values: np.ndarray) -> np.ndarray:
    return (values != 0.0) | np.signbit(values)


def _check_preorder(left: list, right: list, k: int) -> None:
    """Walk tree ``k`` from its root; the walk must meet nodes 0, 1, ... in turn."""
    n = len(left)
    expected = 0
    stack = [0]
    while stack:
        node = stack.pop()
        if not 0 <= node < n:
            raise DataError(f"model file tree {k} has a child index {node} outside [0, {n})")
        if node != expected:
            raise DataError(
                f"model file tree {k} is not a tree in preorder: "
                f"node {node} is reached where node {expected} belongs"
            )
        expected += 1
        if left[node] != -1:
            stack.append(right[node])
            stack.append(left[node])
    if expected != n:
        raise DataError(f"model file tree {k} has {n - expected} nodes its root does not reach")


def _tree_from_obj(obj, n_features: int, k: int) -> Tree:
    if not isinstance(obj, dict):
        raise DataError(f"model file tree {k} is not a JSON object")
    feature = _integers(obj["f"], "split feature")
    threshold = _reals(obj["t"], "threshold")
    left = _integers(obj["l"], "child index")
    right = _integers(obj["r"], "child index")
    value = _reals(obj["p"], "leaf value")
    n_samples = _integers(obj["n"], "leaf count")
    n = feature.size
    if n == 0:
        raise DataError(f"model file tree {k} has no nodes")
    if any(a.size != n for a in (threshold, left, right, value, n_samples)):
        raise DataError(f"model file tree {k} has lists of different lengths")
    leaf = left == -1
    split_features = feature[~leaf]
    outside = split_features[(split_features < 0) | (split_features >= n_features)]
    if outside.size:
        raise DataError(
            f"model file splits on feature {outside[0]}, outside [0, {n_features})"
        )
    if ((feature[leaf] != -1) | (right[leaf] != -1) | _not_plus_zero(threshold[leaf])).any():
        raise DataError(f"model file tree {k} has a leaf without f = r = -1 and t = 0.0")
    if (n_samples[leaf] < 1).any():
        raise DataError(f"model file tree {k} has a leaf with a row count below 1")
    outside = value[leaf & ((value < 0.0) | (value > 9.0))]
    if outside.size:
        raise DataError(
            f"model file tree {k} has a leaf value outside [0, 9]: {float(outside[0])!r}"
        )
    if (_not_plus_zero(value[~leaf]) | (n_samples[~leaf] != 0)).any():
        raise DataError(f"model file tree {k} has a split without p = 0.0 and n = 0")
    _check_preorder(obj["l"], obj["r"], k)
    return Tree(feature, threshold, left, right, value, n_samples)


def _forest_from_obj(obj: dict) -> ForestModel:
    """Rebuild a forest, refusing trees that do not fit its features or config."""
    form = obj.get("format")
    if type(form) is not int or form != FOREST_FORMAT:
        raise DataError(
            f"model file has forest format {form!r}, not {FOREST_FORMAT}: "
            "forests saved by older versions nest their trees and must be retrained"
        )
    cfg = obj["config"]
    if not isinstance(cfg["bootstrap"], bool):
        raise DataError(f"model file has a non-boolean bootstrap: {cfg['bootstrap']!r}")
    config = ForestConfig(
        n_trees=_integer(cfg["n_trees"], "n_trees"),
        mtry=None if cfg["mtry"] is None else _integer(cfg["mtry"], "mtry"),
        min_leaf=_integer(cfg["min_leaf"], "min_leaf"),
        seed=_integer(cfg["seed"], "seed"),
        bootstrap=cfg["bootstrap"],
    )
    feature_names = _names(obj["feature_names"])
    trees = _list(obj["trees"], "trees")
    if len(trees) != config.n_trees:
        raise DataError(
            f"model file has {len(trees)} trees, its config says {config.n_trees}"
        )
    importances = _reals(obj["importances"], "importance")
    if len(importances) != len(feature_names):
        raise DataError(
            f"model file has {len(importances)} importances for "
            f"{len(feature_names)} features"
        )
    if (importances < 0.0).any():
        raise DataError(
            f"model file has a negative importance: {float(importances[importances < 0.0][0])!r}"
        )
    total = math.fsum(importances)
    if total != 0.0 and abs(total - 1.0) > 1e-9:
        raise DataError(f"model file has importances summing to {total!r}, not 1")
    target_range = _reals(obj["train_target_range"], "train_target_range")
    if target_range.size != 2:
        raise DataError(
            f"model file has a train_target_range of {target_range.size} values, not 2"
        )
    lo, hi = float(target_range[0]), float(target_range[1])
    if not 0.0 <= lo <= hi <= 9.0:
        raise DataError(f"model file has a train_target_range {[lo, hi]!r} "
                        "outside 0 <= lo <= hi <= 9")
    oob_mse = None if obj["oob_mse"] is None else _real(obj["oob_mse"], "oob_mse")
    if oob_mse is not None and oob_mse < 0.0:
        raise DataError(f"model file has a negative oob_mse: {oob_mse!r}")
    # an OOB prediction and its target lie in [0, 9], and every rounding step
    # is monotone, so a mean of squared residuals stays at most 81
    if oob_mse is not None and oob_mse > 81.0:
        raise DataError(f"model file has an oob_mse above 81: {oob_mse!r}")
    trees = tuple(_tree_from_obj(t, len(feature_names), k) for k, t in enumerate(trees))
    # each tree's leaves count the rows of its bag, one per training row
    counts = [sum(tree.n_samples.tolist()) for tree in trees]
    for k, count in enumerate(counts):
        if count != counts[0]:
            raise DataError(f"model file tree {k} has leaves counting {count} rows, "
                            f"tree 0 {counts[0]}")
    return ForestModel(
        trees=trees,
        feature_names=feature_names,
        config=config,
        importances=importances,
        train_target_range=(lo, hi),
        oob_mse=oob_mse,
    )


def _linear_from_obj(obj: dict) -> LinearModel:
    """Rebuild a linear model, refusing one that would predict NaN or misalign."""
    feature_names = _names(obj["feature_names"])
    coefficients = _reals(obj["coefficients"], "coefficient")
    if len(coefficients) != len(feature_names):
        raise DataError(
            f"model file has {len(coefficients)} coefficients for "
            f"{len(feature_names)} features"
        )
    return LinearModel(
        intercept=_real(obj["intercept"], "intercept"),
        coefficients=coefficients,
        feature_names=feature_names,
    )


def model_to_json(model: ForestModel | LinearModel) -> str:
    if isinstance(model, LinearModel):
        obj = {
            "kind": "linear",
            "feature_names": list(model.feature_names),
            "intercept": model.intercept,
            "coefficients": [float(c) for c in model.coefficients],
        }
    elif isinstance(model, ForestModel):
        obj = {
            "kind": "forest",
            "format": FOREST_FORMAT,
            "config": asdict(model.config),
            "feature_names": list(model.feature_names),
            "importances": [float(v) for v in model.importances],
            "train_target_range": list(model.train_target_range),
            "oob_mse": model.oob_mse,
            "trees": [_tree_to_obj(t) for t in model.trees],
        }
    else:
        raise TypeError(f"cannot serialise {type(model).__name__}")
    return json.dumps(obj, indent=None, separators=(",", ":")) + "\n"


def model_from_json(content: str) -> ForestModel | LinearModel:
    try:
        obj = json.loads(content)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc}") from None
    except RecursionError:
        raise DataError("model file nests JSON too deeply to parse") from None
    kind = obj.get("kind") if isinstance(obj, dict) else None
    try:
        if kind == "linear":
            return _linear_from_obj(obj)
        if kind == "forest":
            return _forest_from_obj(obj)
    except (KeyError, IndexError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"model file is missing or corrupt: {exc}") from None
    raise DataError(f"unknown model kind: {kind!r}")


def save_model(model: ForestModel | LinearModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> ForestModel | LinearModel:
    try:
        return model_from_json(Path(path).read_text(encoding="utf-8"))
    except (DataError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: {exc}") from None
