"""One JSON container for every trained model.

The top-level ``kind`` tag selects the flavour (``"forest"`` or
``"linear"``).  Trees serialise as nested objects — internal nodes
``{"f": feature, "t": threshold, "l": ..., "r": ...}``, leaves
``{"p": prediction, "n": count}``.  Reals are written with full
shortest-round-trip precision (up to 17 significant digits), so a loaded
model predicts bit-identically to the saved one.  Loading checks a model's
structure and field types (forests: tree count, JSON-integer split features
in range, a JSON-boolean ``bootstrap``, importances that are non-negative
and sum to 1 or are all zero; linear models: one coefficient per feature;
both: finite reals) and raises ``DataError`` instead of building a
model that would crash or predict NaN.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

from .baseline import LinearModel
from .errors import DataError
from .forest import ForestConfig, ForestModel, Leaf, Split, TreeNode

__all__ = ["model_to_json", "model_from_json", "save_model", "load_model"]


def _tree_to_obj(node: TreeNode) -> dict:
    if isinstance(node, Leaf):
        return {"p": node.prediction, "n": node.n_samples}
    return {
        "f": node.feature,
        "t": node.threshold,
        "l": _tree_to_obj(node.left),
        "r": _tree_to_obj(node.right),
    }


def _integer(value, what: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DataError(f"model file has a non-integer {what}: {value!r}")
    return value


def _finite(value, what: str) -> float:
    number = float(value)
    if not math.isfinite(number):
        raise DataError(f"model file has a non-finite {what}: {number!r}")
    return number


def _tree_from_obj(obj: dict, n_features: int) -> TreeNode:
    if "p" in obj:
        return Leaf(_finite(obj["p"], "leaf value"), _integer(obj["n"], "leaf count"))
    feature = _integer(obj["f"], "split feature")
    if not 0 <= feature < n_features:
        raise DataError(
            f"model file splits on feature {feature}, outside [0, {n_features})"
        )
    return Split(
        feature,
        _finite(obj["t"], "threshold"),
        _tree_from_obj(obj["l"], n_features),
        _tree_from_obj(obj["r"], n_features),
    )


def _forest_from_obj(obj: dict) -> ForestModel:
    """Rebuild a forest, refusing trees that do not fit its features or config."""
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
    feature_names = tuple(obj["feature_names"])
    trees = obj["trees"]
    if len(trees) != config.n_trees:
        raise DataError(
            f"model file has {len(trees)} trees, its config says {config.n_trees}"
        )
    importances = [_finite(v, "importance") for v in obj["importances"]]
    if len(importances) != len(feature_names):
        raise DataError(
            f"model file has {len(importances)} importances for "
            f"{len(feature_names)} features"
        )
    negative = next((v for v in importances if v < 0.0), None)
    if negative is not None:
        raise DataError(f"model file has a negative importance: {negative!r}")
    total = math.fsum(importances)
    if total != 0.0 and abs(total - 1.0) > 1e-9:
        raise DataError(f"model file has importances summing to {total!r}, not 1")
    return ForestModel(
        trees=tuple(_tree_from_obj(t, len(feature_names)) for t in trees),
        feature_names=feature_names,
        config=config,
        importances=importances,
        train_target_range=(
            float(obj["train_target_range"][0]),
            float(obj["train_target_range"][1]),
        ),
        oob_mse=None if obj["oob_mse"] is None else float(obj["oob_mse"]),
    )


def _linear_from_obj(obj: dict) -> LinearModel:
    """Rebuild a linear model, refusing one that would predict NaN or misalign."""
    feature_names = tuple(obj["feature_names"])
    coefficients = [_finite(c, "coefficient") for c in obj["coefficients"]]
    if len(coefficients) != len(feature_names):
        raise DataError(
            f"model file has {len(coefficients)} coefficients for "
            f"{len(feature_names)} features"
        )
    return LinearModel(
        intercept=_finite(obj["intercept"], "intercept"),
        coefficients=coefficients,
        feature_names=feature_names,
    )


def _ensure_recursion_room() -> None:
    if sys.getrecursionlimit() < 22_000:
        sys.setrecursionlimit(22_000)


def model_to_json(model: ForestModel | LinearModel) -> str:
    _ensure_recursion_room()
    if isinstance(model, LinearModel):
        obj = {
            "kind": "linear",
            "feature_names": list(model.feature_names),
            "intercept": model.intercept,
            "coefficients": [float(c) for c in model.coefficients],
        }
    elif isinstance(model, ForestModel):
        cfg = model.config
        obj = {
            "kind": "forest",
            "config": {
                "n_trees": cfg.n_trees,
                "mtry": cfg.mtry,
                "min_leaf": cfg.min_leaf,
                "seed": cfg.seed,
                "bootstrap": cfg.bootstrap,
            },
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
    _ensure_recursion_room()
    try:
        obj = json.loads(content)
    except json.JSONDecodeError as exc:
        raise DataError(f"model file is not valid JSON: {exc}") from None
    kind = obj.get("kind") if isinstance(obj, dict) else None
    try:
        if kind == "linear":
            return _linear_from_obj(obj)
        if kind == "forest":
            return _forest_from_obj(obj)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        raise DataError(f"model file is missing or corrupt: {exc}") from None
    raise DataError(f"unknown model kind: {kind!r}")


def save_model(model: ForestModel | LinearModel, path: str | Path) -> None:
    Path(path).write_text(model_to_json(model), encoding="utf-8")


def load_model(path: str | Path) -> ForestModel | LinearModel:
    try:
        return model_from_json(Path(path).read_text(encoding="utf-8"))
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None
