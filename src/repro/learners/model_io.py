"""Pickle-free model persistence (LightGBM-style model files).

Production AutoML deployments ship the *model*, not a Python pickle: a
JSON document that any process (or language) can load without importing
arbitrary code.  This module dumps fitted estimators of the ML layer to
plain dict/JSON and reconstructs them exactly:

* GBDT family (``LGBMLike*``, ``XGBLike*``, ``XGBLimitDepth*``) — binner
  edges, base score, learning rate and every tree's arrays;
* forests (``RandomForest*``, ``ExtraTrees*``) — binner + bagged trees;
* CatBoost-like — binner, base score and the oblivious trees' per-level
  (feature, threshold) pairs + leaf tables;
* linear family (``LogisticRegressionL1/L2``, ``RidgeRegressor``,
  ``LassoRegressor``) — coefficients + standardisation statistics;
* ``GaussianNB`` — per-class Gaussians; ``KNeighbors*`` — the
  standardised training set itself;
* ``StackedEnsemble`` — every base model plus the linear meta-learner,
  dumped recursively;
* ``ForecastModel`` — the wrapped regressor (recursively) plus its lag
  featurization config and training tail.

Round-trip contract (tested): ``load_model(dump_model(m))`` predicts
bit-identically to ``m``.
"""

from __future__ import annotations

import numpy as np

from .boosting import (
    GBDTEngine,
    LGBMLikeClassifier,
    LGBMLikeRegressor,
    XGBLikeClassifier,
    XGBLikeRegressor,
    XGBLimitDepthClassifier,
    XGBLimitDepthRegressor,
)
from .catboost_like import (
    CatBoostLikeClassifier,
    CatBoostLikeRegressor,
    ObliviousTree,
    _CatBoostEngine,
)
from .forest import (
    ExtraTreesClassifier,
    ExtraTreesRegressor,
    RandomForestClassifier,
    RandomForestRegressor,
)
from .linear import (
    LassoRegressor,
    LogisticRegressionL1,
    LogisticRegressionL2,
    RidgeRegressor,
)
from .losses import get_loss
from .naive_bayes import GaussianNB
from .neighbors import KNeighborsClassifier, KNeighborsRegressor
from .tree import Tree

__all__ = ["dump_model", "load_model"]

_GBDT_CLASSES = {
    cls.__name__: cls
    for cls in (
        LGBMLikeClassifier, LGBMLikeRegressor,
        XGBLikeClassifier, XGBLikeRegressor,
        XGBLimitDepthClassifier, XGBLimitDepthRegressor,
    )
}
_LINEAR_CLASSES = {
    cls.__name__: cls
    for cls in (LogisticRegressionL1, LogisticRegressionL2,
                RidgeRegressor, LassoRegressor)
}
_KNN_CLASSES = {
    cls.__name__: cls for cls in (KNeighborsClassifier, KNeighborsRegressor)
}
_FOREST_CLASSES = {
    cls.__name__: cls
    for cls in (RandomForestClassifier, RandomForestRegressor,
                ExtraTreesClassifier, ExtraTreesRegressor)
}
_CATBOOST_CLASSES = {
    cls.__name__: cls for cls in (CatBoostLikeClassifier, CatBoostLikeRegressor)
}

_FORMAT_VERSION = 1


def _arr(a) -> list:
    return np.asarray(a).tolist()


def _dump_tree(tree: Tree) -> dict:
    return {
        "feature": [int(f) for f in tree.feature],
        "threshold": [int(t) for t in tree.threshold],
        "left": [int(v) for v in tree.left],
        "right": [int(v) for v in tree.right],
        "value": [_arr(v) for v in tree.value],
        "n_values": tree.n_values,
    }


def _load_tree(obj: dict) -> Tree:
    # Trees serialise from their list storage (the canonical form); the
    # packed FlatEnsemble/FlatOblivious traversal arrays are derived
    # caches keyed on the engine's trees_ list identity, so a loaded
    # model rebuilds them lazily on first predict (or eagerly via
    # warm_inference) from these exact node arrays — bitwise round-trip.
    tree = Tree(n_values=obj["n_values"])
    tree.feature = list(obj["feature"])
    tree.threshold = list(obj["threshold"])
    tree.left = list(obj["left"])
    tree.right = list(obj["right"])
    tree.value = [np.asarray(v, dtype=np.float64) for v in obj["value"]]
    tree.freeze()
    return tree


def _dump_binner(binner) -> dict:
    """The edges a binner maps raw values with.  A plane-grid binner
    (``SketchBinner``/``DerivedBinner``) bins raw values with its own
    edges, so it dumps like a plain ``Binner``; a ``BundledBinner``
    dumps its inner binner plus the bundle layout merging its codes."""
    from ..data.bundling import BundledBinner

    if isinstance(binner, BundledBinner):
        layout = binner.layout
        return {
            **_dump_binner(binner.inner),
            "bundle_defaults": _arr(layout.defaults),
            "bundles": layout.bundles,
        }
    return {
        "max_bins": binner.max_bins,
        "bin_edges": [_arr(e) for e in binner.bin_edges_],
        "n_bins": _arr(binner.n_bins_),
    }


def _load_binner(obj: dict):
    from ..data.bundling import BundledBinner, BundleLayout
    from .histogram import Binner

    binner = Binner(max_bins=obj["max_bins"])
    binner.bin_edges_ = [np.asarray(e, dtype=np.float64) for e in obj["bin_edges"]]
    binner.n_bins_ = np.asarray(obj["n_bins"], dtype=np.int64)
    if "bundles" in obj:
        layout = BundleLayout(binner.n_bins_, obj["bundle_defaults"],
                              obj["bundles"])
        return BundledBinner(binner, layout)
    return binner


def _classes_payload(model) -> dict:
    classes = getattr(model, "classes_", None)
    if classes is None:
        return {}
    return {
        "classes": _arr(classes),
        "classes_dtype": str(np.asarray(classes).dtype),
    }


def _restore_classes(model, obj: dict) -> None:
    if "classes" in obj:
        model.classes_ = np.asarray(obj["classes"], dtype=obj["classes_dtype"])


# ---------------------------------------------------------------- dump --
def dump_model(model) -> dict:
    """Serialise a fitted estimator to a JSON-safe dict."""
    name = type(model).__name__
    if name == "StackedEnsemble":
        # core.ensemble imports the learners layer, so match by name and
        # dump recursively: every base model and the linear meta-learner
        # are themselves model_io-serialisable
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "ensemble",
            "class": name,
            "task": model.task,
            **_classes_payload(model),
            "base_models": [dump_model(m) for m in model.base_models],
            "meta_model": dump_model(model.meta_model),
        }
    if name == "ForecastModel":
        # data.timeseries imports nothing from this layer; match by name
        # (like StackedEnsemble) and dump the wrapped regressor + the
        # featurizer config + the training tail the recursion starts from
        if model.tail_ is None:
            raise TypeError("cannot serialise an unfitted ForecastModel")
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "forecast",
            "class": name,
            "horizon": int(model.horizon),
            "featurizer": model.featurizer.to_dict(),
            "tail": _arr(model.tail_),
            "base": dump_model(model.base),
        }
    if name in _GBDT_CLASSES:
        engine: GBDTEngine = model.engine_
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "gbdt",
            "class": name,
            "params": model.get_params(),
            **_classes_payload(model),
            "engine": {
                "learning_rate": engine.learning_rate,
                "base_score": _arr(engine.base_score_),
                "n_scores": engine.loss.n_scores,
                "binner": _dump_binner(engine.binner_),
                "trees": [
                    [_dump_tree(t) for t in round_trees]
                    for round_trees in engine.trees_
                ],
            },
        }
    if name in _LINEAR_CLASSES:
        state = {
            "coef": _arr(model.coef_),
            "mu": _arr(model._mu),
            "sd": _arr(model._sd),
        }
        if hasattr(model, "_ymu"):  # ridge / lasso center the target
            state["ymu"] = float(model._ymu)
        if hasattr(model, "_K"):  # logistic
            state["K"] = int(model._K)
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "linear",
            "class": name,
            "params": model.get_params(),
            **_classes_payload(model),
            "state": state,
        }
    if name == "GaussianNB":
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "gaussian_nb",
            "class": name,
            "params": model.get_params(),
            **_classes_payload(model),
            "state": {
                "theta": _arr(model._theta),
                "var": _arr(model._var),
                "log_prior": _arr(model._log_prior),
            },
        }
    if name in _KNN_CLASSES:
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "knn",
            "class": name,
            "params": model.get_params(),
            **_classes_payload(model),
            "state": {
                "mu": _arr(model._mu),
                "sd": _arr(model._sd),
                "X": _arr(model._X),
                "y": _arr(model._y),
                "y_dtype": str(np.asarray(model._y).dtype),
            },
        }
    if name in _FOREST_CLASSES:
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "forest",
            "class": name,
            "params": model.get_params(),
            **_classes_payload(model),
            "state": {
                "binner": _dump_binner(model.binner_),
                "trees": [_dump_tree(t) for t in model.trees_],
            },
        }
    if name in _CATBOOST_CLASSES:
        engine = model.engine_
        return {
            "format_version": _FORMAT_VERSION,
            "kind": "catboost",
            "class": name,
            "params": model.get_params(),
            **_classes_payload(model),
            "engine": {
                "learning_rate": engine.learning_rate,
                "base_score": _arr(engine.base_score_),
                "n_scores": engine.loss.n_scores,
                "binner": _dump_binner(engine.binner_),
                "trees": [
                    [
                        {
                            "features": _arr(t.features),
                            "thresholds": _arr(t.thresholds),
                            "leaf_values": _arr(t.leaf_values),
                        }
                        for t in round_trees
                    ]
                    for round_trees in engine.trees_
                ],
            },
        }
    raise TypeError(
        f"{name} does not support pickle-free serialisation; use pickle, "
        "or store the configuration and retrain"
    )


# ---------------------------------------------------------------- load --
def load_model(obj: dict):
    """Reconstruct the estimator serialised by :func:`dump_model`."""
    version = obj.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(f"unsupported model format version {version!r}")
    name = obj["class"]
    kind = obj["kind"]
    if kind == "ensemble":
        from ..core.ensemble import StackedEnsemble

        classes = (np.asarray(obj["classes"], dtype=obj["classes_dtype"])
                   if "classes" in obj else None)
        return StackedEnsemble(
            [load_model(m) for m in obj["base_models"]],
            load_model(obj["meta_model"]),
            obj["task"],
            classes,
        )
    if kind == "forecast":
        from ..data.timeseries import ForecastModel, LagFeaturizer

        model = ForecastModel(
            load_model(obj["base"]),
            LagFeaturizer.from_dict(obj["featurizer"]),
            horizon=int(obj["horizon"]),
        )
        model.tail_ = np.asarray(obj["tail"], dtype=np.float64)
        return model
    if kind == "gbdt":
        cls = _GBDT_CLASSES[name]
        model = cls(**obj["params"])
        _restore_classes(model, obj)
        e = obj["engine"]
        if "classes" in obj:
            task = "binary" if e["n_scores"] == 1 else "multiclass"
            loss = get_loss(task, len(obj["classes"]))
        else:
            loss = get_loss("regression")
        engine = GBDTEngine(loss, learning_rate=e["learning_rate"])
        engine.base_score_ = np.asarray(e["base_score"], dtype=np.float64)
        engine.binner_ = _load_binner(e["binner"])
        engine.trees_ = [
            [_load_tree(t) for t in round_trees] for round_trees in e["trees"]
        ]
        model.engine_ = engine
        return model
    if kind == "linear":
        cls = _LINEAR_CLASSES[name]
        model = cls(**obj["params"])
        st = obj["state"]
        coef = np.asarray(st["coef"], dtype=np.float64)
        model.coef_ = coef
        model._mu = np.asarray(st["mu"], dtype=np.float64)
        model._sd = np.asarray(st["sd"], dtype=np.float64)
        if "ymu" in st:
            model._ymu = st["ymu"]
        if "K" in st:
            model._K = st["K"]
        _restore_classes(model, obj)
        return model
    if kind == "gaussian_nb":
        model = GaussianNB(**obj["params"])
        st = obj["state"]
        model._theta = np.asarray(st["theta"], dtype=np.float64)
        model._var = np.asarray(st["var"], dtype=np.float64)
        model._log_prior = np.asarray(st["log_prior"], dtype=np.float64)
        _restore_classes(model, obj)
        return model
    if kind == "knn":
        cls = _KNN_CLASSES[name]
        model = cls(**obj["params"])
        st = obj["state"]
        model._mu = np.asarray(st["mu"], dtype=np.float64)
        model._sd = np.asarray(st["sd"], dtype=np.float64)
        model._X = np.asarray(st["X"], dtype=np.float64)
        model._sq = (model._X**2).sum(axis=1)
        model._y = np.asarray(st["y"], dtype=st["y_dtype"])
        _restore_classes(model, obj)
        return model
    if kind == "forest":
        cls = _FOREST_CLASSES[name]
        model = cls(**obj["params"])
        st = obj["state"]
        model.binner_ = _load_binner(st["binner"])
        model.trees_ = [_load_tree(t) for t in st["trees"]]
        _restore_classes(model, obj)
        return model
    if kind == "catboost":
        cls = _CATBOOST_CLASSES[name]
        model = cls(**obj["params"])
        _restore_classes(model, obj)
        e = obj["engine"]
        if "classes" in obj:
            task = "binary" if e["n_scores"] == 1 else "multiclass"
            loss = get_loss(task, len(obj["classes"]))
        else:
            loss = get_loss("regression")
        engine = _CatBoostEngine(
            loss, n_estimators=0, learning_rate=e["learning_rate"],
            early_stopping_rounds=1, depth=1, reg_lambda=1.0,
            min_child_weight=0.0, train_time_limit=None, seed=0,
        )
        engine.base_score_ = np.asarray(e["base_score"], dtype=np.float64)
        engine.binner_ = _load_binner(e["binner"])
        engine.trees_ = [
            [
                ObliviousTree(
                    np.asarray(t["features"], dtype=np.int32),
                    np.asarray(t["thresholds"], dtype=np.int64),
                    np.asarray(t["leaf_values"], dtype=np.float64),
                )
                for t in round_trees
            ]
            for round_trees in e["trees"]
        ]
        model.engine_ = engine
        return model
    raise ValueError(f"unknown model kind {kind!r}")
