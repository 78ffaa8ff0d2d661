"""Gradient-boosted decision trees (LightGBM-like and XGBoost-like).

One shared engine implements histogram GBDT with leaf-wise tree growth;
the two public learner families expose the hyperparameter surfaces that
the paper's Table 5 searches:

* ``LGBMLike*`` — ``tree_num, leaf_num, min_child_weight, learning_rate,
  subsample, reg_alpha, reg_lambda, max_bin, colsample_bytree``
* ``XGBLike*`` — same minus ``max_bin`` plus ``colsample_bylevel``; uses
  second-order (Newton) boosting like XGBoost.

Training cost is linear in ``tree_num × n_rows`` which is precisely the
cost structure FLAML's ECI estimation relies on (Observation 3).
"""

from __future__ import annotations

import time

import numpy as np

from ..native import active_kernels
from .base import BaseClassifierMixin, BaseEstimator, validate_data
from .histogram import BinnedMatrix, Binner, split_importances
from .losses import Loss, get_loss, sigmoid, softmax
from .tree import FlatEnsemble, GradTreeGrower, Tree

__all__ = [
    "GBDTEngine",
    "LGBMLikeClassifier",
    "LGBMLikeRegressor",
    "XGBLikeClassifier",
    "XGBLikeRegressor",
    "XGBLimitDepthClassifier",
    "XGBLimitDepthRegressor",
]


class GBDTEngine:
    """Reusable boosting loop over :class:`GradTreeGrower` trees."""

    def __init__(
        self,
        loss: Loss,
        n_estimators: int = 100,
        learning_rate: float = 0.1,
        max_leaves: int = 31,
        max_depth: int | None = None,
        min_child_weight: float = 1e-3,
        subsample: float = 1.0,
        reg_alpha: float = 0.0,
        reg_lambda: float = 1.0,
        max_bin: int = 255,
        colsample_bytree: float = 1.0,
        colsample_bylevel: float = 1.0,
        early_stopping_rounds: int | None = None,
        train_time_limit: float | None = None,
        leaf_wise: bool = True,
        seed: int = 0,
    ) -> None:
        self.loss = loss
        self.leaf_wise = bool(leaf_wise)
        self.n_estimators = int(n_estimators)
        self.learning_rate = float(learning_rate)
        self.max_leaves = int(max_leaves)
        self.max_depth = max_depth
        self.min_child_weight = float(min_child_weight)
        self.subsample = float(subsample)
        self.reg_alpha = float(reg_alpha)
        self.reg_lambda = float(reg_lambda)
        self.max_bin = int(max_bin)
        self.colsample_bytree = float(colsample_bytree)
        self.colsample_bylevel = float(colsample_bylevel)
        self.early_stopping_rounds = early_stopping_rounds
        self.train_time_limit = train_time_limit
        self.seed = int(seed)
        self.trees_: list[list[Tree]] = []
        self.binner_: Binner | None = None
        self.base_score_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        X_val: np.ndarray | None = None,
        y_val: np.ndarray | None = None,
        sample_weight: np.ndarray | None = None,
    ) -> "GBDTEngine":
        """Run the boosting loop; optional eval set enables early stopping.

        ``sample_weight`` scales each row's gradient/hessian contribution —
        an integer weight w is exactly equivalent to duplicating the row w
        times (up to row-subsampling randomness).
        """
        start = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        kernels = active_kernels()  # one dispatch per fit, not per tree
        w = (
            None if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        if isinstance(X, BinnedMatrix):
            # shared binned plane: codes were computed once per
            # (row-subset, max_bins) and are bit-identical to what the
            # in-learner fit below would produce
            codes, n_bins, self.binner_ = X.binned(self.max_bin)
        else:
            self.binner_ = Binner(max_bins=self.max_bin, rng=rng)
            codes = self.binner_.fit_transform(X)
            n_bins = self.binner_.n_bins_
        n = X.shape[0]
        K = self.loss.n_scores

        self.base_score_ = self.loss.init_score(y)
        scores = np.tile(self.base_score_, (n, 1)) if K > 1 else np.full(
            n, self.base_score_[0]
        )
        # 2-D views for the flat traversal kernels (same memory: in-place
        # adds through them are the historical per-column adds)
        scores2d = scores if K > 1 else scores.reshape(-1, 1)
        if X_val is not None:
            codes_val = (
                X_val.codes_with(self.binner_)
                if isinstance(X_val, BinnedMatrix)
                else self.binner_.transform(X_val)
            )
            val_scores = (
                np.tile(self.base_score_, (X_val.shape[0], 1))
                if K > 1
                else np.full(X_val.shape[0], self.base_score_[0])
            )
            val2d = val_scores if K > 1 else val_scores.reshape(-1, 1)
            best_val, best_iter = np.inf, 0

        self.trees_ = []
        # when every row is grown (no row subsampling), each row's leaf is
        # known at grow time — read the update off the partition instead
        # of re-walking the finished tree (identical leaves by definition)
        leaf_buf = np.empty(n, dtype=np.int32)
        for it in range(self.n_estimators):
            grad, hess = self.loss.grad_hess(y, scores)
            if w is not None:
                grad = grad * (w[:, None] if grad.ndim == 2 else w)
                hess = hess * (w[:, None] if hess.ndim == 2 else w)
            if self.subsample < 1.0:
                m = max(1, int(round(self.subsample * n)))
                sample_idx = rng.choice(n, size=m, replace=False)
            else:
                sample_idx = None
            round_trees: list[Tree] = []
            for k in range(K):
                g = grad[:, k] if K > 1 else grad
                h = hess[:, k] if K > 1 else hess
                grower = GradTreeGrower(
                    max_leaves=self.max_leaves,
                    max_depth=self.max_depth,
                    min_child_weight=self.min_child_weight,
                    reg_alpha=self.reg_alpha,
                    reg_lambda=self.reg_lambda,
                    leaf_wise=self.leaf_wise,
                    colsample_bytree=self.colsample_bytree,
                    colsample_bylevel=self.colsample_bylevel,
                    rng=rng,
                    kernels=kernels,
                )
                if sample_idx is None:
                    tree = grower.grow(codes, g, h, n_bins, out_leaf=leaf_buf)
                    upd = self.learning_rate * tree.predict_at(leaf_buf)
                    if K > 1:
                        scores[:, k] += upd
                    else:
                        scores += upd
                else:
                    # subsampled rows: the grown partition doesn't cover
                    # every row, so walk the tree — via the flat kernel
                    tree = grower.grow(codes, g, h, n_bins,
                                       sample_idx=sample_idx)
                    FlatEnsemble([tree], [k]).predict_into(
                        codes, self.learning_rate, scores2d, kernels
                    )
                round_trees.append(tree)
            self.trees_.append(round_trees)

            if X_val is not None:
                # score the whole round's trees on the eval set in one
                # flat traversal (tree k only touches column k: per-cell
                # arithmetic is the historical per-tree loop)
                FlatEnsemble(round_trees, list(range(K))).predict_into(
                    codes_val, self.learning_rate, val2d, kernels
                )
                vloss = self.loss.value(y_val, val_scores)
                if vloss < best_val - 1e-12:
                    best_val, best_iter = vloss, it + 1
                elif (
                    self.early_stopping_rounds is not None
                    and it + 1 - best_iter >= self.early_stopping_rounds
                ):
                    self.trees_ = self.trees_[:best_iter]
                    break
            if (
                self.train_time_limit is not None
                and time.perf_counter() - start > self.train_time_limit
            ):
                break
        return self

    # ------------------------------------------------------------------
    def _flat(self) -> FlatEnsemble:
        """Packed traversal arrays of the whole fitted ensemble.

        Built lazily and cached; the cache key notices ``trees_`` being
        rebound or resized (early-stop truncation rebinds the list, and
        :mod:`repro.learners.model_io` assigns a fresh list on load) and
        rebuilds the pack.
        """
        trees = [t for rt in self.trees_ for t in rt]
        key = (id(self.trees_), len(trees), sum(t.n_nodes for t in trees))
        cached = getattr(self, "_flat_cache", None)
        if cached is None or cached[0] != key:
            classes = [k for rt in self.trees_ for k in range(len(rt))]
            self._flat_cache = (key, FlatEnsemble(trees, classes))
        return self._flat_cache[1]

    def raw_predict(self, X: np.ndarray) -> np.ndarray:
        """Raw additive scores before the link function."""
        if self.binner_ is None:
            raise RuntimeError("engine not fitted")
        codes = (
            X.codes_with(self.binner_)
            if isinstance(X, BinnedMatrix)
            else self.binner_.transform(X)
        )
        K = self.loss.n_scores
        n = X.shape[0]
        scores = np.tile(self.base_score_, (n, 1)) if K > 1 else np.full(
            n, self.base_score_[0]
        )
        if self.trees_:
            self._flat().predict_into(
                codes, self.learning_rate,
                scores if K > 1 else scores.reshape(-1, 1),
                active_kernels(),
            )
        return scores


# ----------------------------------------------------------------------
class _GBDTBase(BaseEstimator):
    """Shared fit/predict plumbing for the public GBDT learners."""

    #: the trial path may pass a BinnedMatrix instead of raw floats
    _uses_binned_plane = True

    #: parameters forwarded to :class:`GBDTEngine`
    _engine_keys = (
        "learning_rate",
        "min_child_weight",
        "subsample",
        "reg_alpha",
        "reg_lambda",
        "colsample_bytree",
        "colsample_bylevel",
        "early_stopping_rounds",
        "train_time_limit",
        "seed",
    )
    _is_classifier = False

    def __init__(
        self,
        tree_num: int = 100,
        leaf_num: int = 31,
        learning_rate: float = 0.1,
        min_child_weight: float = 1e-3,
        subsample: float = 1.0,
        reg_alpha: float = 1e-10,
        reg_lambda: float = 1.0,
        max_bin: int = 255,
        colsample_bytree: float = 1.0,
        colsample_bylevel: float = 1.0,
        early_stopping_rounds: int | None = None,
        train_time_limit: float | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(
            tree_num=tree_num,
            leaf_num=leaf_num,
            learning_rate=learning_rate,
            min_child_weight=min_child_weight,
            subsample=subsample,
            reg_alpha=reg_alpha,
            reg_lambda=reg_lambda,
            max_bin=max_bin,
            colsample_bytree=colsample_bytree,
            colsample_bylevel=colsample_bylevel,
            early_stopping_rounds=early_stopping_rounds,
            train_time_limit=train_time_limit,
            seed=seed,
        )

    def _make_engine(self, loss: Loss) -> GBDTEngine:
        kwargs = {k: getattr(self, k) for k in self._engine_keys}
        return GBDTEngine(
            loss,
            n_estimators=max(1, int(round(self.tree_num))),
            max_leaves=max(2, int(round(self.leaf_num))),
            max_bin=max(2, int(round(self.max_bin))),
            **kwargs,
        )

    def warm_inference(self) -> None:
        """Pre-build the packed traversal arrays the predict kernels use
        (otherwise built lazily on the first predict)."""
        engine = getattr(self, "engine_", None)
        if engine is not None and engine.trees_:
            engine._flat()

    def fit(self, X, y, X_val=None, y_val=None, sample_weight=None):
        """Run the boosting loop; optional eval set enables early stopping;
        ``sample_weight`` scales per-row gradient contributions."""
        X, y = validate_data(X, y)
        if self._is_classifier:
            y_enc = self._encode_labels(y)
            task = "binary" if self.n_classes_ == 2 else "multiclass"
            loss = get_loss(task, self.n_classes_)
            if y_val is not None:
                lut = {c: i for i, c in enumerate(self.classes_)}
                y_val = np.asarray([lut[v] for v in np.asarray(y_val)])
            self.engine_ = self._make_engine(loss).fit(
                X, y_enc.astype(np.float64) if task == "binary" else y_enc,
                X_val, y_val, sample_weight=sample_weight,
            )
        else:
            loss = get_loss("regression")
            self.engine_ = self._make_engine(loss).fit(
                X, y.astype(np.float64), X_val, y_val,
                sample_weight=sample_weight,
            )
        return self


class _GBDTBaseWithImportance(_GBDTBase):
    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-count feature importances, one per input column,
        normalised to sum to 1."""
        engine = self.engine_
        return split_importances(
            engine.binner_, [t for rt in engine.trees_ for t in rt]
        )


class _GBDTClassifier(BaseClassifierMixin, _GBDTBaseWithImportance):
    _is_classifier = True

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class-probability matrix of shape (n, K)."""
        X = validate_data(X)
        raw = self.engine_.raw_predict(X)
        if self.n_classes_ == 2:
            p1 = sigmoid(raw)
            return np.column_stack([1 - p1, p1])
        return softmax(raw)


class _GBDTRegressor(_GBDTBaseWithImportance):
    def predict(self, X: np.ndarray) -> np.ndarray:
        """Regression predictions on X."""
        X = validate_data(X)
        return self.engine_.raw_predict(X)


class LGBMLikeClassifier(_GBDTClassifier):
    """LightGBM-style classifier (leaf-wise histogram GBDT)."""


class LGBMLikeRegressor(_GBDTRegressor):
    """LightGBM-style regressor (leaf-wise histogram GBDT)."""


class XGBLikeClassifier(_GBDTClassifier):
    """XGBoost-style classifier (Newton boosting, per-level col sampling)."""


class XGBLikeRegressor(_GBDTRegressor):
    """XGBoost-style regressor (Newton boosting, per-level col sampling)."""


class _LimitDepthMixin:
    """Depth-wise growth with a ``max_depth`` cap (classic XGBoost mode).

    FLAML's open-source release later added an ``xgb_limitdepth``
    estimator alongside the leaf-wise one; the leaf budget is implied by
    the depth (2**max_depth) and growth proceeds level-order instead of
    best-first, which changes the cost/regularisation trade-off the
    search sees.
    """

    def __init__(self, tree_num: int = 100, max_depth: int = 6, **kw) -> None:
        depth = max(1, int(round(max_depth)))
        kw.pop("leaf_num", None)  # derived from depth; tolerate round-trips
        super().__init__(
            tree_num=tree_num, leaf_num=min(2**depth, 4096), **kw
        )
        self._params["max_depth"] = depth
        self.max_depth = depth

    def _make_engine(self, loss: Loss) -> GBDTEngine:
        engine = super()._make_engine(loss)
        engine.max_depth = self.max_depth
        engine.leaf_wise = False
        return engine


class XGBLimitDepthClassifier(_LimitDepthMixin, _GBDTClassifier):
    """Depth-wise XGBoost-style classifier (``max_depth`` instead of
    ``leaf_num``)."""


class XGBLimitDepthRegressor(_LimitDepthMixin, _GBDTRegressor):
    """Depth-wise XGBoost-style regressor (``max_depth`` instead of
    ``leaf_num``)."""
