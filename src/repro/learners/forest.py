"""Random forest and extra-trees learners (classification + regression).

These reproduce the two sklearn ensemble learners FLAML searches
(Table 5: ``tree_num``, ``max_features``, ``split criterion``) and also
provide the *tuned random forest* used by the AutoML benchmark to
calibrate scaled scores (score 1 reference point).

Classification trees split on gini/entropy impurity
(:class:`~repro.learners.tree.ClassTreeGrower`); regression trees reuse the
gradient grower with ``grad = -y, hess = 1`` which makes the regularised
gain reduce to variance reduction and leaf values to the sample mean.
"""

from __future__ import annotations

import time

import numpy as np

from ..native import active_kernels
from .base import BaseClassifierMixin, BaseEstimator, validate_data
from .histogram import BinnedMatrix, Binner, split_importances
from .tree import ClassTreeGrower, FlatEnsemble, GradTreeGrower, Tree

__all__ = [
    "RandomForestClassifier",
    "RandomForestRegressor",
    "ExtraTreesClassifier",
    "ExtraTreesRegressor",
    "tuned_random_forest",
]


class _ForestBase(BaseEstimator):
    """Shared bagging loop."""

    _extra_random = False
    _bootstrap = True
    _is_classifier = False
    #: the trial path may pass a BinnedMatrix instead of raw floats
    _uses_binned_plane = True

    def __init__(
        self,
        tree_num: int = 100,
        max_features: float = 1.0,
        criterion: str = "gini",
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_bin: int = 64,
        train_time_limit: float | None = None,
        seed: int = 0,
    ) -> None:
        super().__init__(
            tree_num=tree_num,
            max_features=max_features,
            criterion=criterion,
            max_depth=max_depth,
            min_samples_leaf=min_samples_leaf,
            max_bin=max_bin,
            train_time_limit=train_time_limit,
            seed=seed,
        )

    def _grow_one(self, codes, y, n_bins, rng, idx, kernels) -> Tree:
        raise NotImplementedError

    def _flat(self) -> FlatEnsemble:
        """Packed traversal arrays of the whole fitted forest (lazily
        built; rebuilt when ``trees_`` is rebound or resized, e.g. by
        :mod:`repro.learners.model_io` on load)."""
        trees = self.trees_
        key = (id(trees), len(trees), sum(t.n_nodes for t in trees))
        cached = getattr(self, "_flat_cache", None)
        if cached is None or cached[0] != key:
            trees[0]._ensure_frozen()
            # class trees carry probability-vector leaves: route the
            # whole row (-1); regression trees add their scalar leaf
            cls = -1 if trees[0]._value.shape[1] > 1 else 0
            self._flat_cache = (
                key, FlatEnsemble(trees, [cls] * len(trees))
            )
        return self._flat_cache[1]

    def warm_inference(self) -> None:
        """Pre-build the packed traversal arrays the predict kernels use
        (otherwise built lazily on the first predict)."""
        if getattr(self, "trees_", None):
            self._flat()

    def fit(self, X, y, X_val=None, y_val=None, sample_weight=None):
        """Fit the bagged ensemble on (X, y); returns self.

        ``sample_weight`` scales each row's contribution to split gains
        and leaf values (weighted impurity for classification, weighted
        squared loss for regression).
        """
        # X_val/y_val accepted for API uniformity with GBDT learners; forests
        # do not use early stopping.
        X, y = validate_data(X, y)
        self._sample_weight = (
            None if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        if self._is_classifier:
            y = self._encode_labels(y)
        start = time.perf_counter()
        rng = np.random.default_rng(self.seed)
        if isinstance(X, BinnedMatrix):
            codes, _, self.binner_ = X.binned(max(2, int(self.max_bin)))
        else:
            self.binner_ = Binner(max_bins=max(2, int(self.max_bin)), rng=rng)
            codes = self.binner_.fit_transform(X)
        n = X.shape[0]
        kernels = active_kernels()  # one dispatch per fit, not per tree
        self.trees_: list[Tree] = []
        for _ in range(max(1, int(round(self.tree_num)))):
            idx = rng.integers(0, n, size=n) if self._bootstrap else None
            self.trees_.append(
                self._grow_one(codes, y, self.binner_.n_bins_, rng, idx,
                               kernels)
            )
            if (
                self.train_time_limit is not None
                and time.perf_counter() - start > self.train_time_limit
                and self.trees_
            ):
                break
        return self


class _ForestImportanceMixin:
    @property
    def feature_importances_(self) -> np.ndarray:
        """Split-count feature importances, one per input column,
        normalised to sum to 1."""
        return split_importances(self.binner_, self.trees_)


class RandomForestClassifier(BaseClassifierMixin, _ForestImportanceMixin,
                             _ForestBase):
    """Bagged gini/entropy trees; ``predict_proba`` averages leaf frequencies."""

    _is_classifier = True

    def _grow_one(self, codes, y, n_bins, rng, idx, kernels):
        grower = ClassTreeGrower(
            n_classes=self.n_classes_,
            criterion=self.criterion,
            max_depth=self.max_depth if self.max_depth is not None else 16,
            min_samples_leaf=self.min_samples_leaf,
            max_features=self.max_features,
            extra_random=self._extra_random,
            rng=rng,
            kernels=kernels,
        )
        return grower.grow(codes, y, n_bins, sample_idx=idx,
                           sample_weight=getattr(self, "_sample_weight", None))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Average of per-tree leaf class frequencies."""
        X = validate_data(X)
        codes = (
            X.codes_with(self.binner_)
            if isinstance(X, BinnedMatrix)
            else self.binner_.transform(X)
        )
        # one flat traversal over all trees; lr=1.0 multiplies each leaf
        # vector by exactly 1.0, so every cell sees the same adds (in the
        # same order) as the historical `acc += tree.predict(codes)` loop
        acc = np.zeros((X.shape[0], self.n_classes_))
        self._flat().predict_into(codes, 1.0, acc)
        acc /= len(self.trees_)
        return acc


class ExtraTreesClassifier(RandomForestClassifier):
    """Extra-trees: random thresholds, no bootstrap."""

    _extra_random = True
    _bootstrap = False


class RandomForestRegressor(_ForestImportanceMixin, _ForestBase):
    """Bagged variance-reduction trees; ``predict`` averages leaf means."""

    def _grow_one(self, codes, y, n_bins, rng, idx, kernels):
        w = getattr(self, "_sample_weight", None)
        if w is None:
            w = np.ones(len(y))
        grower = GradTreeGrower(
            max_leaves=len(y),  # effectively unbounded; depth/min-leaf bound growth
            max_depth=self.max_depth if self.max_depth is not None else 16,
            min_child_weight=0.0,
            reg_lambda=1e-9,
            leaf_wise=False,
            colsample_bylevel=self.max_features,
            extra_random=self._extra_random,
            min_samples_leaf=max(1, self.min_samples_leaf),
            rng=rng,
            kernels=kernels,
        )
        return grower.grow(codes, -y.astype(np.float64) * w, w, n_bins,
                           sample_idx=idx)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Average of per-tree leaf means."""
        X = validate_data(X)
        codes = (
            X.codes_with(self.binner_)
            if isinstance(X, BinnedMatrix)
            else self.binner_.transform(X)
        )
        acc = np.zeros(X.shape[0])
        self._flat().predict_into(codes, 1.0, acc.reshape(-1, 1))
        return acc / len(self.trees_)


class ExtraTreesRegressor(RandomForestRegressor):
    """Extra-trees regression: random thresholds, no bootstrap."""

    _extra_random = True
    _bootstrap = False


def tuned_random_forest(task: str, seed: int = 0, tree_num: int = 200,
                        train_time_limit: float | None = None):
    """The AutoML-benchmark calibration baseline (scaled score = 1).

    The benchmark tunes a random forest with many trees and default depth;
    we use the same recipe scaled to this substrate.  ``max_depth`` is
    bounded to keep single-fit cost sane on 1 core.
    """
    cls = RandomForestRegressor if task == "regression" else RandomForestClassifier
    return cls(
        tree_num=tree_num,
        max_features=0.5,
        criterion="gini",
        max_depth=14,
        min_samples_leaf=2,
        train_time_limit=train_time_limit,
        seed=seed,
    )
