"""Histogram-based decision trees.

Two growers share the same array-backed :class:`Tree` structure:

* :class:`GradTreeGrower` — regression trees on (gradient, hessian) pairs
  with L1/L2-regularised leaf values and gain, exactly as in
  XGBoost/LightGBM.  Supports *leaf-wise* (best-first, LightGBM style) and
  *depth-wise* growth, per-tree/per-level column subsampling, and an
  *extra-random* mode (random thresholds, for extra-trees).
* :class:`ClassTreeGrower` — classification trees on class labels with
  gini/entropy impurity (for the random-forest / extra-trees learners whose
  ``split criterion`` is a searched hyperparameter in Table 5).

Split finding is vectorised: per (node, feature) histograms are built with
``np.bincount`` and all candidate thresholds are scored at once — or, when
the native kernels are enabled (:mod:`repro.native`), by the compiled
bitwise-identical equivalents, which grow a whole gradient tree in one
call.  A grower binds its kernels object once at construction; per-node
code never re-dispatches.
"""

from __future__ import annotations

import numpy as np

from ..native import active_kernels, fallback
from ..native.fallback import _EPS  # the kernels' gain tie-break epsilon

__all__ = ["Tree", "FlatEnsemble", "GradTreeGrower", "ClassTreeGrower"]

#: cap on histograms parked on pending tree nodes for the
#: sibling-subtraction trick; beyond it children rebuild from scratch
_HIST_CACHE_BYTES = 32 << 20


class Tree:
    """Array-backed binary tree over binned features.

    Navigation rule at an internal node: go left iff
    ``codes[:, feature] <= threshold``.  Leaf payloads are rows of
    ``value`` (scalar for boosting trees, class-probability vector for
    classification trees).
    """

    def __init__(self, n_values: int = 1) -> None:
        self.feature: list[int] = []
        self.threshold: list[int] = []
        self.left: list[int] = []
        self.right: list[int] = []
        self.value: list[np.ndarray] = []
        self.n_values = n_values

    # -- construction ---------------------------------------------------
    @classmethod
    def from_arrays(cls, feature, threshold, left, right, value) -> "Tree":
        """A frozen scalar-payload tree from the node arrays a kernels
        ``grow_tree`` returns (int32 feature/left/right, int64
        threshold, float64 value)."""
        tree = cls()
        tree._feature, tree._threshold = feature, threshold
        tree._left, tree._right = left, right
        tree._value = value.reshape(-1, 1)
        tree.feature = feature.tolist()
        tree.threshold = threshold.tolist()
        tree.left = left.tolist()
        tree.right = right.tolist()
        tree.value = list(tree._value)
        return tree

    def add_node(self, value: np.ndarray) -> int:
        """Append a leaf and return its node id."""
        nid = len(self.feature)
        self.feature.append(-1)
        self.threshold.append(0)
        self.left.append(-1)
        self.right.append(-1)
        self.value.append(np.atleast_1d(np.asarray(value, dtype=np.float64)))
        return nid

    def set_split(self, nid: int, feature: int, threshold: int, left: int, right: int) -> None:
        """Turn leaf ``nid`` into an internal node."""
        self.feature[nid] = feature
        self.threshold[nid] = threshold
        self.left[nid] = left
        self.right[nid] = right

    def freeze(self) -> None:
        """Convert list storage to arrays for fast prediction."""
        self._feature = np.asarray(self.feature, dtype=np.int32)
        self._threshold = np.asarray(self.threshold, dtype=np.int64)
        self._left = np.asarray(self.left, dtype=np.int32)
        self._right = np.asarray(self.right, dtype=np.int32)
        self._value = np.stack(self.value).astype(np.float64)

    def _ensure_frozen(self) -> None:
        """Freeze on first prediction if the growers/loaders haven't.

        Hand-built trees (``add_node``/``set_split`` without ``freeze``)
        used to die with a bare ``AttributeError: '_feature'`` here; an
        empty tree has nothing to predict with, so that stays an error —
        but an actionable one.
        """
        if not hasattr(self, "_feature"):
            if not self.feature:
                raise RuntimeError(
                    "cannot predict with an empty Tree: add at least one "
                    "leaf (add_node) or grow the tree before predicting"
                )
            self.freeze()

    # -- inference ------------------------------------------------------
    @property
    def n_nodes(self) -> int:
        """Total node count (internal + leaves)."""
        return len(self.feature)

    @property
    def n_leaves(self) -> int:
        """Leaf count."""
        return int(sum(1 for f in self.feature if f < 0))

    def predict_leaf(self, codes: np.ndarray) -> np.ndarray:
        """Return the leaf node id reached by each row of ``codes``."""
        self._ensure_frozen()
        return fallback.walk_leaves(codes, self._feature, self._threshold,
                                    self._left, self._right)

    def predict(self, codes: np.ndarray) -> np.ndarray:
        """Return leaf values, shape (n,) if scalar payload else (n, K)."""
        # freeze before the subscript: `self._value[...]` resolves the
        # attribute *before* predict_leaf gets a chance to freeze
        self._ensure_frozen()
        out = self._value[self.predict_leaf(codes)]
        return out[:, 0] if out.shape[1] == 1 else out

    def predict_at(self, leaves: np.ndarray) -> np.ndarray:
        """Leaf values for known leaf ids (``grow(out_leaf=...)``) —
        skips the tree walk of :meth:`predict`."""
        self._ensure_frozen()
        out = self._value[leaves]
        return out[:, 0] if out.shape[1] == 1 else out

    def split_feature_counts(self, n_features: int) -> np.ndarray:
        """How many internal nodes split on each feature (importance proxy)."""
        counts = np.zeros(n_features, dtype=np.float64)
        for f in self.feature:
            if f >= 0:
                counts[f] += 1
        return counts


# ----------------------------------------------------------------------
class FlatEnsemble:
    """Packed node arrays of many frozen trees, for batched traversal.

    All trees' ``feature``/``threshold``/``left``/``right``/``value``
    buffers are concatenated into one contiguous int64/float64 array
    each, with child ids rewritten to be **absolute** indices into the
    pack (leaves keep ``feature < 0``), so the traversal kernels
    (:mod:`repro.native` ``ensemble_predict``) descend every tree for
    every row without per-tree Python dispatch or re-basing.

    ``tree_class[t]`` routes tree ``t``'s leaf values: ``k >= 0`` adds
    ``value[leaf, 0]`` into output column ``k`` (boosting trees, one per
    loss score), ``-1`` adds the whole ``value[leaf]`` row (forest
    class-probability trees).  The accumulate itself — one ``lr *
    value`` product + one add per touched cell, trees in order — is
    bitwise identical to the historical per-tree
    ``out += lr * tree.predict(codes)`` loop.
    """

    __slots__ = ("feature", "threshold", "left", "right", "value",
                 "tree_offset", "tree_class", "n_trees")

    def __init__(self, trees: list, tree_class=None) -> None:
        if not trees:
            raise ValueError("FlatEnsemble needs at least one tree")
        offs = np.zeros(len(trees) + 1, dtype=np.int64)
        for i, t in enumerate(trees):
            t._ensure_frozen()
            offs[i + 1] = offs[i] + t.n_nodes
        feature, threshold, left, right = [], [], [], []
        for off, t in zip(offs, trees):
            f = t._feature.astype(np.int64)
            lc = t._left.astype(np.int64)
            rc = t._right.astype(np.int64)
            internal = f >= 0
            lc[internal] += off
            rc[internal] += off
            feature.append(f)
            threshold.append(t._threshold)
            left.append(lc)
            right.append(rc)
        self.feature = np.concatenate(feature)
        self.threshold = np.ascontiguousarray(
            np.concatenate(threshold), dtype=np.int64
        )
        self.left = np.concatenate(left)
        self.right = np.concatenate(right)
        self.value = np.ascontiguousarray(
            np.concatenate([t._value for t in trees], axis=0)
        )
        self.tree_offset = offs
        self.tree_class = (
            np.zeros(len(trees), dtype=np.int64)
            if tree_class is None
            else np.ascontiguousarray(tree_class, dtype=np.int64)
        )
        self.n_trees = len(trees)

    def predict_into(self, codes: np.ndarray, lr: float, out: np.ndarray,
                     kernels=None) -> np.ndarray:
        """Accumulate ``lr *`` (every tree's prediction) into the
        C-contiguous float64 ``(n, K)`` matrix ``out``, in place."""
        if kernels is None:
            kernels = active_kernels()
        return kernels.ensemble_predict(
            codes, self.feature, self.threshold, self.left, self.right,
            self.value, self.tree_offset, self.tree_class, float(lr), out,
        )


# ----------------------------------------------------------------------
class GradTreeGrower:
    """Grow one regression tree from per-sample gradients/hessians.

    Parameters mirror the GBDT hyperparameters in the paper's Table 5.

    Parameters
    ----------
    max_leaves:
        Leaf budget (``leaf_num``).  Leaf-wise growth stops when reached.
    max_depth:
        Optional depth cap (used by depth-wise growth; None = unlimited).
    min_child_weight:
        Minimum hessian sum per child.
    reg_alpha, reg_lambda:
        L1 / L2 regularisation of leaf values.
    leaf_wise:
        True = best-first growth (LightGBM); False = level-order (XGBoost
        classic / forests).
    colsample_bytree, colsample_bylevel:
        Fractions of features considered per tree / per split.
    extra_random:
        If True, score a single random threshold per feature (extra-trees).
    min_samples_leaf:
        Minimum sample count per child (forests).
    hist_subtraction:
        Derive the larger child's histograms as parent − sibling instead
        of re-counting (LightGBM's trick; on by default).  Gains then
        differ from scratch builds at float-rounding level, which can
        flip the argmax between *exactly tied* candidate splits — set
        False to reproduce scratch-build trees bit-for-bit.
    kernels:
        Histogram/split kernels to use (the compiled-native or numpy
        module from :mod:`repro.native`); resolved once here via
        :func:`~repro.native.active_kernels` when not given, so the
        per-node hot path never re-dispatches.
    """

    def __init__(
        self,
        max_leaves: int = 31,
        max_depth: int | None = None,
        min_child_weight: float = 1e-3,
        reg_alpha: float = 0.0,
        reg_lambda: float = 1.0,
        min_gain: float = 0.0,
        leaf_wise: bool = True,
        colsample_bytree: float = 1.0,
        colsample_bylevel: float = 1.0,
        extra_random: bool = False,
        min_samples_leaf: int = 1,
        hist_subtraction: bool = True,
        rng: np.random.Generator | None = None,
        kernels=None,
    ) -> None:
        if max_leaves < 2:
            raise ValueError(f"max_leaves must be >= 2, got {max_leaves}")
        self.max_leaves = int(max_leaves)
        self.max_depth = max_depth
        self.min_child_weight = float(min_child_weight)
        self.reg_alpha = float(reg_alpha)
        self.reg_lambda = float(reg_lambda)
        self.min_gain = float(min_gain)
        self.leaf_wise = bool(leaf_wise)
        self.colsample_bytree = float(colsample_bytree)
        self.colsample_bylevel = float(colsample_bylevel)
        self.extra_random = bool(extra_random)
        self.min_samples_leaf = int(min_samples_leaf)
        self.hist_subtraction = bool(hist_subtraction)
        self.rng = rng or np.random.default_rng(0)
        self.kernels = kernels if kernels is not None else active_kernels()

    # ------------------------------------------------------------------
    def grow(
        self,
        codes: np.ndarray,
        grad: np.ndarray,
        hess: np.ndarray,
        n_bins: np.ndarray,
        sample_idx: np.ndarray | None = None,
        out_leaf: np.ndarray | None = None,
    ) -> Tree:
        """Grow and return a frozen :class:`Tree`.

        Uses the histogram **sibling-subtraction trick** where valid:
        after a node splits, only the smaller child's histograms are
        rebuilt with ``np.bincount``; the larger child's are derived as
        ``parent − sibling``, halving (or better) the bincount work per
        depth level.  Requires every node to score the same feature set,
        so per-level column sampling (``colsample_bylevel < 1``) and
        extra-random threshold draws fall back to scratch builds; the
        retained parent histograms are capped at
        :data:`_HIST_CACHE_BYTES` and degrade to scratch builds beyond
        it.

        ``out_leaf`` (int32, one entry per ``codes`` row) is filled with
        every row's leaf node id: a row in ``sample_idx`` gets the leaf
        the partition placed it in, any other row the leaf a walk of the
        finished tree reaches — equal to :meth:`Tree.predict_leaf` on
        every row.  Boosting reads its score updates straight off it,
        with or without row subsampling, instead of re-walking the tree.

        The node loop itself is the bound kernels' ``grow_tree``
        (:func:`repro.native.fallback.grow_tree` is the reference).
        """
        n, d = codes.shape
        idx0 = np.arange(n) if sample_idx is None else np.asarray(sample_idx)
        features = np.arange(d)
        if self.colsample_bytree < 1.0:
            k = max(1, int(round(self.colsample_bytree * d)))
            features = np.sort(self.rng.choice(d, size=k, replace=False))
        return Tree.from_arrays(*self.kernels.grow_tree(
            codes, grad, hess, n_bins, idx0, features,
            max_leaves=self.max_leaves, max_depth=self.max_depth,
            min_child_weight=self.min_child_weight,
            reg_alpha=self.reg_alpha, reg_lambda=self.reg_lambda,
            min_gain=self.min_gain, leaf_wise=self.leaf_wise,
            colsample_bylevel=self.colsample_bylevel,
            extra_random=self.extra_random,
            min_samples_leaf=self.min_samples_leaf,
            hist_subtraction=self.hist_subtraction,
            # read at call time: tests shrink the cap to force scratch builds
            hist_cache_bytes=_HIST_CACHE_BYTES,
            rng=self.rng, out_leaf=out_leaf,
        ))


# ----------------------------------------------------------------------
class ClassTreeGrower:
    """Grow one classification tree using gini/entropy impurity.

    Leaf payloads are class-probability vectors; used by the forest
    learners where ``split criterion`` ∈ {gini, entropy} is part of the
    searched space (Table 5).
    """

    def __init__(
        self,
        n_classes: int,
        criterion: str = "gini",
        max_leaves: int | None = None,
        max_depth: int | None = None,
        min_samples_leaf: int = 1,
        max_features: float = 1.0,
        extra_random: bool = False,
        rng: np.random.Generator | None = None,
        kernels=None,
    ) -> None:
        if criterion not in ("gini", "entropy"):
            raise ValueError(f"criterion must be gini|entropy, got {criterion!r}")
        if n_classes < 2:
            raise ValueError(f"n_classes must be >= 2, got {n_classes}")
        self.n_classes = int(n_classes)
        self.criterion = criterion
        self.max_leaves = max_leaves
        self.max_depth = max_depth
        self.min_samples_leaf = int(min_samples_leaf)
        self.max_features = float(max_features)
        self.extra_random = bool(extra_random)
        self.rng = rng or np.random.default_rng(0)
        self.kernels = kernels if kernels is not None else active_kernels()

    def _impurity(self, counts: np.ndarray) -> np.ndarray:
        """Impurity of count vectors along the last axis, times total count.

        Returning ``impurity * n`` (the "weighted" impurity) makes the gain
        computation a simple subtraction.
        """
        tot = counts.sum(axis=-1)
        safe = np.maximum(tot, _EPS)
        p = counts / safe[..., None]
        if self.criterion == "gini":
            np.power(p, 2, out=p)  # in place: p is ours, and p**2 == p·p
            per = 1.0 - p.sum(axis=-1)
        else:
            with np.errstate(divide="ignore", invalid="ignore"):
                logp = np.where(p > 0, np.log2(np.maximum(p, _EPS)), 0.0)
            per = -(p * logp).sum(axis=-1)
        per *= tot
        return per

    def _best_split(self, codes, y, idx, n_bins, w=None):
        d = codes.shape[1]
        all_features = self.max_features >= 1.0
        features = np.arange(d)
        if not all_features:
            k = max(1, int(round(self.max_features * d)))
            features = self.rng.choice(d, size=k, replace=False)
        yk = y[idx].astype(np.int64)
        K = self.n_classes
        w_idx = None if w is None else w[idx]
        total = np.bincount(yk, weights=w_idx, minlength=K).astype(np.float64)
        parent = float(self._impurity(total))
        # joint (class, feature, bin) histogram on the grower's bound
        # kernels — the numpy reference is the old ONE-flat-bincount
        # body moved verbatim into repro.native.fallback, and the C
        # kernel is its bitwise-identical row-major loop
        F = features.size
        nbmax = int(n_bins[features].max())
        if nbmax < 2:
            return 0.0, -1, -1
        joint = self.kernels.build_class_hists(
            codes, yk, idx, w_idx, features, K, nbmax,
            all_features=all_features,
        )
        joint = joint.reshape(K * F, nbmax)
        CL = joint.cumsum(axis=1).reshape(K, F, nbmax)[:, :, :-1]  # (K, F, T)
        CL = np.moveaxis(CL, 0, -1)  # (F, T, K)
        CR = total[None, None, :] - CL
        nl = CL.sum(axis=2)
        nr = idx.size - nl
        valid = (nl >= self.min_samples_leaf) & (nr >= self.min_samples_leaf)
        valid &= np.arange(nbmax - 1) < (n_bins[features] - 1)[:, None]
        if self.extra_random:
            keep = np.zeros_like(valid)
            for j in range(F):
                cand = np.nonzero(valid[j])[0]
                if cand.size:
                    keep[j, int(self.rng.choice(cand))] = True
            valid = keep
        if not valid.any():
            return 0.0, -1, -1
        # same association as parent − imp(CL) − imp(CR), built in place
        gains = self._impurity(CL)
        np.subtract(parent, gains, out=gains)
        gains -= self._impurity(CR)
        gains = np.where(valid, gains, -np.inf)
        k = int(gains.argmax())
        j, t = divmod(k, gains.shape[1])
        best_gain = float(gains[j, t])
        if best_gain <= _EPS:
            return 0.0, -1, -1
        return best_gain, int(features[j]), int(t)

    def _leaf_value(self, y, idx, w=None):
        counts = np.bincount(
            y[idx].astype(np.int64),
            weights=None if w is None else w[idx],
            minlength=self.n_classes,
        ).astype(np.float64)
        total = counts.sum()
        return counts / (total if total > 0 else 1.0)

    def grow(self, codes: np.ndarray, y: np.ndarray, n_bins: np.ndarray,
             sample_idx: np.ndarray | None = None,
             sample_weight: np.ndarray | None = None) -> Tree:
        """Grow and return a frozen Tree.  ``sample_weight`` (aligned with
        ``codes``) scales each row's contribution to impurities and leaf
        frequencies; the ``min_samples_leaf`` guard then applies to
        *weighted* counts."""
        n = codes.shape[0]
        idx0 = np.arange(n) if sample_idx is None else np.asarray(sample_idx)
        w = (
            None if sample_weight is None
            else np.asarray(sample_weight, dtype=np.float64)
        )
        tree = Tree(n_values=self.n_classes)
        root = tree.add_node(self._leaf_value(y, idx0, w))
        max_leaves = self.max_leaves or np.inf
        n_leaves = 1
        stack = [(root, idx0, 0)]
        while stack and n_leaves < max_leaves:
            nid, idx, depth = stack.pop(0)
            if self.max_depth is not None and depth >= self.max_depth:
                continue
            if idx.size < 2 * self.min_samples_leaf:
                continue
            if np.all(y[idx] == y[idx[0]]):
                continue  # pure node
            gain, f, t = self._best_split(codes, y, idx, n_bins, w)
            if f < 0 or gain <= 0:
                continue
            goleft = codes[idx, f] <= t
            li, ri = idx[goleft], idx[~goleft]
            lid = tree.add_node(self._leaf_value(y, li, w))
            rid = tree.add_node(self._leaf_value(y, ri, w))
            tree.set_split(nid, f, t, lid, rid)
            n_leaves += 1
            stack.append((lid, li, depth + 1))
            stack.append((rid, ri, depth + 1))
        tree.freeze()
        return tree
