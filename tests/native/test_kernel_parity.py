"""Differential fuzz: compiled kernels vs the numpy reference, bitwise.

Every exported kernel (``build_hists``, ``best_split_scan``, the
oblivious level scorer) must return **bit-for-bit** the same floats as
:mod:`repro.native.fallback` — not ``allclose``, the identical IEEE
doubles — across hypothesis-generated workloads including empty nodes,
single-bin features, all-rows-one-leaf, and extreme float magnitudes
(overflow-to-inf sums included; comparisons go through the raw uint64
bit patterns, so even NaN-producing inf−inf cancellations must agree).

Whole-grower parity rides on top: a GradTree / oblivious-tree grown
with the native kernels equals the fallback-grown tree node for node,
and the one-call C ``grow_tree`` returns the reference loop's node
arrays and leaf assignment bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native_pkg
from repro.native import fallback, native_available, set_native_enabled
from repro.native.fallback import soft_threshold

pytestmark = [
    pytest.mark.skipif(
        not native_available(),
        reason="native kernels unavailable (no C compiler on this box)",
    ),
    # extreme-magnitude cases overflow/divide by design on the numpy
    # reference path; the point is that the C kernel matches bit for bit
    pytest.mark.filterwarnings("ignore::RuntimeWarning"),
]


def native():
    kernels = native_pkg._load_native()
    assert kernels is not None and kernels.is_native
    return kernels


def assert_bits_equal(a: np.ndarray, b: np.ndarray) -> None:
    """Bitwise array equality (NaN payloads included)."""
    assert a.shape == b.shape and a.dtype == b.dtype == np.float64
    assert np.array_equal(a.view(np.uint64), b.view(np.uint64))


def assert_result_equal(ra, rb) -> None:
    """(gain, j, t) equality with the gain compared at bit level."""
    assert ra[1:] == rb[1:], (ra, rb)
    assert np.float64(ra[0]).tobytes() == np.float64(rb[0]).tobytes(), (ra, rb)


# ----------------------------------------------------------------------
@st.composite
def node_cases(draw):
    """One tree node: codes, per-feature bin counts, idx subset, grads."""
    seed = draw(st.integers(0, 2**32 - 1))
    n = draw(st.integers(1, 120))
    d = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    scale = draw(st.sampled_from([1.0, 1e-3, 1e18, 1e300, 1e-300]))
    subset = draw(st.sampled_from(["empty", "all", "some"]))
    rng = np.random.default_rng(seed)
    # include single-bin features (n_bins == 1: only the missing bin)
    n_bins = rng.integers(1, 24, size=d)
    if draw(st.booleans()):
        n_bins[rng.integers(0, d)] = 1
    codes = np.empty((n, d), dtype=dtype)
    for j in range(d):
        codes[:, j] = rng.integers(0, n_bins[j], size=n)
    g = rng.standard_normal(n) * scale
    h = rng.standard_normal(n) * scale
    if draw(st.booleans()):
        h = np.abs(h) + 1e-3  # the realistic regime: positive hessians
    if subset == "empty":
        idx = np.empty(0, dtype=np.int64)
    elif subset == "all":
        idx = np.arange(n)  # all-rows-one-leaf
    else:
        idx = np.sort(rng.choice(n, rng.integers(1, n + 1), replace=False))
    if draw(st.booleans()) or d == 1:
        features = np.arange(d)
        all_features = True
    else:
        features = np.sort(
            rng.choice(d, rng.integers(1, d + 1), replace=False)
        )
        all_features = features.size == d
    return codes, n_bins.astype(np.int64), idx, g, h, features, all_features


SCAN_PARAMS = st.tuples(
    st.sampled_from([0.0, 1e-10, 0.1, 2.0]),      # reg_alpha
    st.sampled_from([0.0, 1.0, 3.0]),             # reg_lambda
    st.sampled_from([0.0, 1e-3, 2.0]),            # min_child_weight
    st.sampled_from([1, 2, 5]),                   # min_samples_leaf
)


class TestBuildHistsParity:
    @settings(max_examples=80, deadline=None)
    @given(case=node_cases(), need_cnt=st.booleans())
    def test_fuzz(self, case, need_cnt):
        codes, n_bins, idx, g, h, features, all_features = case
        nbmax = int(n_bins[features].max())
        a = fallback.build_hists(codes, g[idx], h[idx], idx, features,
                                 n_bins, nbmax, need_cnt,
                                 all_features=all_features)
        b = native().build_hists(codes, g[idx], h[idx], idx, features,
                                 n_bins, nbmax, need_cnt,
                                 all_features=all_features)
        assert_bits_equal(a, b)

    def test_large_node_branch(self):
        """Cross the fallback's 200k flat-bincount threshold: the numpy
        per-feature branch and the C loop must still agree bitwise."""
        rng = np.random.default_rng(0)
        n, d = 30_000, 7
        n_bins = np.full(d, 32, dtype=np.int64)
        codes = rng.integers(0, 32, (n, d)).astype(np.uint8)
        g = rng.standard_normal(n) * 1e6
        h = np.abs(rng.standard_normal(n))
        idx = np.arange(n)
        feats = np.arange(d)
        assert idx.size * d > 200_000
        a = fallback.build_hists(codes, g, h, idx, feats, n_bins, 32,
                                 True, all_features=True)
        b = native().build_hists(codes, g, h, idx, feats, n_bins, 32,
                                 True, all_features=True)
        assert_bits_equal(a, b)

    def test_overflowing_sums(self):
        """Sums that overflow to inf (and inf − inf = NaN downstream)
        must produce identical bit patterns."""
        n, d = 64, 2
        n_bins = np.array([3, 3], dtype=np.int64)
        codes = np.tile(np.array([[1, 2]], dtype=np.uint8), (n, 1))
        g = np.full(n, 1e308)
        g[::2] = -1e308
        h = np.full(n, 1e308)
        idx = np.arange(n)
        feats = np.arange(d)
        a = fallback.build_hists(codes, g, h, idx, feats, n_bins, 3,
                                 False, all_features=True)
        b = native().build_hists(codes, g, h, idx, feats, n_bins, 3,
                                 False, all_features=True)
        assert_bits_equal(a, b)


class TestBestSplitScanParity:
    @settings(max_examples=80, deadline=None)
    @given(case=node_cases(), params=SCAN_PARAMS)
    def test_fuzz(self, case, params):
        codes, n_bins, idx, g, h, features, all_features = case
        alpha, lam, mcw, msl = params
        nbf = n_bins[features]
        nbmax = int(nbf.max())
        if nbmax < 2:
            return  # growers never scan single-bin-only nodes
        gi, hi = g[idx], h[idx]
        G, H = float(gi.sum()), float(hi.sum())
        parent = soft_threshold(G, alpha) ** 2 / (H + lam)
        hists = fallback.build_hists(codes, gi, hi, idx, features, n_bins,
                                     nbmax, msl > 1,
                                     all_features=all_features)
        ra = fallback.best_split_scan(hists, nbf, idx.size, G, H, parent,
                                      mcw, alpha, lam, msl)
        rb = native().best_split_scan(hists, nbf, idx.size, G, H, parent,
                                      mcw, alpha, lam, msl)
        assert_result_equal(ra, rb)

    def test_nan_gain_cells_follow_numpy_argmax(self):
        """inf totals make inf − inf = NaN gains; numpy's argmax picks
        the FIRST NaN and the C scan must do the same."""
        n_bins = np.array([5, 5], dtype=np.int64)
        codes = np.repeat(
            np.array([[1, 1], [2, 2], [3, 3], [4, 4]], dtype=np.uint8),
            8, axis=0,
        )
        n = codes.shape[0]
        g = np.full(n, 1e308)
        h = np.full(n, 1.0)
        idx = np.arange(n)
        feats = np.arange(2)
        G, H = float(g.sum()), float(h.sum())
        parent = soft_threshold(G, 0.0) ** 2 / (H + 1.0)
        hists = fallback.build_hists(codes, g, h, idx, feats, n_bins, 5,
                                     False, all_features=True)
        ra = fallback.best_split_scan(hists, n_bins, n, G, H, parent,
                                      0.0, 0.0, 1.0, 1)
        rb = native().best_split_scan(hists, n_bins, n, G, H, parent,
                                      0.0, 0.0, 1.0, 1)
        assert_result_equal(ra, rb)

    def test_no_valid_split(self):
        """min_child_weight beyond every hessian sum: both sides must
        report 'no split'."""
        rng = np.random.default_rng(3)
        n_bins = np.array([8], dtype=np.int64)
        codes = rng.integers(0, 8, (40, 1)).astype(np.uint8)
        g = rng.standard_normal(40)
        h = np.full(40, 1e-6)
        idx = np.arange(40)
        feats = np.arange(1)
        G, H = float(g.sum()), float(h.sum())
        parent = soft_threshold(G, 0.0) ** 2 / (H + 1.0)
        hists = fallback.build_hists(codes, g, h, idx, feats, n_bins, 8,
                                     False, all_features=True)
        ra = fallback.best_split_scan(hists, n_bins, 40, G, H, parent,
                                      1e9, 0.0, 1.0, 1)
        rb = native().best_split_scan(hists, n_bins, 40, G, H, parent,
                                      1e9, 0.0, 1.0, 1)
        assert ra == rb == (0.0, -1, -1)


class TestObliviousScorerParity:
    @settings(max_examples=50, deadline=None)
    @given(case=node_cases(), depth=st.integers(1, 4),
           lam=st.sampled_from([0.0, 1.0, 3.0]),
           mcw=st.sampled_from([0.0, 1e-3, 1.0]))
    def test_level_by_level(self, case, depth, lam, mcw):
        codes, n_bins, _idx, g, h, features, _all = case
        cand = features
        if int(n_bins[cand].max()) < 2:
            return  # the grower returns a root-only tree before scoring
        sa = fallback.ObliviousLevelScorer(codes, cand, n_bins, g, h,
                                           mcw, lam)
        sb = native().ObliviousLevelScorer(codes, cand, n_bins, g, h,
                                           mcw, lam)
        node = np.zeros(codes.shape[0], dtype=np.int64)
        for lvl in range(depth):
            ra = sa.score_level(node, lvl)
            rb = sb.score_level(node, lvl)
            assert_result_equal(ra, rb)
            if ra[1] < 0:
                break
            f = int(cand[ra[1]])
            node |= (codes[:, f] > ra[2]).astype(np.int64) << lvl


@st.composite
def tree_cases(draw):
    """One whole-tree growth: codes, gradients, row sample, features and
    the grower parameters of the native ``grow_tree`` path."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 300))
    d = draw(st.integers(1, 6))
    dtype = draw(st.sampled_from([np.uint8, np.uint16]))
    n_bins = rng.integers(1, 40 if dtype == np.uint8 else 400, size=d)
    codes = np.empty((n, d), dtype=dtype)
    for j in range(d):
        codes[:, j] = rng.integers(0, n_bins[j], size=n)
    kind = draw(st.sampled_from(["normal", "integer", "huge", "nonfinite"]))
    if kind == "integer":  # small integer sums: exact gain ties
        g = rng.integers(-2, 3, size=n).astype(np.float64)
        h = np.ones(n)
    else:
        g = rng.standard_normal(n)
        h = np.abs(rng.standard_normal(n)) + 1e-3
    if kind == "huge":  # |G| > 1e50: scalar pow differs from x*x
        g *= 10.0 ** rng.uniform(50, 150)
    elif kind == "nonfinite":
        for bad in (np.nan, np.inf, -np.inf):
            if draw(st.booleans()):
                g[rng.integers(0, n, size=rng.integers(1, 4))] = bad
    rows = draw(st.sampled_from(["all", "unsorted", "bootstrap"]))
    if rows == "all":
        idx0 = np.arange(n)
    elif rows == "unsorted":
        idx0 = rng.choice(n, size=rng.integers(1, n + 1), replace=False)
    else:
        idx0 = rng.integers(0, n, size=n)
    features = np.arange(d)
    if draw(st.booleans()):  # colsample_bytree < 1
        features = np.sort(rng.choice(d, size=rng.integers(1, d + 1),
                                      replace=False))
    msl = draw(st.sampled_from([1, 1, 3]))
    leaf_wise = draw(st.booleans())
    nbmax = int(n_bins[features].max())
    one_hist = (3 if msl > 1 else 2) * features.size * nbmax * 8
    params = dict(
        max_leaves=draw(st.integers(2, 40)),
        max_depth=None if leaf_wise and draw(st.booleans())
        else draw(st.integers(0, 6)),
        min_child_weight=draw(st.sampled_from([0.0, 1e-3, 1.0])),
        reg_alpha=draw(st.sampled_from([0.0, 0.5])),
        reg_lambda=draw(st.sampled_from([0.0, 1.0])),
        min_gain=draw(st.sampled_from([0.0, 0.01])),
        leaf_wise=leaf_wise,
        colsample_bylevel=1.0,
        extra_random=False,
        min_samples_leaf=msl,
        hist_subtraction=draw(st.booleans()),
        hist_cache_bytes=draw(st.sampled_from([32 << 20, 0, one_hist])),
    )
    return (codes, g, h, n_bins.astype(np.int64), idx0, features,
            draw(st.booleans()), params)


class TestWholeGrowerParity:
    @settings(max_examples=300, deadline=None)
    @given(case=tree_cases())
    def test_grow_tree_fuzz(self, case):
        """The one-call C tree equals the reference node loop bit for
        bit: all five node arrays and every row's leaf (or both raise
        the plain-float leaf value's ZeroDivisionError when
        ``reg_lambda = 0`` meets an empty hessian sum).  ``out_leaf``
        covers every row, sampled or not: each entry is the leaf the
        grown tree's own walk reaches."""
        from repro.learners.tree import Tree

        codes, g, h, n_bins, idx0, features, with_leaf, params = case
        out = {}
        for name, kernels in (("numpy", fallback), ("native", native())):
            leaf = np.full(codes.shape[0], -7, dtype=np.int32)
            try:
                arrays = kernels.grow_tree(
                    codes, g, h, n_bins, idx0, features,
                    rng=np.random.default_rng(0),
                    out_leaf=leaf if with_leaf else None, **params,
                )
            except ZeroDivisionError:
                out[name] = "ZeroDivisionError"
            else:
                out[name] = (*arrays, leaf)
                if with_leaf:
                    walked = Tree.from_arrays(*arrays).predict_leaf(codes)
                    np.testing.assert_array_equal(leaf, walked)
        if isinstance(out["numpy"], str) or isinstance(out["native"], str):
            assert out["numpy"] == out["native"]
            return
        for a, b in zip(out["numpy"], out["native"]):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    def _grow_both(self, codes, g, h, n_bins, **params):
        kw = dict(max_depth=None, min_child_weight=0.0, reg_alpha=0.0,
                  min_gain=0.0, leaf_wise=True, colsample_bylevel=1.0,
                  extra_random=False, min_samples_leaf=1,
                  hist_subtraction=True, hist_cache_bytes=32 << 20)
        kw.update(params)
        idx0 = np.arange(codes.shape[0])
        features = np.arange(codes.shape[1])
        return [
            kernels.grow_tree(codes, g, h, n_bins, idx0, features,
                              rng=np.random.default_rng(0), **kw)
            for kernels in (fallback, native())
        ]

    def test_parent_score_is_scalar_pow(self):
        """The reference's per-node parent score is ``np.float64 ** 2``
        (libm pow), the scan's cells are the array square x*x.  Where
        pow rounds below x*x, a split that moves no row scores a gain
        of half an ulp of G**2 instead of 0 and is taken: a chain of
        empty splits the C loop must grow too."""
        rng = np.random.default_rng(0)
        for x in rng.uniform(1e60, 1e61, 100_000):
            if float(np.float64(x) ** 2) < x * x:
                break
        else:
            pytest.skip("libm pow squares exactly on this platform")
        codes = np.ones((2, 1), dtype=np.uint8)  # thresholds 0, 1
        n_bins = np.array([3], dtype=np.int64)
        g = np.array([x, 0.0])
        h = np.array([0.25, 0.25])  # H + lambda = 1: exact division
        ref, nat = self._grow_both(codes, g, h, n_bins, max_leaves=4,
                                   reg_lambda=0.5)
        assert ref[0].size == 7  # three empty splits, not a lone root
        for a, b in zip(ref, nat):
            assert a.tobytes() == b.tobytes()

    def test_equal_gains_pop_in_heapq_order(self):
        """Gradients odd-symmetric around the root split: each node has
        a mirror node whose gain is exactly equal, so which one splits
        first (and so every node id) is heapq's counter-broken tuple
        order."""
        r = np.arange(256)
        bits = (r[:, None] >> np.arange(4)) & 1
        codes = (bits + 1).astype(np.uint8)
        g = 7.5 - bits @ np.array([8.0, 4.0, 2.0, 1.0])
        h = np.ones(r.size)
        n_bins = np.full(4, 3, dtype=np.int64)
        ref, nat = self._grow_both(codes, g, h, n_bins, max_leaves=12,
                                   reg_lambda=1.0, min_child_weight=1e-3)
        for a, b in zip(ref, nat):
            assert a.tobytes() == b.tobytes()

    def _tree_arrays(self, tree):
        return (tree._feature, tree._threshold, tree._left, tree._right,
                tree._value)

    @pytest.mark.parametrize("kw", [
        {},
        {"leaf_wise": False, "max_depth": 4},
        {"min_samples_leaf": 4},
        {"colsample_bytree": 0.6},
        {"colsample_bylevel": 0.6},
        {"extra_random": True, "min_samples_leaf": 2},
        {"reg_alpha": 0.3, "reg_lambda": 0.0},
        {"hist_subtraction": False},
    ])
    def test_grad_tree_identical(self, kw):
        from repro.learners.tree import GradTreeGrower

        rng = np.random.default_rng(9)
        n, d = 400, 5
        X_bins = np.full(d, 17, dtype=np.int64)
        codes = rng.integers(0, 17, (n, d)).astype(np.uint8)
        g = rng.standard_normal(n)
        h = np.abs(rng.standard_normal(n)) + 0.1
        trees = {}
        for name, kernels in (("numpy", fallback), ("native", native())):
            grower = GradTreeGrower(
                max_leaves=16, rng=np.random.default_rng(0),
                kernels=kernels, **kw,
            )
            trees[name] = grower.grow(codes, g, h, X_bins)
        for a, b in zip(self._tree_arrays(trees["numpy"]),
                        self._tree_arrays(trees["native"])):
            np.testing.assert_array_equal(a, b)

    def test_catboost_engine_identical(self, binary_split):
        from repro.learners import CatBoostLikeClassifier

        Xtr, ytr, Xte, _ = binary_split
        probas = {}
        for on in (False, True):
            prev = set_native_enabled(on)
            try:
                m = CatBoostLikeClassifier(
                    n_estimators=12, early_stop_rounds=12, seed=0
                ).fit(Xtr, ytr)
                probas[on] = m.predict_proba(Xte)
            finally:
                set_native_enabled(prev)
        assert np.array_equal(probas[False], probas[True])

    def test_wide_code_dtypes_route_to_fallback(self):
        """int32/int64 codes and non-C-contiguous layouts are legal on
        the public grower APIs; the C kernels cannot stride them, so the
        native wrappers must hand those inputs to the numpy reference
        instead of misreading the buffer (regression: silent wrong trees
        / OOB histogram writes) or raising (regression: ``ndarray is not
        C-contiguous`` from Fortran-ordered or column-strided codes)."""
        from repro.learners.tree import GradTreeGrower

        rng = np.random.default_rng(2)
        n, d = 200, 4
        n_bins = np.full(d, 11, dtype=np.int64)
        base = rng.integers(0, 11, (n, d))
        g = rng.standard_normal(n)
        h = np.abs(rng.standard_normal(n)) + 0.1
        ref = GradTreeGrower(max_leaves=8, kernels=fallback,
                             rng=np.random.default_rng(0)).grow(
            base.astype(np.uint8), g, h, n_bins)
        layouts = [base.astype(dtype)
                   for dtype in (np.int32, np.int64, np.uint32)]
        layouts.append(np.asfortranarray(base.astype(np.uint8)))
        layouts.append(np.repeat(base.astype(np.uint8), 2, axis=1)[:, ::2])
        for codes in layouts:
            tree = GradTreeGrower(max_leaves=8, kernels=native(),
                                  rng=np.random.default_rng(0)).grow(
                codes, g, h, n_bins)
            np.testing.assert_array_equal(tree._value, ref._value)
            np.testing.assert_array_equal(tree._feature, ref._feature)
        # oblivious scorer factory: same routing
        scorer = native().ObliviousLevelScorer(
            base.astype(np.int64), np.arange(d), n_bins, g, h, 1e-3, 1.0)
        assert isinstance(scorer, fallback.ObliviousLevelScorer)

    def test_gbdt_engine_identical(self, regression_split):
        from repro.learners import LGBMLikeRegressor

        Xtr, ytr, Xte, _ = regression_split
        preds = {}
        for on in (False, True):
            prev = set_native_enabled(on)
            try:
                m = LGBMLikeRegressor(
                    tree_num=10, leaf_num=12, subsample=0.8, seed=0
                ).fit(Xtr, ytr)
                preds[on] = m.predict(Xte)
            finally:
                set_native_enabled(prev)
        assert np.array_equal(preds[False], preds[True])
