"""Differential fuzz of ``bin_codes``: the C kernel against the numpy
reference, code for code.

Codes are integers, so parity needs only the same edges and the same
rule — ``searchsorted(edges_j, x, side="left") + 1`` with NaN keys in
the missing bin 0.  The corners that rule has to survive: NaN, ±inf
and ±0 keys, keys exactly on an edge, NaN edges (numpy sorts them
last), constant columns with no edges, both code dtypes, empty and
one-row blocks, and blocks that are not C-contiguous.  The binner's
wrong-width ``ValueError`` must still come before any binning.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.native as native_pkg
from repro.learners.histogram import Binner, code_dtype
from repro.native import fallback, native_available, set_native_enabled

pytestmark = [
    pytest.mark.skipif(
        not native_available(),
        reason="native kernels unavailable (no C compiler on this box)",
    ),
    pytest.mark.filterwarnings("ignore::RuntimeWarning"),
]

SPECIALS = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, -1.0])


def native():
    kernels = native_pkg._load_native()
    assert kernels is not None and kernels.is_native
    return kernels


def _edges(rng, kind: str, max_edges: int) -> np.ndarray:
    """One column's sorted edges, NaN last as np.unique orders them."""
    if kind == "constant":
        return np.empty(0)
    k = int(rng.integers(1, max_edges + 1))
    pool = np.concatenate((rng.standard_normal(k) * 10.0,
                           rng.choice(SPECIALS[1:], size=3)))
    e = np.unique(pool)[:k]
    if kind == "nan_tail":
        e = np.concatenate((e, [np.nan] * int(rng.integers(1, 3))))
    elif kind == "only_nan":  # the midpoint of a {-inf, +inf} column
        e = np.array([np.nan])
    return e


@st.composite
def bin_cases(draw):
    """A float block, its per-column edges and the code dtype."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.sampled_from([0, 1, 2, 7, 40, 130]))
    d = draw(st.integers(1, 5))
    dtype = np.dtype(draw(st.sampled_from([np.uint8, np.uint16])))
    max_edges = 254 if dtype == np.uint8 else 700
    kinds = [draw(st.sampled_from(["plain", "constant", "nan_tail",
                                   "only_nan"])) for _ in range(d)]
    edges = [_edges(rng, kind, max_edges) for kind in kinds]
    X = rng.standard_normal((n, d)) * 10.0
    for j, e in enumerate(edges):
        # keys exactly on an edge, and the special values
        on_edge = rng.random(n) < 0.3
        if e.size:
            X[on_edge, j] = rng.choice(e, size=int(on_edge.sum()))
        special = rng.random(n) < 0.2
        X[special, j] = rng.choice(SPECIALS, size=int(special.sum()))
    layout = draw(st.sampled_from(["c", "fortran", "rows", "cols"]))
    if layout == "fortran":
        X = np.asfortranarray(X)
    elif layout == "rows":  # every other row of a taller block
        tall = np.repeat(X, 2, axis=0)
        X = tall[::2]
    elif layout == "cols":  # every other column of a wider block
        wide = np.repeat(X, 2, axis=1)
        X = wide[:, ::2]
    return X, edges, dtype


class TestBinCodesParity:
    @settings(max_examples=300, deadline=None)
    @given(case=bin_cases())
    def test_fuzz(self, case):
        X, edges, dtype = case
        ref = fallback.bin_codes(X, edges, dtype)
        got = native().bin_codes(X, edges, dtype)
        assert got.dtype == ref.dtype == dtype
        assert got.shape == ref.shape == X.shape
        assert got.tobytes() == ref.tobytes()

    def test_rule_on_the_corners(self):
        """The reference itself: NaN -> 0, an edge value goes left of its
        edge (side="left"), NaN edges are never below a key, ±0 tie."""
        edges = [np.array([-np.inf, -0.0, 1.0, np.inf, np.nan])]
        X = np.array([[np.nan], [-np.inf], [0.0], [-0.0], [1.0],
                      [1.5], [np.inf]])
        want = np.array([0, 1, 2, 2, 3, 4, 4], dtype=np.uint8)
        for kernels in (fallback, native()):
            got = kernels.bin_codes(X, edges, np.uint8)
            np.testing.assert_array_equal(got[:, 0], want)

    @pytest.mark.parametrize("max_bins", [2, 7, 63, 255, 1000])
    def test_fitted_binner_columns(self, max_bins):
        """Edges a Binner really fits (midpoints, percentiles, NaN
        percentiles of a column holding both infinities) bin alike."""
        rng = np.random.default_rng(max_bins)
        X = rng.standard_normal((3000, 4))
        X[rng.random(3000) < 0.1, 0] = np.nan
        X[:, 1] = np.round(X[:, 1])  # few uniques: midpoint edges
        X[::7, 2] = np.inf
        X[1::7, 2] = -np.inf
        X[:, 3] = 2.5  # constant: no edges
        binner = Binner(max_bins=max_bins).fit(X)
        dtype = code_dtype(int(binner.n_bins_.max()))
        ref = fallback.bin_codes(X, binner.bin_edges_, dtype)
        got = native().bin_codes(X, binner.bin_edges_, dtype)
        assert got.tobytes() == ref.tobytes()


class TestBinnerThroughKernels:
    def _both_modes(self, fn):
        out = {}
        for on in (False, True):
            prev = set_native_enabled(on)
            try:
                out[on] = fn()
            finally:
                set_native_enabled(prev)
        return out

    def test_transform_and_column_identical_in_both_modes(self):
        rng = np.random.default_rng(4)
        X = rng.standard_normal((500, 3))
        X[::11, 1] = np.nan
        binner = Binner(max_bins=31).fit(X)
        codes = self._both_modes(lambda: binner.transform(X))
        cols = self._both_modes(
            lambda: [binner.transform_column(X[:, j], j) for j in range(3)]
        )
        assert codes[True].tobytes() == codes[False].tobytes()
        for on in (False, True):
            for j in range(3):
                assert cols[on][j].tobytes() == codes[on][:, j].tobytes()

    def test_wrong_width_raises_before_binning(self):
        X = np.random.default_rng(0).standard_normal((20, 3))
        binner = Binner(max_bins=8).fit(X)
        messages = self._both_modes(lambda: _raised(binner, X[:, :2]))
        assert messages[False] == messages[True] == (
            "X has 2 features, binner was fit with 3"
        )


def _raised(binner, X):
    with pytest.raises(ValueError) as info:
        binner.transform(X)
    return str(info.value)
