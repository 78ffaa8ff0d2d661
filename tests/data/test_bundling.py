"""Exclusive feature bundling: conflict-free merge, transparent unbundle.

A one-hot block is the canonical bundle: its columns are mutually
exclusive by construction, so merging them into one coded feature is
lossless.  The contract tested here:

* ``find_bundles`` packs exclusive sparse columns and *never* bundles
  columns that conflict on even one row;
* ``BundleLayout.apply`` is invertible — every original (column, code)
  is recoverable from the bundled code via the member intervals;
* ``split_sources`` translates any bundled-feature threshold back to
  original-column code ranges that select exactly the same rows;
* the plane engages bundling end-to-end on one-hot-shaped data and
  trial evaluation still works.
"""

import numpy as np
import pytest

from repro.data import (
    OneHotEncoder,
    make_classification,
    make_regression,
    plane_for,
)
from repro.data.binned import BinnedDataset
from repro.data.bundling import (
    MAX_BUNDLE_CODES,
    BundleLayout,
    BundledBinner,
    find_bundles,
)
from repro.data.dataset import Dataset
from repro.learners.histogram import Binner


def _onehot_codes(n: int, k: int, seed: int = 0):
    """Codes of a k-wide one-hot block plus one dense column in front.

    One-hot column j is "hot" (code 2) on rows where category == j,
    default (code 1) elsewhere; the dense column uses codes 1..9.
    """
    rng = np.random.default_rng(seed)
    cat = rng.integers(0, k, size=n)
    codes = np.ones((n, k + 1), dtype=np.uint8)
    codes[:, 0] = rng.integers(1, 10, size=n)
    for j in range(k):
        codes[cat == j, j + 1] = 2
    n_bins = np.array([10] + [3] * k)
    defaults = np.array([0] + [1] * k)  # dense col default never dominant
    return codes, n_bins, defaults, cat


class TestFindBundles:
    def test_onehot_block_is_bundled(self):
        codes, n_bins, defaults, _ = _onehot_codes(500, 6)
        bundles = find_bundles(codes, n_bins, defaults)
        assert bundles == [[1, 2, 3, 4, 5, 6]]  # the dense col stays out

    def test_single_row_conflict_rejected(self):
        codes, n_bins, defaults, cat = _onehot_codes(500, 4)
        # corrupt exclusivity: one row hot in two columns
        r = int(np.flatnonzero(cat == 0)[0])
        codes[r, 2] = 2
        bundles = find_bundles(codes, n_bins, defaults)
        for b in bundles:
            assert not (1 in b and 2 in b)

    def test_dense_columns_never_bundle(self):
        rng = np.random.default_rng(1)
        codes = rng.integers(1, 5, size=(400, 5)).astype(np.uint8)
        n_bins = np.full(5, 6)
        defaults = np.array([np.bincount(codes[:, j]).argmax()
                             for j in range(5)])
        assert find_bundles(codes, n_bins, defaults) == []

    def test_respects_code_budget(self):
        codes, n_bins, defaults, _ = _onehot_codes(600, 3)
        n_bins = np.array([10, MAX_BUNDLE_CODES - 1, 3, 3])
        bundles = find_bundles(codes, n_bins, defaults)
        for b in bundles:
            assert sum(int(n_bins[j]) for j in b) <= MAX_BUNDLE_CODES

    def test_deterministic(self):
        codes, n_bins, defaults, _ = _onehot_codes(500, 8, seed=5)
        assert (find_bundles(codes, n_bins, defaults)
                == find_bundles(codes.copy(), n_bins, defaults))


class TestBundleLayout:
    def _layout(self, k=6, n=400, seed=0):
        # k >= 6 keeps every one-hot column's active fraction safely
        # below 1 - MIN_DEFAULT_FRAC, so the whole block is a candidate
        codes, n_bins, defaults, cat = _onehot_codes(n, k, seed)
        bundles = find_bundles(codes, n_bins, defaults)
        assert bundles
        return BundleLayout(n_bins, defaults, bundles), codes, cat

    def test_geometry(self):
        layout, codes, _ = self._layout(k=6)
        assert layout.d_in == 7 and layout.d_out == 2
        assert layout.singles == [0]
        assert layout.source_of(0) == [0]
        assert sorted(layout.source_of(1)) == [1, 2, 3, 4, 5, 6]
        # member intervals tile [1, n_bins) disjointly
        ivs = sorted(layout.member_interval(1, j)
                     for j in layout.source_of(1))
        assert ivs[0][0] == 1
        for (alo, ahi), (blo, bhi) in zip(ivs, ivs[1:]):
            assert ahi == blo
        assert ivs[-1][1] == int(layout.n_bins_[1])

    def test_apply_is_invertible(self):
        layout, codes, _ = self._layout(k=6)
        out = layout.apply(codes)
        members = layout.source_of(1)
        for row in range(codes.shape[0]):
            c = int(out[row, 1])
            if c == 0:  # every member at its default
                for j in members:
                    assert codes[row, j] == layout.defaults[j]
                continue
            owners = [j for j in members
                      if layout.member_interval(1, j)[0] <= c
                      < layout.member_interval(1, j)[1]]
            assert len(owners) == 1
            j = owners[0]
            lo, _ = layout.member_interval(1, j)
            assert codes[row, j] == c - lo  # interval start == offset
            for other in members:
                if other != j:
                    assert codes[row, other] == layout.defaults[other]

    def test_split_sources_select_same_rows(self):
        """code <= t on the bundled feature == union of the translated
        per-member intervals (with non-members at default)."""
        layout, codes, _ = self._layout(k=6, n=600, seed=2)
        out = layout.apply(codes)
        members = layout.source_of(1)
        for t in range(int(layout.n_bins_[1])):
            left = out[:, 1] <= t
            rebuilt = np.zeros(codes.shape[0], dtype=bool)
            # code 0 rows (all-default) always travel left
            alldef = np.ones(codes.shape[0], dtype=bool)
            for j in members:
                alldef &= codes[:, j] == layout.defaults[j]
            rebuilt |= alldef
            for j, lo, hi in layout.split_sources(1, t):
                sel = (codes[:, j] >= lo) & (codes[:, j] < hi) \
                    & (codes[:, j] != layout.defaults[j])
                rebuilt |= sel
            np.testing.assert_array_equal(left, rebuilt)

    def test_split_sources_single_feature_passthrough(self):
        layout, _, _ = self._layout()
        assert layout.split_sources(0, 3) == [(0, 0, 4)]

    def test_uint16_when_bundle_exceeds_uint8(self):
        n_bins = np.array([200, 200])
        defaults = np.array([1, 1])
        layout = BundleLayout(n_bins, defaults, [[0, 1]])
        assert int(layout.n_bins_[0]) == 401
        codes = np.ones((10, 2), dtype=np.uint8)
        codes[3, 1] = 150
        out = layout.apply(codes)
        assert out.dtype == np.uint16
        assert int(out[3, 0]) == 201 + 150  # offset of member 1 is 201

    def test_unbundle_counts(self):
        layout, _, _ = self._layout(k=6)
        per = np.array([6.0, 9.0])
        back = layout.unbundle_counts(per)
        assert back[0] == 6.0
        assert np.allclose(back[1:], 1.5)  # 9 split over 6 members
        assert np.isclose(back.sum(), per.sum())

    def test_rejects_overlapping_bundles(self):
        with pytest.raises(ValueError):
            BundleLayout(np.array([3, 3, 3]), np.array([1, 1, 1]),
                         [[0, 1], [1, 2]])


class TestBundledBinner:
    def test_transform_matches_layout_apply(self):
        rng = np.random.default_rng(0)
        cat = rng.integers(0, 8, size=500)
        X = np.column_stack(
            [rng.standard_normal(500)]
            + [(cat == j).astype(float) for j in range(8)]
        )
        inner = Binner(max_bins=255).fit(X)
        raw = inner.transform(X)
        defaults = np.array([np.bincount(raw[:, j]).argmax()
                             for j in range(9)])
        bundles = find_bundles(raw, inner.n_bins_, defaults)
        assert bundles
        layout = BundleLayout(inner.n_bins_, defaults, bundles)
        bb = BundledBinner(inner, layout)
        assert bb.transform(X).tobytes() == layout.apply(raw).tobytes()
        np.testing.assert_array_equal(bb.n_bins_, layout.n_bins_)
        assert len(bb.bin_edges_) == layout.d_out
        assert bb.total_bins == int(layout.n_bins_.max())


class TestOneHotOutputBlocks:
    def test_blocks_locate_the_encoded_columns(self):
        rng = np.random.default_rng(0)
        X = np.column_stack([
            rng.standard_normal(200),
            rng.integers(0, 3, size=200).astype(float),
            rng.standard_normal(200),
            rng.integers(0, 5, size=200).astype(float),
        ])
        enc = OneHotEncoder(columns=(1, 3))
        out = enc.fit_transform(X)
        blocks = enc.output_blocks(X.shape[1])
        assert [b[0] for b in blocks] == [1, 3]
        assert blocks[0][1] == 2  # after the two passthrough columns
        assert blocks[-1][2] == out.shape[1]
        for j, start, stop in blocks:
            width = stop - start
            assert width == enc.categories_[j].size
            # each block row is one-hot over the encoded column
            assert (out[:, start:stop].sum(axis=1) == 1.0).all()

    def test_blocks_require_fit(self):
        with pytest.raises(RuntimeError):
            OneHotEncoder(columns=(0,)).output_blocks(3)


class TestPlaneIntegration:
    def _onehot_dataset(self, n=3000, k=8, seed=0):
        base = make_classification(n, 3, class_sep=1.2, seed=seed,
                                   name="efb").shuffled(seed)
        enc = OneHotEncoder(columns=(2,))
        rng = np.random.default_rng(seed + 1)
        X = base.X.copy()
        X[:, 2] = rng.integers(0, k, size=n)
        Xt = enc.fit_transform(X)
        return Dataset("efb", Xt, base.y, base.task)

    def test_plane_bundles_onehot_block(self, monkeypatch):
        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = self._onehot_dataset()
        plane = plane_for(data)
        assert plane.sketch
        st = plane.sketch_state()
        assert st["bundles"], "one-hot block must produce a bundle"
        binner = plane.global_binner(255)
        assert isinstance(binner, BundledBinner)
        d_out = len(binner.n_bins_)
        assert d_out < data.d  # columns actually merged
        codes, n_bins, _ = plane.binned_for(
            np.arange(data.n), ("all",), 255)
        assert codes.shape == (data.n, d_out)
        assert plane.stats()["bundles"] == len(st["bundles"])

    def test_bundled_codes_match_direct_transform(self, monkeypatch):
        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = self._onehot_dataset(seed=3)
        plane = plane_for(data)
        binner = plane.global_binner(64)
        rows = np.arange(0, data.n, 3)
        via_plane = binner.codes_from_base(plane._base_codes_rows(rows))
        via_float = binner.transform(data.X[rows])
        assert via_plane.tobytes() == via_float.tobytes()

    def test_dense_data_has_no_bundles(self, monkeypatch):
        """No exclusive columns, no bundles: the sketch grid serves a
        plain binner with one column per feature at every width."""
        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = make_regression(2000, 6)
        plane = plane_for(data)
        assert plane.sketch_state()["bundles"] == []
        for max_bins in (255, 64):
            binner = plane.global_binner(max_bins)
            assert not isinstance(binner, BundledBinner)
            assert len(binner.n_bins_) == 6

    def test_trial_runs_on_bundled_plane(self, monkeypatch):
        from repro.exec import SerialExecutor, TrialSpec
        from repro.learners import LGBMLikeClassifier
        from repro.metrics import get_metric

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = self._onehot_dataset(seed=5)
        plane = plane_for(data)
        assert plane.sketch_state()["bundles"]
        spec = TrialSpec(
            learner="lgbm", estimator_cls=LGBMLikeClassifier,
            config={"tree_num": 4, "leaf_num": 6}, sample_size=2000,
            resampling="holdout", metric=get_metric("accuracy"), seed=0,
            labels=np.unique(data.y),
        )
        out = SerialExecutor(data).submit(spec).result()
        assert out.failure is None
        assert np.isfinite(out.error) and 0.0 <= out.error <= 1.0
