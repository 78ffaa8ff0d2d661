"""Fold-independence proof for the dataset-level sketch grid.

The entire codes-over-shm design rests on one claim: once the grid is
fit at dataset level, the codes of any row subset are a pure *slice* of
the full code matrix — no per-fold refit ever disagrees.  These tests
state that claim as byte-identity across every splitter the search
uses (holdout, k-fold, rolling-origin temporal) and across every way
of producing the codes (float transform of the subset, gather of the
full matrix, the plane's ``binned_for`` path).

If any of these breaks, shipping one pre-binned matrix to workers and
slicing it per fold silently changes trial errors — so they must be
*byte*-identical, not allclose.
"""

import numpy as np
import pytest

from repro.core.resampling import TemporalSplitter
from repro.data import make_classification, plane_for
from repro.data.binned import BinnedDataset
from repro.data.dataset import holdout_indices, kfold_indices


@pytest.fixture()
def sketch_plane(monkeypatch):
    """A plane forced onto the sketch path at test-friendly n."""
    monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
    data = make_classification(3000, 6, class_sep=1.1, seed=0,
                               name="foldind").shuffled(0)
    # fresh plane (the class-attr patch must be visible at build time)
    data.__dict__.pop("_binned_plane", None)
    plane = plane_for(data)
    assert plane.sketch and not plane.exact
    return data, plane


def _full_and_binner(plane, max_bins):
    binner = plane.global_binner(max_bins)
    full = binner.codes_from_base(
        plane._base_codes_rows(np.arange(plane.data.n))
    )
    return binner, full


@pytest.mark.parametrize("max_bins", [255, 64, 8])
class TestSliceEqualsSubsetTransform:
    def test_holdout(self, sketch_plane, max_bins):
        data, plane = sketch_plane
        binner, full = _full_and_binner(plane, max_bins)
        tr, va = holdout_indices(data.n, 0.1, y=data.y,
                                 rng=np.random.default_rng(0))
        for rows in (tr, va, tr[:500]):  # incl. a sample-size prefix
            sliced = full[rows]
            direct = binner.transform(data.X[rows])
            assert sliced.dtype == direct.dtype
            assert sliced.tobytes() == direct.tobytes()

    def test_kfold(self, sketch_plane, max_bins):
        data, plane = sketch_plane
        binner, full = _full_and_binner(plane, max_bins)
        folds = kfold_indices(data.n, 5, y=data.y,
                              rng=np.random.default_rng(3))
        for tr, va in folds:
            assert full[tr].tobytes() == binner.transform(data.X[tr]).tobytes()
            assert full[va].tobytes() == binner.transform(data.X[va]).tobytes()

    def test_temporal(self, sketch_plane, max_bins):
        data, plane = sketch_plane
        binner, full = _full_and_binner(plane, max_bins)
        for tr, va in TemporalSplitter(n_splits=4, horizon=50).split(data.n):
            assert full[tr].tobytes() == binner.transform(data.X[tr]).tobytes()
            assert full[va].tobytes() == binner.transform(data.X[va]).tobytes()


class TestPlanePathsAgree:
    """The plane's own serving paths (cached gather, prefix buffer) must
    produce the same bytes as a direct subset transform."""

    def test_binned_for_equals_subset_transform(self, sketch_plane):
        data, plane = sketch_plane
        tr, _ = plane.holdout_split(0.1, 0)
        s = 800
        key = ("ho-tr", 0.1, 0, s)
        codes, n_bins, binner = plane.binned_for(tr[:s], key, 255)
        direct = binner.transform(data.X[tr[:s]])
        assert codes.tobytes() == direct.tobytes()
        np.testing.assert_array_equal(n_bins, binner.n_bins_)

    def test_growing_prefixes_are_nested(self, sketch_plane):
        """The schedule's s, 2s, 4s requests serve views of one buffer:
        a smaller prefix is literally the head of a larger one."""
        data, plane = sketch_plane
        tr, _ = plane.holdout_split(0.1, 0)
        small, _, _ = plane.binned_for(
            tr[:300], ("ho-tr", 0.1, 0, 300), 64)
        big, _, _ = plane.binned_for(
            tr[:1200], ("ho-tr", 0.1, 0, 1200), 64)
        assert big[:300].tobytes() == small.tobytes()

    def test_validation_transform_matches_slice(self, sketch_plane):
        data, plane = sketch_plane
        tr, va = plane.holdout_split(0.1, 0)
        _, _, binner = plane.binned_for(
            tr[:500], ("ho-tr", 0.1, 0, 500), 255)
        served = plane.transform_with(binner, va, ("ho-va", 0.1, 0))
        _, full = _full_and_binner(plane, 255)
        assert served.tobytes() == full[va].tobytes()

    def test_grid_is_process_independent(self, sketch_plane):
        """A second plane over a byte-copy of the data (what a worker
        fitting from scratch would see) derives the identical grid."""
        data, plane = sketch_plane
        from repro.data.dataset import Dataset

        clone = Dataset(data.name, data.X.copy(), data.y.copy(), data.task,
                        data.categorical)
        other = plane_for(clone)
        assert other.sketch
        a = plane.global_binner(64)
        b = other.global_binner(64)
        rows = np.arange(0, data.n, 7)
        ca = a.codes_from_base(plane._base_codes_rows(rows))
        cb = b.codes_from_base(other._base_codes_rows(rows))
        assert ca.tobytes() == cb.tobytes()


def _base_rows_binned() -> int:
    from repro.data import binned

    return binned._m_base_rows.value


class TestKeptBaseCodes:
    """Each row is binned onto the base grid once per plane: the full
    base-code matrix is kept and every later consumer gathers from it."""

    def test_sketch_of_every_row_is_the_kept_matrix(self, sketch_plane):
        data, plane = sketch_plane
        st = plane.sketch_state()  # n <= SKETCH_SIZE: the sketch is every row
        kept = st["base_codes"]
        assert kept is not None and not kept.flags.writeable
        assert kept.tobytes() == st["base"].transform(data.X).tobytes()
        stats = plane.stats()
        assert stats["base_codes_bytes"] == data.n * data.d
        assert not stats["adopted_codes"]  # kept in the parent, not shipped
        before = _base_rows_binned()
        out = np.empty_like(kept)
        plane.fill_base_codes(out)  # the shm export copies, bins nothing
        plane.binned_for(np.arange(data.n), ("all", data.n), 64)
        assert _base_rows_binned() == before
        assert out.tobytes() == kept.tobytes()

    def test_bundles_found_on_every_row_need_no_verification(self,
                                                             monkeypatch):
        from repro.data.dataset import Dataset
        from repro.data.preprocessing import OneHotEncoder

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        rng = np.random.default_rng(0)
        X = np.column_stack([rng.standard_normal((3000, 3)),
                             rng.integers(0, 8, size=3000)])
        X = OneHotEncoder(columns=(3,)).fit_transform(X)
        data = Dataset("kept-efb", X, X[:, 0], "regression")
        plane = plane_for(data)
        st = plane.sketch_state()
        assert st["bundles"]
        # the full-column check the sketch of every row skips keeps all
        assert plane._verify_bundles(st["bundles"], st["base"],
                                     st["defaults"]) == st["bundles"]

    def test_above_sketch_size_all_rows_are_binned_once(self, sketch_plane,
                                                        monkeypatch):
        data, _ = sketch_plane
        monkeypatch.setattr(BinnedDataset, "SKETCH_SIZE", 1000)
        plane = BinnedDataset(data)
        assert plane.sketch_state()["base_codes"] is None
        tr, _ = plane.holdout_split(0.1, 0)
        before = _base_rows_binned()
        plane.binned_for(tr[:400], ("ho-tr", 0.1, 0, 400), 64)
        # a prefix request stays lazy: O(s) rows, no full matrix
        assert _base_rows_binned() - before == 400
        assert plane.sketch_state()["base_codes"] is None
        # the first consumer of every row bins each row once and keeps it
        codes, _, binner = plane.binned_for(
            np.arange(data.n), ("all", data.n), 64)
        assert _base_rows_binned() - before == 400 + data.n
        out = np.empty((data.n, data.d), dtype=np.uint8)
        plane.fill_base_codes(out)
        plane.binned_for(tr[:1600], ("ho-tr", 0.1, 0, 1600), 64)
        assert _base_rows_binned() - before == 400 + data.n
        assert codes.tobytes() == binner.transform(data.X).tobytes()
        base = plane.sketch_state()["base"]
        assert out.tobytes() == base.transform(data.X).tobytes()
