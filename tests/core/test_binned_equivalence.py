"""Golden equivalence of the shared binned-data plane and native kernels.

Bit-for-bit guarantees, for every registered learner x task (incl.
forecast) x resampling under fixed seeds, each proven under **both**
kernel implementations (``REPRO_NATIVE=1`` compiled C and ``=0`` pure
numpy — the golden matrix):

1. the default trial path reproduces ``golden_trial_errors.json`` (the
   ongoing pin, regenerated only on *intended* semantics changes);
2. with the histogram sibling-subtraction trick held off, the plane
   path reproduces ``golden_trial_errors_prerefactor.json`` — errors
   captured on the commit *before* the plane refactor landed and never
   regenerated, proving plane + kernels are pure reuse;
3. plane-on and plane-off agree with each other on every case, always.

No fixture was re-pinned for the native kernels: the same hex floats
must come out with the C extension on and off.

Plus unit coverage of the plane's cache behaviour and the bounded
weakly-keyed ``_accepted_extras`` cache.
"""

import gc
import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.learners.tree as tree_mod
from repro.core import evaluate as evaluate_mod
from repro.core.evaluate import evaluate_config
from repro.data import plane_enabled, plane_for, set_plane_enabled
from repro.data.binned import BinnedDataset
from repro.data.dataset import Dataset
from repro.learners import Binner, LGBMLikeClassifier
from repro.learners.histogram import BinnedMatrix
from repro.metrics import get_metric
from repro.native import native_available, set_native_enabled

from .capture_golden_trials import golden_cases

HERE = Path(__file__).parent
GOLDEN = json.loads((HERE / "golden_trial_errors.json").read_text())
PRE_REFACTOR = json.loads(
    (HERE / "golden_trial_errors_prerefactor.json").read_text()
)


@pytest.fixture
def no_subtraction(monkeypatch):
    """Force scratch histogram builds (the pre-refactor split finder)."""
    monkeypatch.setattr(tree_mod, "_HIST_CACHE_BYTES", 0)


@pytest.fixture(params=["native", "numpy"])
def native_mode(request):
    """Run the depending test once per kernel implementation."""
    native = request.param == "native"
    if native and not native_available():
        pytest.skip("native kernels unavailable (no C compiler)")
    prev = set_native_enabled(native)
    yield request.param
    set_native_enabled(prev)


def run_all(plane: bool) -> dict:
    prev = set_plane_enabled(plane)
    try:
        return {key: float(run().error).hex() for key, run in golden_cases()}
    finally:
        set_plane_enabled(prev)


class TestGoldenEquivalence:
    def test_fixtures_cover_every_learner_task_combination(self):
        from repro.core.registry import all_learners

        keys = set(GOLDEN)
        assert keys == set(PRE_REFACTOR)
        for name, spec in all_learners().items():
            for task in ("binary", "multiclass", "regression"):
                if spec.supports(task):
                    assert f"{name}|{task}|cv" in keys
                    assert f"{name}|{task}|holdout" in keys
            if spec.supports("forecast"):
                assert f"{name}|forecast|temporal" in keys

    def test_default_path_matches_pinned_goldens(self, native_mode):
        assert run_all(plane=True) == GOLDEN

    def test_plane_off_matches_plane_on(self, native_mode):
        assert run_all(plane=False) == run_all(plane=True)

    def test_tracing_does_not_perturb_goldens(self, native_mode):
        """Span tracing must be timing-only: the full golden matrix is
        bit-identical with tracing enabled, plane on and off."""
        from repro.obs.trace import clear_spans, set_tracing

        prev = set_tracing(True)
        try:
            assert run_all(plane=True) == GOLDEN
            assert run_all(plane=False) == GOLDEN
        finally:
            set_tracing(prev)
            clear_spans()

    def test_plane_reproduces_prerefactor_errors_bitwise(
        self, no_subtraction, native_mode
    ):
        """With the (separately documented) sibling-subtraction tie
        reordering held off, the plane path is bit-for-bit identical to
        the pre-refactor code for every learner x task x resampling —
        under either kernel implementation."""
        assert run_all(plane=True) == PRE_REFACTOR

    def test_legacy_path_still_reproduces_prerefactor_errors(
        self, no_subtraction, native_mode
    ):
        assert run_all(plane=False) == PRE_REFACTOR


class TestPlaneCaching:
    def make_data(self, n=240, d=6, seed=3):
        rng = np.random.default_rng(seed)
        X = rng.standard_normal((n, d))
        y = (X[:, 0] - X[:, 1] > 0).astype(np.int64)
        return Dataset("plane-t", X, y, "binary").shuffled(seed)

    def test_codes_match_in_learner_binning_bitwise(self):
        data = self.make_data()
        plane = BinnedDataset(data)
        rows = np.arange(100)
        codes, n_bins, binner = plane.binned_for(rows, ("rows", 100), 64)
        ref = Binner(max_bins=64).fit_transform(data.X[rows])
        np.testing.assert_array_equal(codes, ref)
        assert not codes.flags.writeable

    def test_split_and_code_reuse_across_trials(self):
        data = self.make_data()
        metric = get_metric("log_loss")
        labels = np.unique(data.y)
        for lr in (0.05, 0.1, 0.2):
            out = evaluate_config(
                data, LGBMLikeClassifier, {"tree_num": 4, "learning_rate": lr},
                sample_size=200, resampling="cv", metric=metric, n_splits=3,
                seed=1, labels=labels, use_binned_plane=True,
            )
            assert np.isfinite(out.error)
        stats = plane_for(data).stats()
        assert stats["splits"] == 1 and stats["split_hits"] >= 2
        assert stats["binned"] == 3  # one per fold
        assert stats["binned_hits"] >= 6  # reused by the later trials
        assert stats["transform_hits"] >= 6

    def test_memoized_splits_are_identical_objects(self):
        data = self.make_data()  # the plane holds its dataset weakly
        plane = BinnedDataset(data)
        a = plane.holdout_split(0.2, 7)
        b = plane.holdout_split(0.2, 7)
        assert a[0] is b[0] and a[1] is b[1]
        assert not a[0].flags.writeable
        assert plane.kfold_split(200, 3, 7)[0][0] is \
            plane.kfold_split(200, 3, 7)[0][0]

    def test_plane_for_cached_on_dataset_and_freed_with_it(self):
        data = self.make_data()
        plane = plane_for(data)
        assert plane_for(data) is plane
        plane.holdout_split(0.2, 0)
        refs = (weakref.ref(plane), weakref.ref(data))
        # the plane refers back to its dataset only weakly, so reference
        # counting alone frees both: no cycle left for a full GC pass
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            del plane, data
            assert [r() for r in refs] == [None, None]
        finally:
            if was_enabled:
                gc.enable()

    def test_dataset_stays_picklable_after_plane_attach(self):
        import pickle

        data = self.make_data()
        plane_for(data).holdout_split(0.2, 0)  # plane now attached
        clone = pickle.loads(pickle.dumps(data))
        np.testing.assert_array_equal(clone.X, data.X)
        assert not hasattr(clone, "_binned_plane")  # rebuilt per process

    def test_in_place_mutation_evicts_stale_plane(self):
        data = self.make_data()
        plane = plane_for(data)
        plane.holdout_split(0.2, 0)
        data.X[:] = data.X + 1.0  # in-place transform between fits
        fresh = plane_for(data)
        assert fresh is not plane  # stale codes/splits are not reused

    def test_code_cache_is_byte_budgeted(self):
        data = self.make_data()
        plane = BinnedDataset(data)
        plane._binned.max_bytes = 1  # force the byte bound to bind
        for mb in (8, 16, 32):
            plane.binned_for(np.arange(100), ("rows", 100), mb)
        assert len(plane._binned) == 1  # evicted down to the floor

    def test_toggle_round_trip(self):
        prev = set_plane_enabled(False)
        try:
            assert plane_enabled() is False
            assert set_plane_enabled(True) is False
            assert plane_enabled() is True
        finally:
            set_plane_enabled(prev)

    def test_binned_matrix_is_array_like(self):
        data = self.make_data()
        plane = BinnedDataset(data)
        view = plane.view(np.arange(50), ("head", 50))
        assert view.shape == (50, data.d)
        assert len(view) == 50
        np.testing.assert_array_equal(np.asarray(view), data.X[:50])

    def test_foreign_binner_transform_bypasses_cache(self):
        data = self.make_data()
        plane = BinnedDataset(data)
        foreign = Binner(max_bins=32).fit(data.X[:100])
        rows = np.arange(100, 150)
        codes = plane.transform_with(foreign, rows, ("tail", 50))
        np.testing.assert_array_equal(codes, foreign.transform(data.X[rows]))
        assert plane.stats()["transforms"] == 0


class TestAcceptedExtrasCache:
    def test_cache_is_bounded(self):
        for i in range(evaluate_mod._ACCEPTED_EXTRAS_LIMIT + 50):
            cls = type(f"Dyn{i}", (), {"__init__": lambda self, seed=0: None})
            evaluate_mod._accepted_extras(cls)
        assert (
            len(evaluate_mod._accepted_extras_cache)
            <= evaluate_mod._ACCEPTED_EXTRAS_LIMIT
        )

    def test_entries_are_weak_and_self_evicting(self):
        cls = type("Transient", (), {"__init__": lambda self: None})
        assert evaluate_mod._accepted_extras(cls) == frozenset()
        ref = weakref.ref(cls)
        key = id(cls)
        assert key in evaluate_mod._accepted_extras_cache
        del cls
        gc.collect()
        assert ref() is None  # the cache held no strong reference
        assert key not in evaluate_mod._accepted_extras_cache

    def test_results_match_signature_inspection(self):
        class Both:
            def __init__(self, seed=0, train_time_limit=None):
                pass

        class Neither:
            def __init__(self):
                pass

        class Kwargs:
            def __init__(self, **kw):
                pass

        assert evaluate_mod._accepted_extras(Both) == frozenset(
            {"seed", "train_time_limit"}
        )
        assert evaluate_mod._accepted_extras(Neither) == frozenset()
        assert evaluate_mod._accepted_extras(Kwargs) == frozenset(
            {"seed", "train_time_limit"}
        )


class TestBinnedMatrixLearnerPath:
    def test_prediction_path_equivalence(self):
        """A model fit on a BinnedMatrix predicts raw arrays identically
        to a model fit on the raw slice (binner edges are shared)."""
        rng = np.random.default_rng(5)
        X = rng.standard_normal((200, 5))
        y = (X[:, 0] > 0).astype(np.int64)
        data = Dataset("bm", X, y, "binary")
        plane = BinnedDataset(data)
        rows = np.arange(160)
        view = plane.view(rows, ("tr", 160))
        m1 = LGBMLikeClassifier(tree_num=5, leaf_num=8, seed=0).fit(view, y[rows])
        m2 = LGBMLikeClassifier(tree_num=5, leaf_num=8, seed=0).fit(X[rows], y[rows])
        np.testing.assert_array_equal(
            m1.predict_proba(X[160:]), m2.predict_proba(X[160:])
        )
