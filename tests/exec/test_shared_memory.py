"""Shared-memory dataset plane of the process backend.

The executor must (a) ship only O(1) metadata to workers — never a
pickle of the feature matrix, (b) actually share memory (a worker-side
attach sees writes through the parent's segment), and (c) unlink every
segment on shutdown, including after worker crashes and pool rebuilds —
repeated fits must not accumulate ``/dev/shm`` blocks.
"""

import gc
import glob
import os

import numpy as np
import pytest

from repro.data import make_classification
from repro.data.dataset import Dataset
from repro.exec import ProcessExecutor, TrialSpec
from repro.exec import process as process_mod
from repro.learners import LGBMLikeClassifier
from repro.metrics import get_metric


@pytest.fixture(scope="module")
def data():
    return make_classification(300, 4, class_sep=1.3, seed=0,
                               name="shm").shuffled(0)


def make_spec(config=None, **kw):
    base = dict(
        learner="lgbm",
        estimator_cls=LGBMLikeClassifier,
        config=config or {"tree_num": 3, "leaf_num": 4},
        sample_size=150,
        resampling="holdout",
        metric=get_metric("accuracy"),
        seed=0,
        labels=np.array([0, 1]),
    )
    base.update(kw)
    return TrialSpec(**base)


class ExitingLearner(LGBMLikeClassifier):
    """Kills its worker process outright (picklable, module-level)."""

    def fit(self, X, y):
        os._exit(17)


def shm_files() -> set:
    return set(glob.glob("/dev/shm/" + process_mod.SHM_PREFIX + "*"))


class TestZeroCopyInit:
    def test_init_payload_is_metadata_not_arrays(self, data):
        with ProcessExecutor(data, n_workers=1) as ex:
            payload = ex._init_payload
            assert "dataset" not in payload
            for field in ("X", "y"):
                meta = payload[field]
                assert set(meta) == {"shm", "shape", "dtype"}
                assert meta["shm"].startswith(process_mod.SHM_PREFIX)
            # the wire form is tiny: names + shapes, not 300x4 floats
            import pickle

            assert len(pickle.dumps(payload)) < 2000

    def test_worker_attach_shares_memory(self, data):
        """An attach (as the worker initializer does it) must observe
        writes made through the parent's segment — proof the matrix is
        mapped, not copied."""
        saved_data = process_mod._WORKER_DATA
        saved_segs = list(process_mod._WORKER_SEGMENTS)
        ex = ProcessExecutor(data, n_workers=1)
        try:
            process_mod._WORKER_SEGMENTS.clear()
            process_mod._init_worker(ex._init_payload)
            worker_data = process_mod._WORKER_DATA
            assert isinstance(worker_data, Dataset)
            np.testing.assert_array_equal(worker_data.X, data.X)
            np.testing.assert_array_equal(worker_data.y, data.y)
            assert not worker_data.X.flags.writeable
            # write through the parent's own segment view
            parent_view = np.ndarray(
                data.X.shape, dtype=np.float64, buffer=ex._segments[0].buf
            )
            before = worker_data.X[0, 0]
            parent_view[0, 0] = before + 1.0
            assert worker_data.X[0, 0] == before + 1.0
            parent_view[0, 0] = before
        finally:
            for shm in process_mod._WORKER_SEGMENTS:
                shm.close()
            process_mod._WORKER_SEGMENTS[:] = saved_segs
            process_mod._WORKER_DATA = saved_data
            ex.shutdown()

    def test_process_trial_matches_serial(self, data):
        from repro.exec import SerialExecutor

        spec = make_spec()
        serial = SerialExecutor(data).submit(spec).result()
        with ProcessExecutor(data, n_workers=1) as ex:
            remote = ex.submit(spec).result(timeout=120)
        assert remote.error == serial.error
        assert remote.model is None

    def test_object_dtype_labels_ship_as_codes(self, data):
        """Object labels cross as integer codes over shared memory; the
        worker rebuilds ``y`` from the classes in the init payload."""
        _assert_object_labels_ship_as_codes(
            _object_labels(data, "obj"), make_spec(labels=OBJ_CLASSES),
        )


class TestWorkerPlaneWarmup:
    """`_init_worker` pre-computes the default splits/codes (ROADMAP
    open item): the first trial a worker runs must hit warm plane
    caches, not build them inside its measured wall-clock."""

    WARMUP = {"resampling": "holdout", "holdout_ratio": 0.1, "seed": 0,
              "n_splits": 5, "sample_size": 150}

    def _init_in_this_process(self, ex):
        saved = (process_mod._WORKER_DATA,
                 list(process_mod._WORKER_SEGMENTS))
        process_mod._WORKER_SEGMENTS.clear()
        process_mod._init_worker(ex._init_payload)
        return saved

    def _restore(self, saved):
        data_saved, segs_saved = saved
        for shm in process_mod._WORKER_SEGMENTS:
            shm.close()
        process_mod._WORKER_SEGMENTS[:] = segs_saved
        process_mod._WORKER_DATA = data_saved

    def test_executor_ships_warmup_context(self, data):
        with ProcessExecutor(data, n_workers=1, warmup=self.WARMUP) as ex:
            assert ex._init_payload["warmup"] == self.WARMUP

    def test_first_trial_hits_warm_caches(self, data):
        from repro.data import plane_for
        from repro.exec.base import run_spec

        ex = ProcessExecutor(data, n_workers=1, warmup=self.WARMUP)
        saved = self._init_in_this_process(ex)
        try:
            worker_data = process_mod._WORKER_DATA
            plane = plane_for(worker_data)
            warmed = plane.stats()
            assert warmed["splits"] == 1  # the holdout indices
            assert warmed["binned"] >= 1  # default-max_bins code sets
            # the first trial (same resampling/seed/sample_size the
            # warmup described) computes NO new splits or codes
            out = run_spec(worker_data, make_spec())
            assert np.isfinite(out.error)
            after = plane.stats()
            assert after["splits"] == warmed["splits"]
            assert after["binned"] == warmed["binned"]
            assert after["split_hits"] > warmed["split_hits"]
            assert after["binned_hits"] > warmed["binned_hits"]
        finally:
            self._restore(saved)
            ex.shutdown()

    def test_no_warmup_means_cold_plane(self, data):
        from repro.data import plane_for

        ex = ProcessExecutor(data, n_workers=1)
        saved = self._init_in_this_process(ex)
        try:
            assert "warmup" not in ex._init_payload
            stats = plane_for(process_mod._WORKER_DATA).stats()
            assert stats["splits"] == 0 and stats["binned"] == 0
        finally:
            self._restore(saved)
            ex.shutdown()

    def test_warm_plane_cv_keys_match_trial_path(self, data):
        """CV warmup must produce exactly the fold/code entries a CV
        trial looks up (key-format drift would silently de-warm)."""
        from repro.data import plane_for, warm_plane
        from repro.exec.base import run_spec

        clone = Dataset(data.name, data.X.copy(), data.y.copy(), data.task,
                        data.categorical)
        warm_plane(clone, resampling="cv", seed=0, n_splits=3,
                   sample_size=120)
        plane = plane_for(clone)
        warmed = plane.stats()
        # one fold-set; 3 folds x 3 default max_bins code sets
        assert warmed["splits"] == 1 and warmed["binned"] == 9
        out = run_spec(clone, make_spec(resampling="cv", n_splits=3,
                                        sample_size=120))
        assert np.isfinite(out.error)
        after = plane.stats()
        assert after["splits"] == warmed["splits"]
        assert after["binned"] == warmed["binned"]
        assert after["binned_hits"] > warmed["binned_hits"]

    def test_warmup_never_breaks_init(self, data, monkeypatch):
        """A failing warmup must leave a usable (cold) worker."""
        import repro.data.binned as binned_mod

        def boom(*a, **kw):
            raise RuntimeError("warmup exploded")

        monkeypatch.setattr(binned_mod, "warm_plane", boom)
        ex = ProcessExecutor(data, n_workers=1, warmup=self.WARMUP)
        saved = self._init_in_this_process(ex)
        try:
            assert process_mod._WORKER_DATA is not None
        finally:
            self._restore(saved)
            ex.shutdown()

    def test_controller_process_backend_passes_warmup(self, data):
        """The controller hands its search context to the process
        executor as the warmup payload."""
        from repro.core.controller import SearchController
        from repro.core.registry import DEFAULT_LEARNERS
        from repro.metrics import get_metric

        learners = {"lgbm": DEFAULT_LEARNERS["lgbm"]}
        ctl = SearchController(
            data, learners, get_metric("log_loss"), time_budget=1.0,
            n_workers=1, backend="process", seed=3, init_sample_size=100,
        )
        try:
            warmup = ctl.engine.executor._warmup
            assert warmup is not None
            assert warmup["resampling"] == ctl.resampling
            assert warmup["seed"] == 3
            assert warmup["sample_size"] <= data.n
        finally:
            ctl.engine.shutdown()


def _attach_worker(ex):
    """Run ``_init_worker`` in this process (the established pattern for
    inspecting worker-side state); returns the saved globals."""
    saved = (process_mod._WORKER_DATA, list(process_mod._WORKER_SEGMENTS))
    process_mod._WORKER_SEGMENTS.clear()
    process_mod._init_worker(ex._init_payload)
    return saved


def _detach_worker(saved):
    data_saved, segs_saved = saved
    for shm in process_mod._WORKER_SEGMENTS:
        shm.close()
    process_mod._WORKER_SEGMENTS[:] = segs_saved
    process_mod._WORKER_DATA = data_saved


OBJ_CLASSES = np.array(["neg", "pos"], dtype=object)


def _object_labels(data, name):
    """``data`` with its 0/1 labels replaced by object-dtype strings."""
    return Dataset(name, data.X, OBJ_CLASSES[data.y], data.task,
                   data.categorical)


def _assert_object_labels_ship_as_codes(data, spec, ship_codes=None):
    """The init payload is metadata over two segments, the worker's
    ``y`` equals the parent's element for element, and a trial in a
    real worker process scores exactly like the serial trial."""
    from repro.exec import SerialExecutor

    serial = SerialExecutor(data).submit(spec).result()
    assert serial.failure is None and 0.0 < serial.error < 1.0
    with ProcessExecutor(data, n_workers=1, ship_codes=ship_codes) as ex:
        assert "dataset" not in ex._init_payload
        assert len(ex._segments) == 2
        saved = _attach_worker(ex)
        try:
            worker_y = process_mod._WORKER_DATA.y
            assert worker_y.dtype == object
            assert list(worker_y) == list(data.y)
        finally:
            _detach_worker(saved)
        remote = ex.submit(spec).result(timeout=120)
    assert remote.failure is None
    assert remote.error == serial.error


class TestCodesPlane:
    """The large-n code-shipping plane: workers get the pre-binned
    uint8/uint16 sketch-grid matrix over shm instead of float64 X.
    Legal only because codes are fold-independent
    (tests/data/test_fold_independence.py); these tests cover the
    transport: export/attach, dtype handling, fallbacks, teardown, and
    the loud failure when a non-plane learner lands on a codes worker.
    """

    def _big(self, seed=0, n=3000, name="shm-codes"):
        return make_classification(n, 6, class_sep=1.2, seed=seed,
                                   name=name).shuffled(seed)

    def test_codes_payload_replaces_float_matrix(self, monkeypatch):
        from repro.data.binned import BinnedDataset

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = self._big()
        with ProcessExecutor(data, n_workers=1, ship_codes=True) as ex:
            payload = ex._init_payload
            assert ex.ship_mode == "codes"
            assert "X" not in payload and "dataset" not in payload
            assert np.dtype(payload["codes"]["dtype"]) == np.uint8
            assert tuple(payload["x_shape"]) == (data.n, data.d)
            float_bytes = data.n * data.d * 8
            # uint8 codes + float64 y: ~(d + 8) / 8d of the float plane
            assert ex.shipped_bytes <= float_bytes / 3

    def test_worker_adopts_codes_and_stubs_x(self, monkeypatch):
        from repro.data import plane_for
        from repro.data.binned import BinnedDataset

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = self._big(seed=1, name="shm-codes-adopt")
        ex = ProcessExecutor(data, n_workers=1, ship_codes=True)
        saved = _attach_worker(ex)
        try:
            wd = process_mod._WORKER_DATA
            assert wd._codes_only
            # the feature matrix is a zero-byte broadcast stub
            assert wd.X.shape == (data.n, data.d)
            assert wd.X.strides == (0, 0)
            assert not wd.X.flags.writeable
            stats = plane_for(wd).stats()
            assert stats["adopted_codes"] and stats["sketch"]
            assert stats["base_codes_bytes"] == data.n * data.d
        finally:
            _detach_worker(saved)
            ex.shutdown()

    def test_codes_trial_equals_float_trial_equals_serial(self, monkeypatch):
        """The load-bearing equality: the same spec evaluated on a
        codes-only worker, a float-shm worker, and serially in the
        parent produces the identical error."""
        from repro.data.binned import BinnedDataset
        from repro.exec import SerialExecutor
        from repro.exec.base import run_spec

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = self._big(seed=2, name="shm-codes-eq")
        spec = make_spec(sample_size=2000)
        serial = SerialExecutor(data).submit(spec).result()

        errors = {}
        for mode, ship in (("codes", True), ("float", False)):
            ex = ProcessExecutor(data, n_workers=1, ship_codes=ship)
            saved = _attach_worker(ex)
            try:
                assert ex.ship_mode == mode
                errors[mode] = run_spec(process_mod._WORKER_DATA, spec).error
            finally:
                _detach_worker(saved)
                ex.shutdown()
        assert errors["codes"] == serial.error
        assert errors["float"] == serial.error

    def test_real_subprocess_codes_trial(self, monkeypatch):
        """End-to-end through a real worker process: the grid state must
        survive pickling and the trial must match the parent's sketch
        evaluation."""
        from repro.data.binned import BinnedDataset
        from repro.exec import SerialExecutor

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = self._big(seed=3, name="shm-codes-e2e")
        spec = make_spec(sample_size=2000)
        serial = SerialExecutor(data).submit(spec).result()
        with ProcessExecutor(data, n_workers=1, ship_codes=True) as ex:
            remote = ex.submit(spec).result(timeout=120)
        assert remote.failure is None
        assert remote.error == serial.error

    def test_uint16_grid_roundtrip(self, monkeypatch):
        """A base grid past 256 codes ships and attaches as uint16."""
        from repro.data import plane_for
        from repro.data.binned import BinnedDataset

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        monkeypatch.setattr(BinnedDataset, "SKETCH_BASE_BINS", 300)
        data = self._big(seed=4, name="shm-codes-u16")
        ex = ProcessExecutor(data, n_workers=1, ship_codes=True)
        saved = _attach_worker(ex)
        try:
            assert np.dtype(ex._init_payload["codes"]["dtype"]) == np.uint16
            wd = process_mod._WORKER_DATA
            worker_plane = plane_for(wd)
            parent_plane = plane_for(data)
            rows = np.arange(0, data.n, 11)
            a = worker_plane._base_codes_rows(rows)
            b = parent_plane._base_codes_rows(rows)
            assert a.dtype == np.uint16
            assert a.tobytes() == b.tobytes()
        finally:
            _detach_worker(saved)
            ex.shutdown()

    def test_auto_resolution_needs_plane_only_learners(self, monkeypatch):
        from repro.data.binned import BinnedDataset

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = self._big(seed=5, name="shm-codes-auto")
        warm = {"resampling": "holdout", "holdout_ratio": 0.1, "seed": 0,
                "sample_size": 500, "plane_learners_only": True}
        with ProcessExecutor(data, n_workers=1, warmup=warm) as ex:
            assert ex.ship_mode == "codes"
        mixed = dict(warm, plane_learners_only=False)
        with ProcessExecutor(data, n_workers=1, warmup=mixed) as ex:
            assert ex.ship_mode == "float"
        # explicit opt-out always wins
        with ProcessExecutor(data, n_workers=1, warmup=warm,
                             ship_codes=False) as ex:
            assert ex.ship_mode == "float"

    def test_auto_stays_float_below_exact_limit(self):
        data = self._big(seed=6, name="shm-codes-small")
        warm = {"resampling": "holdout", "holdout_ratio": 0.1, "seed": 0,
                "sample_size": 500, "plane_learners_only": True}
        with ProcessExecutor(data, n_workers=1, warmup=warm) as ex:
            assert ex.ship_mode == "float"  # exact path stays bitwise

    def test_object_labels_ship_as_codes(self, monkeypatch):
        from repro.data.binned import BinnedDataset

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        _assert_object_labels_ship_as_codes(
            _object_labels(self._big(seed=10, name="shm-codes-obj"),
                           "obj-codes"),
            make_spec(labels=OBJ_CLASSES, sample_size=2000),
            ship_codes=True,
        )

    def test_non_plane_learner_fails_loudly(self, monkeypatch):
        """A learner that needs raw features must surface an inf-error
        trial with an explanatory failure, never fit the NaN stub."""
        from repro.data.binned import BinnedDataset
        from repro.exec.base import run_spec
        from repro.learners import LogisticRegressionL1

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        data = self._big(seed=7, name="shm-codes-guard")
        ex = ProcessExecutor(data, n_workers=1, ship_codes=True)
        saved = _attach_worker(ex)
        try:
            spec = make_spec(estimator_cls=LogisticRegressionL1,
                             learner="lrl1", config={"C": 1.0},
                             sample_size=2000)
            out = run_spec(process_mod._WORKER_DATA, spec)
            assert out.error == np.inf
            assert out.failure is not None
            assert "not binned-plane aware" in out.failure
        finally:
            _detach_worker(saved)
            ex.shutdown()

    def test_codes_segments_unlinked_on_shutdown(self, monkeypatch):
        from multiprocessing import shared_memory

        from repro.data.binned import BinnedDataset

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        before = shm_files()
        data = self._big(seed=8, name="shm-codes-teardown")
        ex = ProcessExecutor(data, n_workers=1, ship_codes=True)
        names = [s.name for s in ex._segments]
        assert len(names) == 2  # y and codes
        ex.submit(make_spec(sample_size=2000)).result(timeout=120)
        ex.shutdown()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert shm_files() == before

    def test_crash_rebuild_leaks_nothing(self, monkeypatch):
        from repro.data.binned import BinnedDataset

        monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 100)
        before = shm_files()
        data = self._big(seed=9, name="shm-codes-crash")
        ex = ProcessExecutor(data, n_workers=1, ship_codes=True)
        crash = make_spec(estimator_cls=ExitingLearner, learner="exit",
                          sample_size=2000)
        with pytest.raises(Exception):
            ex.submit(crash).result(timeout=120)
        out = ex.submit(make_spec(sample_size=2000)).result(timeout=120)
        assert np.isfinite(out.error)
        ex.shutdown()
        assert shm_files() == before


class TestTeardown:
    def test_shutdown_unlinks_all_segments(self, data):
        from multiprocessing import shared_memory

        before = shm_files()
        ex = ProcessExecutor(data, n_workers=1)
        names = [s.name for s in ex._segments]
        assert len(names) == 2  # X and y
        ex.submit(make_spec()).result(timeout=120)
        ex.shutdown()
        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
        assert shm_files() == before

    def test_repeated_fit_cycles_leak_nothing(self, data):
        before = shm_files()
        for _ in range(3):
            with ProcessExecutor(data, n_workers=1) as ex:
                ex.submit(make_spec()).result(timeout=120)
        assert shm_files() == before

    def test_shutdown_idempotent(self, data):
        ex = ProcessExecutor(data, n_workers=1)
        ex.shutdown()
        ex.shutdown()  # second call must not raise

    def test_finalizer_backstop_unlinks_dropped_executor(self, data):
        before = shm_files()
        ex = ProcessExecutor(data, n_workers=1)
        assert shm_files() != before
        pool = ex._pool
        del ex
        gc.collect()
        pool.shutdown(wait=False, cancel_futures=True)
        assert shm_files() == before

    def test_worker_crash_pool_rebuild_then_clean_shutdown(self, data):
        """A hard worker death must not orphan segments: the rebuilt pool
        reattaches the same segments and shutdown still unlinks them."""
        before = shm_files()
        ex = ProcessExecutor(data, n_workers=1)
        names = [s.name for s in ex._segments]
        crash = make_spec(estimator_cls=ExitingLearner, learner="exit")
        handle = ex.submit(crash)
        with pytest.raises(Exception):
            handle.result(timeout=120)
        # pool is broken now; next submit rebuilds it against the same
        # shared segments and the trial succeeds
        out = ex.submit(make_spec()).result(timeout=120)
        assert np.isfinite(out.error)
        assert [s.name for s in ex._segments] == names
        ex.shutdown()
        assert shm_files() == before


class TestInjectedShmFaults:
    """The ``shm.attach`` fault site drives the one recovery path: a
    parent-side export failure and worker-side attach failures (workers
    dying during pool spin-up) both end in :class:`PoolBrokenError`,
    and the engine degrades the search to the thread backend, which
    shares the dataset by reference — in both cases with zero leaked
    segments."""

    @pytest.fixture(autouse=True)
    def no_leftover_plan(self):
        from repro.faults import install

        prev = install(None)
        yield
        install(prev)

    def test_export_fault_degrades_engine_to_thread(self, data,
                                                    monkeypatch):
        from repro.exec import ExecutionEngine, PoolBrokenError, \
            SerialExecutor
        from repro.faults import FaultPlan, install

        before = shm_files()
        spec = make_spec()
        serial = SerialExecutor(data).submit(spec).result()

        def enospc_on_y(stage, key):  # /dev/shm fills after X is out
            if key == ("export", "y"):
                raise OSError(28, "No space left on device")

        with monkeypatch.context() as m:
            m.setattr(process_mod, "_maybe_shm_fault", enospc_on_y)
            ex = ProcessExecutor(data, n_workers=1)
        assert ex._segments == []
        assert shm_files() == before  # the half-export is unlinked at once
        with pytest.raises(PoolBrokenError) as info:
            ex.submit(spec)
        assert "shared-memory export failed" in str(info.value)
        assert info.value.__cause__.errno == 28
        ex.shutdown()  # no pool was ever built

        install(FaultPlan({"shm.attach": {"probability": 1.0,
                                          "mode": "export"}}))
        engine = ExecutionEngine(ProcessExecutor(data, n_workers=1))
        try:
            out = engine.submit(spec).outcome(timeout=120)
            assert out.failure is None
            assert out.error == serial.error
            assert engine.degradations == [("process", "thread")]
            assert engine.backend == "thread"
        finally:
            engine.shutdown()
        assert shm_files() == before

    def test_attach_faults_degrade_engine_to_thread(self, data):
        """Workers dying at attach break the pool during spin-up; after
        ``REBUILDS_TO_BROKEN`` consecutive rebuilds the engine swaps the
        process backend for the thread backend, whose trials succeed."""
        from repro.exec import ExecutionEngine
        from repro.faults import FaultPlan, install

        before = shm_files()
        install(FaultPlan({"shm.attach": {"probability": 1.0,
                                          "mode": "attach"}}))
        ex = ProcessExecutor(data, n_workers=1)
        assert ex.ship_mode == "float"  # export itself is untouched
        assert len(ex._segments) == 2
        engine = ExecutionEngine(ex)
        try:
            for _ in range(ex.REBUILDS_TO_BROKEN + 1):
                if engine.backend == "thread":
                    break
                engine.submit(make_spec()).outcome(timeout=120)
            assert ex.consecutive_rebuilds == ex.REBUILDS_TO_BROKEN
            assert engine.degradations == [("process", "thread")]
            assert ex._segments == []  # unlinked at degradation time
            for seed in (1, 2):
                out = engine.submit(make_spec(seed=seed)).outcome(
                    timeout=120)
                assert out.failure is None and np.isfinite(out.error)
        finally:
            engine.shutdown()
        assert shm_files() == before

    def test_hard_midsearch_kill_retried_with_zero_leaks(self, data):
        """A ``hard`` worker.crash is a real ``os._exit`` inside the
        worker (skips atexit, like a segfault).  The engine retries on
        the rebuilt pool and the search moves on; shutdown leaves no
        segment behind."""
        from repro.exec import ExecutionEngine, RetryPolicy
        from repro.faults import FaultPlan, install

        before = shm_files()
        install(FaultPlan({"worker.crash": {"probability": 1.0,
                                            "hard": True}}))
        engine = ExecutionEngine(
            ProcessExecutor(data, n_workers=1),
            retry_policy=RetryPolicy(max_attempts=2, backoff_base=0.0,
                                     jitter=0.0),
        )
        try:
            handle = engine.submit(make_spec())
            # lift the plan before the retry: the rebuilt pool re-ships
            # the *current* plan, so the second attempt runs clean —
            # exactly one real SIGKILL-style death mid-search
            install(None)
            out = handle.outcome(timeout=120)
            assert np.isfinite(out.error)
            assert out.attempts == 2
            assert engine.retries_used == 1
        finally:
            engine.shutdown()
        assert shm_files() == before
