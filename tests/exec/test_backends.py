"""Tests for the trial-execution backends (repro.exec)."""

import time

import numpy as np
import pytest

from repro.core.evaluate import TrialOutcome, evaluate_config
from repro.core.registry import DEFAULT_LEARNERS
from repro.data import make_classification
from repro.exec import (
    BACKENDS,
    ExecutionEngine,
    LeasedExecutor,
    ProcessExecutor,
    SerialExecutor,
    TrialCache,
    TrialSpec,
    make_executor,
)
from repro.learners import LGBMLikeClassifier
from repro.metrics import get_metric


@pytest.fixture(scope="module")
def data():
    return make_classification(400, 5, class_sep=1.3, seed=0,
                               name="exec").shuffled(0)


@pytest.fixture(scope="module")
def metric():
    return get_metric("roc_auc")


def make_spec(metric, config=None, sample_size=200, seed=0, **kw):
    base = dict(
        learner="lgbm",
        estimator_cls=LGBMLikeClassifier,
        config=config or {"tree_num": 4, "leaf_num": 4},
        sample_size=sample_size,
        resampling="holdout",
        metric=metric,
        seed=seed,
        labels=np.array([0, 1]),
    )
    base.update(kw)
    return TrialSpec(**base)


class CrashingLearner(LGBMLikeClassifier):
    """Module-level (hence picklable) learner whose fit always raises."""

    def fit(self, X, y):
        raise RuntimeError("boom")


class SleepyLearner(LGBMLikeClassifier):
    """Learner that ignores its advisory limit and sleeps."""

    NAP = 2.0

    def fit(self, X, y):
        time.sleep(self.NAP)
        return super().fit(X, y)


class TestSerialExecutor:
    def test_submit_is_done_immediately(self, data, metric):
        ex = SerialExecutor(data)
        h = ex.submit(make_spec(metric))
        assert h.done()
        out = h.result()
        assert np.isfinite(out.error) and out.cost > 0

    def test_matches_direct_evaluation(self, data, metric):
        spec = make_spec(metric)
        out = SerialExecutor(data).submit(spec).result()
        direct = evaluate_config(
            data, spec.estimator_cls, spec.config,
            sample_size=spec.sample_size, resampling=spec.resampling,
            metric=spec.metric, seed=spec.seed, labels=spec.labels,
        )
        assert out.error == direct.error


class TestThreadBackend:
    def test_concurrent_submissions(self, data, metric):
        with make_executor("thread", data, n_workers=2) as ex:
            handles = [ex.submit(make_spec(metric, seed=s)) for s in range(4)]
            outs = [h.result(timeout=30) for h in handles]
        assert all(np.isfinite(o.error) for o in outs)

    def test_worker_count_validated(self, data):
        with pytest.raises(ValueError):
            make_executor("thread", data, n_workers=0)

    def test_one_lease_owns_its_pool(self, data, metric):
        """The thread backend is the only lease of a private pool, and
        shutting the lease down stops that pool."""
        ex = make_executor("thread", data, n_workers=2)
        assert ex.pool.n_workers == 2
        assert len(ex.pool.stats()["leases"]) == 1
        ex.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            ex.pool.lease(data)
        ex.shutdown()  # idempotent


class TestProcessExecutor:
    def test_runs_in_worker_process(self, data, metric):
        with ProcessExecutor(data, n_workers=2) as ex:
            out = ex.submit(make_spec(metric)).result(timeout=60)
        assert np.isfinite(out.error)
        # fitted models stay in the worker
        assert out.model is None

    def test_crash_isolated_inside_worker(self, data, metric):
        spec = make_spec(metric, estimator_cls=CrashingLearner)
        with ProcessExecutor(data, n_workers=1) as ex:
            out = ex.submit(spec).result(timeout=60)
        assert out.error == np.inf

    def test_registry_metric_travels_by_name(self, data):
        # log_loss's error_fn is a lambda: only name-based transport works
        spec = make_spec(get_metric("log_loss"))
        with ProcessExecutor(data, n_workers=1) as ex:
            out = ex.submit(spec).result(timeout=60)
        assert np.isfinite(out.error)


class TestMakeExecutor:
    def test_factory_backends(self, data):
        assert isinstance(make_executor("serial", data), SerialExecutor)
        th = make_executor("thread", data, n_workers=2)
        assert isinstance(th, LeasedExecutor) and th.n_workers == 2
        assert th.backend == "thread"
        th.shutdown()
        pr = make_executor("process", data, n_workers=2)
        assert isinstance(pr, ProcessExecutor)
        pr.shutdown()

    def test_unknown_backend(self, data):
        with pytest.raises(ValueError, match="unknown backend") as err:
            make_executor("gpu", data)
        assert str(err.value).endswith("known: " + ", ".join(BACKENDS))


class TestTrialCache:
    def test_hit_and_miss_counters(self, metric):
        cache = TrialCache()
        key = make_spec(metric).cache_key()
        assert cache.get(key) is None
        cache.put(key, TrialOutcome(error=0.25, cost=1.0, model=object()))
        hit = cache.get(key)
        assert hit.error == 0.25
        assert hit.model is None  # models are stripped before storage
        assert cache.hits == 1 and cache.misses == 1

    def test_lru_eviction(self, metric):
        cache = TrialCache(maxsize=2)
        keys = [make_spec(metric, seed=s).cache_key() for s in range(3)]
        for k in keys:
            cache.put(k, TrialOutcome(error=0.1, cost=0.1, model=None))
        assert cache.get(keys[0]) is None  # oldest entry evicted
        assert cache.get(keys[1]) is not None
        assert cache.get(keys[2]) is not None

    def test_key_distinguishes_trial_identity(self, metric):
        base = make_spec(metric)
        assert base.cache_key() == make_spec(metric).cache_key()
        for variant in (
            make_spec(metric, sample_size=100),
            make_spec(metric, seed=7),
            make_spec(metric, config={"tree_num": 8, "leaf_num": 4}),
            make_spec(metric, resampling="cv"),
            make_spec(metric, learner="other"),
        ):
            assert variant.cache_key() != base.cache_key()

    def test_key_ignores_time_limits(self, metric):
        a = make_spec(metric, train_time_limit=1.0)
        b = make_spec(metric, train_time_limit=99.0)
        assert a.cache_key() == b.cache_key()


class TestExecutionEngine:
    def test_duplicate_proposals_are_free(self, data, metric):
        engine = ExecutionEngine(SerialExecutor(data), cache=TrialCache())
        first = engine.run(make_spec(metric))
        handle = engine.submit(make_spec(metric))
        assert handle.cache_hit and handle.done()
        second = handle.outcome()
        assert second.error == first.error
        assert second.cost < first.cost  # lookup, not training
        assert engine.cache_hits == 1

    def test_timeout_records_inf_error(self, data, metric):
        spec = make_spec(metric, estimator_cls=SleepyLearner,
                         train_time_limit=0.01)
        engine = ExecutionEngine(
            make_executor("thread", data, 1), cache=TrialCache(),
            trial_time_limit=0.05,
        )
        out = engine.run(spec)
        engine.shutdown()
        assert out.error == np.inf

    def test_timed_out_trials_are_not_cached(self, data, metric):
        spec = make_spec(metric, estimator_cls=SleepyLearner,
                         train_time_limit=0.01)
        cache = TrialCache()
        engine = ExecutionEngine(make_executor("thread", data, 1),
                                 cache=cache, trial_time_limit=0.05)
        engine.run(spec)
        engine.shutdown()
        assert len(cache) == 0

    def test_abandoned_trial_does_not_delay_shutdown(self, data, metric):
        """The thread backend cannot stop a running trial; the engine
        abandons it at the limit, and shutting down does not wait on
        it."""
        spec = make_spec(metric, estimator_cls=SleepyLearner,
                         train_time_limit=0.01)
        engine = ExecutionEngine(make_executor("thread", data, 1),
                                 cache=None, trial_time_limit=0.05)
        t0 = time.perf_counter()
        handle = engine.submit(spec)
        out = handle.outcome(timeout=engine.trial_time_limit)
        assert out.error == np.inf and handle.timed_out
        assert not handle.worker_done()  # the nap goes on
        engine.shutdown()
        assert time.perf_counter() - t0 < SleepyLearner.NAP / 2

    def test_broken_submit_becomes_failed_trial(self, data, metric):
        class ExplodingExecutor(SerialExecutor):
            def submit(self, spec):
                raise OSError("no workers left")

        engine = ExecutionEngine(ExplodingExecutor(data), cache=None)
        out = engine.run(make_spec(metric))
        assert out.error == np.inf

    def test_cache_scoped_to_dataset(self, data, metric):
        """A cache shared across engines never replays outcomes measured
        on different (e.g. refreshed) data."""
        other = make_classification(400, 5, class_sep=1.3, seed=99,
                                    name="exec").shuffled(0)
        cache = TrialCache()
        ExecutionEngine(SerialExecutor(data), cache=cache).run(make_spec(metric))
        handle = ExecutionEngine(SerialExecutor(other), cache=cache).submit(
            make_spec(metric)
        )
        assert not handle.cache_hit
        assert cache.hits == 0
        # the same data does hit
        assert ExecutionEngine(
            SerialExecutor(data), cache=cache
        ).submit(make_spec(metric)).cache_hit

    def test_failed_trials_never_cached(self, data, metric):
        cache = TrialCache()
        engine = ExecutionEngine(SerialExecutor(data), cache=cache)
        out = engine.run(make_spec(metric, estimator_cls=CrashingLearner))
        assert out.error == np.inf
        assert len(cache) == 0  # an inf trial must not poison the cache

    def test_no_cache_mode(self, data, metric):
        engine = ExecutionEngine(SerialExecutor(data), cache=None)
        engine.run(make_spec(metric))
        engine.run(make_spec(metric))
        assert engine.cache_hits == 0
