"""Engine retry machinery under injected faults: crashes retried with
deterministic backoff, budgets enforced, failed trials not retried,
attempt counts surfaced end-to-end, and the backend degradation ladder.
The comparator systems run their trials through the same engine, so an
installed plan reaches them too.
"""

import numpy as np
import pytest

from repro.core.evaluate import TrialOutcome
from repro.data import make_classification
from repro.exec import (ExecutionEngine, PoolBrokenError, RetryPolicy,
                        SerialExecutor, TrialSpec)
from repro.faults import FaultPlan, install
from repro.learners import LGBMLikeClassifier
from repro.metrics import get_metric


@pytest.fixture(autouse=True)
def no_leftover_plan():
    prev = install(None)
    yield
    install(prev)


@pytest.fixture(scope="module")
def data():
    return make_classification(300, 4, class_sep=1.3, seed=0,
                               name="retries").shuffled(0)


def make_spec(**kw):
    base = dict(
        learner="lgbm",
        estimator_cls=LGBMLikeClassifier,
        config={"tree_num": 3, "leaf_num": 4},
        sample_size=150,
        resampling="holdout",
        metric=get_metric("accuracy"),
        seed=0,
    )
    base.update(kw)
    return TrialSpec(**base)


def fast_policy(**kw):
    base = dict(max_attempts=3, backoff_base=0.0, jitter=0.0)
    base.update(kw)
    return RetryPolicy(**base)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)

    def test_backoff_growth_and_cap(self):
        p = RetryPolicy(backoff_base=0.1, backoff_factor=2.0,
                        backoff_max=0.3, jitter=0.0)
        assert p.backoff_for(1, "k") == pytest.approx(0.1)
        assert p.backoff_for(2, "k") == pytest.approx(0.2)
        assert p.backoff_for(3, "k") == pytest.approx(0.3)  # capped
        assert p.backoff_for(9, "k") == pytest.approx(0.3)

    def test_jitter_deterministic_per_trial(self):
        p = RetryPolicy(backoff_base=1.0, jitter=0.5)
        a, b = p.backoff_for(1, "trial-a"), p.backoff_for(1, "trial-b")
        assert a != b  # different trials jitter differently
        assert a == p.backoff_for(1, "trial-a")  # but reproducibly
        assert 0.5 <= a <= 1.0  # jitter scales into [1-j, 1]


class TestCrashRetries:
    def test_single_crash_absorbed(self, data):
        """A crash on attempt 0 is retried; the retry re-rolls its fault
        key and succeeds — the outcome matches the fault-free one."""
        spec = make_spec()
        clean = SerialExecutor(data).submit(spec).result()
        # fire exactly once: the first attempt crashes, the retry runs
        install(FaultPlan({"worker.crash": {"probability": 1.0,
                                            "count": 1}}))
        engine = ExecutionEngine(SerialExecutor(data),
                                 retry_policy=fast_policy())
        out = engine.run(spec)
        assert out.error == clean.error
        assert out.failure is None
        assert out.attempts == 2
        assert engine.retries_used == 1

    def test_attempts_exhausted_is_inf_error(self, data):
        """Every attempt crashing ends in an inf-error outcome (never an
        exception) annotated with the retry history."""
        install(FaultPlan({"worker.crash": 1.0}))
        engine = ExecutionEngine(SerialExecutor(data),
                                 retry_policy=fast_policy(max_attempts=3))
        out = engine.run(make_spec())
        assert out.error == np.inf
        assert out.attempts == 3
        assert "[retries: 3 attempts" in out.failure
        assert "InjectedCrash" in out.failure
        assert engine.retries_used == 2

    def test_no_policy_means_no_retry(self, data):
        install(FaultPlan({"worker.crash": {"probability": 1.0,
                                            "count": 1}}))
        engine = ExecutionEngine(SerialExecutor(data))
        out = engine.run(make_spec())
        assert out.error == np.inf
        assert out.attempts == 1

    def test_retry_budget_caps_total_retries(self, data):
        """The per-search budget stops retrying even when per-trial
        attempts remain."""
        install(FaultPlan({"worker.crash": 1.0}))
        engine = ExecutionEngine(
            SerialExecutor(data),
            retry_policy=fast_policy(max_attempts=10, retry_budget=3),
        )
        first = engine.run(make_spec())
        assert first.attempts == 4  # 1 initial + all 3 budgeted retries
        assert engine.retries_used == 3
        second = engine.run(make_spec(sample_size=120))
        assert second.attempts == 1  # budget spent: no retry at all

    def test_failed_trials_not_retried(self, data):
        """trial.exception yields a *failed* trial (deterministic learner
        error) — not retryable under the default policy."""
        install(FaultPlan({"trial.exception": 1.0}))
        engine = ExecutionEngine(SerialExecutor(data),
                                 retry_policy=fast_policy())
        out = engine.run(make_spec())
        assert out.error == np.inf
        assert out.attempts == 1
        assert "InjectedFault" in out.failure
        assert engine.retries_used == 0


class TestAttemptsSurfaced:
    def test_search_result_records_attempts(self, data):
        from repro.core.controller import SearchController
        from repro.core.registry import DEFAULT_LEARNERS

        install(FaultPlan({"worker.crash": {"probability": 1.0,
                                            "count": 1}}))
        res = SearchController(
            data, {"lgbm": DEFAULT_LEARNERS["lgbm"]},
            get_metric("roc_auc"),
            time_budget=30.0, max_iters=4, seed=3, init_sample_size=150,
            resampling_override="holdout",
            retry_policy=fast_policy(),
        ).run()
        attempts = [t.attempts for t in res.trials]
        assert sum(attempts) == len(attempts) + 1  # exactly one retry
        assert all(t.failure is None for t in res.trials)

    def test_attempts_survive_serialization(self, data, tmp_path):
        from repro.core.controller import SearchController
        from repro.core.registry import DEFAULT_LEARNERS
        from repro.core.serialize import load_result, save_result

        install(FaultPlan({"worker.crash": {"probability": 1.0,
                                            "count": 1}}))
        res = SearchController(
            data, {"lgbm": DEFAULT_LEARNERS["lgbm"]},
            get_metric("roc_auc"),
            time_budget=30.0, max_iters=3, seed=3, init_sample_size=150,
            resampling_override="holdout",
            retry_policy=fast_policy(),
        ).run()
        path = str(tmp_path / "log.json")
        save_result(res, path)
        loaded = load_result(path)
        assert ([t.attempts for t in loaded.trials]
                == [t.attempts for t in res.trials])

    def test_automl_fit_retries_flag(self, data):
        from repro import AutoML

        install(FaultPlan({"worker.crash": {"probability": 1.0,
                                            "count": 1}}))
        am = AutoML(seed=0, init_sample_size=150)
        am.fit(data.X, data.y, task="binary", time_budget=30.0,
               max_iters=3, estimator_list=["lgbm"], retries=2,
               resampling="holdout", cv_instance_threshold=0)
        res = am.search_result
        assert sum(t.attempts for t in res.trials) == res.n_trials + 1
        assert np.isfinite(am.best_loss)

    def test_automl_rejects_negative_retries(self, data):
        from repro import AutoML

        with pytest.raises(ValueError, match="retries"):
            AutoML().fit(data.X, data.y, task="binary", time_budget=1.0,
                         retries=-1)


class TestComparatorSystems:
    def test_baseline_trials_consult_the_fault_plan(self, data):
        from repro.baselines import RandomSearch
        from repro.obs.metrics import REGISTRY

        failed = REGISTRY.counter("repro_trials_total", status="failed",
                                  backend="serial")
        before = failed.value
        install(FaultPlan({"trial.exception": 1.0}))
        res = RandomSearch(max_iters=3).search(
            data, get_metric("roc_auc"), time_budget=30.0, seed=0)
        assert [t.error for t in res.trials] == [np.inf] * 3
        assert res.failures == res.trials
        assert all("injected trial.exception" in t.failure
                   for t in res.trials)
        assert failed.value == before + 3  # the engine's metrics see them


class _BrokenExecutor:
    """A stub whose substrate is broken beyond repair from the start."""

    backend = "process"

    def __init__(self, data):
        self.data = data
        self.n_workers = 2

    def submit(self, spec):
        raise PoolBrokenError("stub pool died repeatedly")

    def shutdown(self):
        pass


class TestDegradationLadder:
    def test_broken_backend_degrades_and_completes(self, data):
        """PoolBrokenError at submit walks the process→thread ladder and
        the trial still resolves on the replacement backend."""
        engine = ExecutionEngine(_BrokenExecutor(data))
        out = engine.run(make_spec())
        try:
            assert np.isfinite(out.error)
            assert engine.backend == "thread"
            assert engine.degradations == [("process", "thread")]
        finally:
            engine.shutdown()

    def test_degradation_metric_incremented(self, data):
        from repro.obs.metrics import REGISTRY

        before = REGISTRY.counter(
            "repro_backend_degradations_total",
            "Engine backend degradations (process→thread→serial ladder).",
            **{"from": "process", "to": "thread"},
        ).value
        engine = ExecutionEngine(_BrokenExecutor(data))
        engine.run(make_spec())
        try:
            after = REGISTRY.counter(
                "repro_backend_degradations_total",
                "Engine backend degradations (process→thread→serial "
                "ladder).",
                **{"from": "process", "to": "thread"},
            ).value
            assert after == before + 1
        finally:
            engine.shutdown()

    def test_search_result_reports_the_degraded_backend(self, data):
        """The search result names the substrate the trials actually ran
        on: the engine's backend after degradation, not the requested
        one.  A virtual-clock search still reports "virtual"."""
        from repro import AutoML

        for backend, reported in ((None, "thread"), ("virtual", "virtual")):
            am = AutoML(seed=0, init_sample_size=150)
            am.fit(data.X, data.y, task="binary", time_budget=30.0,
                   max_iters=4, n_workers=2, backend=backend,
                   estimator_list=["lgbm"], resampling="holdout",
                   executor_factory=_BrokenExecutor)
            res = am.search_result
            assert res.n_trials == 4
            assert all(np.isfinite(t.error) for t in res.trials)
            assert res.backend == reported
