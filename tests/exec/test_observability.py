"""Observability through the execution stack: failure tracebacks, engine
counters, and worker span/metric shipping on every backend.
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.automl import AutoML
from repro.core.controller import SearchResult, TrialRecord
from repro.core.evaluate import evaluate_config
from repro.core.serialize import result_from_dict, result_to_dict
from repro.data import make_classification
from repro.exec import (
    ExecutionEngine,
    ProcessExecutor,
    SerialExecutor,
    ThreadExecutor,
    TrialCache,
    TrialSpec,
)
from repro.learners import LGBMLikeClassifier
from repro.metrics import get_metric
from repro.obs.metrics import REGISTRY, snapshot_diff
from repro.obs.trace import (
    clear_spans,
    drain_spans,
    set_tracing,
    snapshot_spans,
)


@pytest.fixture(scope="module")
def data():
    return make_classification(400, 5, class_sep=1.3, seed=0,
                               name="obs-exec").shuffled(0)


@pytest.fixture(scope="module")
def metric():
    return get_metric("roc_auc")


@pytest.fixture(autouse=True)
def quiet_tracer():
    prev = set_tracing(False)
    clear_spans()
    yield
    set_tracing(prev)
    clear_spans()


def make_spec(metric, **kw):
    base = dict(
        learner="lgbm",
        estimator_cls=LGBMLikeClassifier,
        config={"tree_num": 4, "leaf_num": 4},
        sample_size=200,
        resampling="holdout",
        metric=metric,
        seed=0,
        labels=np.array([0, 1]),
    )
    base.update(kw)
    return TrialSpec(**base)


class BrokenFitLearner(LGBMLikeClassifier):
    """Module-level (picklable) learner whose fit always raises."""

    def fit(self, X, y):
        raise ValueError("synthetic failure for the traceback test")


def _counter_delta(diff, name, **labels):
    fam = diff.get(name, {"series": []})
    want = {str(k): str(v) for k, v in labels.items()}
    return sum(
        row["value"] for row in fam["series"]
        if all(row["labels"].get(k) == v for k, v in want.items())
    )


class TestFailureTracebacks:
    def test_evaluate_config_preserves_the_traceback(self, data, metric):
        out = evaluate_config(data, BrokenFitLearner,
                              {"tree_num": 4, "leaf_num": 4}, 200,
                              "holdout", metric, labels=np.array([0, 1]))
        assert out.error == float("inf")
        assert "Traceback" in out.failure
        assert "synthetic failure for the traceback test" in out.failure
        assert "ValueError" in out.failure

    def test_successful_trial_has_no_failure(self, data, metric):
        out = evaluate_config(data, LGBMLikeClassifier,
                              {"tree_num": 4, "leaf_num": 4}, 200,
                              "holdout", metric, labels=np.array([0, 1]))
        assert out.failure is None

    def test_failure_crosses_the_process_boundary(self, data, metric):
        engine = ExecutionEngine(ProcessExecutor(data, n_workers=1),
                                 cache=None)
        try:
            out = engine.run(make_spec(metric,
                                       estimator_cls=BrokenFitLearner))
        finally:
            engine.shutdown()
        assert out.error == float("inf")
        assert "synthetic failure for the traceback test" in out.failure

    def test_timeout_failure_names_the_limit(self, data, metric):
        import time as _time

        class _Sleepy(LGBMLikeClassifier):
            def fit(self, X, y):
                _time.sleep(0.5)

        engine = ExecutionEngine(ThreadExecutor(data, n_workers=1),
                                 cache=None, trial_time_limit=0.05)
        try:
            out = engine.run(make_spec(metric, estimator_cls=_Sleepy))
        finally:
            engine.shutdown()
        assert out.error == float("inf")
        assert "time limit" in out.failure

    def test_search_result_failures_property_and_roundtrip(self):
        ok = TrialRecord(iteration=1, automl_time=0.1, learner="lgbm",
                         config={}, sample_size=10, resampling="holdout",
                         error=0.2, cost=0.1, kind="search",
                         improved_global=True)
        bad = TrialRecord(iteration=2, automl_time=0.2, learner="xgboost",
                          config={}, sample_size=10, resampling="holdout",
                          error=float("inf"), cost=0.1, kind="search",
                          improved_global=False,
                          failure="Traceback ...\nValueError: nope")
        result = SearchResult(
            best_learner="lgbm", best_config={}, best_sample_size=10,
            best_error=0.2, resampling="holdout", trials=[ok, bad],
            wall_time=0.3,
        )
        assert result.failures == [bad]
        restored = result_from_dict(result_to_dict(result))
        assert restored.failures[0].failure == bad.failure
        assert restored.trials[0].failure is None
        # successful rows stay compact: no failure key at all
        assert "failure" not in result_to_dict(result)["trials"][0]


class TestEngineCounters:
    def test_cache_and_status_counters(self, data, metric):
        engine = ExecutionEngine(SerialExecutor(data), cache=TrialCache())
        before = REGISTRY.snapshot()
        try:
            spec = make_spec(metric)
            engine.run(spec)
            engine.run(spec)  # identical spec: served by the cache
            engine.run(make_spec(metric, estimator_cls=BrokenFitLearner,
                                 learner="broken"))
        finally:
            engine.shutdown()
        diff = snapshot_diff(before, REGISTRY.snapshot())
        assert _counter_delta(diff, "repro_trial_cache_total",
                              result="hit") == 1
        assert _counter_delta(diff, "repro_trial_cache_total",
                              result="miss") == 2
        assert _counter_delta(diff, "repro_trials_total", status="ok",
                              backend="serial") == 1
        assert _counter_delta(diff, "repro_trials_total", status="failed",
                              backend="serial") == 1
        assert _counter_delta(diff, "repro_trials_total",
                              status="cache-hit") == 1
        wait = [row for row in
                diff["repro_exec_queue_wait_seconds"]["series"]
                if row["labels"] == {"backend": "serial"}]
        assert wait and wait[0]["count"] == 2  # cache hits skip the queue


class TestSpanCollection:
    def test_thread_backend_spans_land_locally(self, data):
        set_tracing(True)
        automl = AutoML(seed=0, init_sample_size=100)
        automl.fit(data.X, data.y, task="classification", time_budget=30,
                   max_iters=4, n_workers=2, backend="thread",
                   estimator_list=["lgbm"])
        spans = drain_spans()
        trials = [s for s in spans if s["name"] == "trial"]
        assert len(trials) >= 4
        assert all(s["pid"] == os.getpid() for s in spans)
        names = {s["name"] for s in spans}
        assert {"trial.fit", "trial.score", "trial.metric"} <= names

    def test_process_workers_ship_their_buffers(self, data):
        set_tracing(True)
        before = REGISTRY.snapshot()
        automl = AutoML(seed=0, init_sample_size=100)
        automl.fit(data.X, data.y, task="classification", time_budget=60,
                   max_iters=4, n_workers=2, backend="process",
                   estimator_list=["lgbm"])
        spans = drain_spans()
        trials = [s for s in spans if s["name"] == "trial"]
        assert len(trials) >= 4  # no trial's spans were lost
        # shipped spans keep the *worker* pid and intact parent links
        assert {s["pid"] for s in trials} and all(
            s["pid"] != os.getpid() for s in trials
        )
        by_id = {s["span"]: s for s in spans}
        children = [s for s in spans if s["parent"] is not None]
        assert children
        assert all(s["parent"] in by_id for s in children)
        # the workers' metric deltas were merged too
        diff = snapshot_diff(before, REGISTRY.snapshot())
        assert _counter_delta(diff, "repro_trials_total", status="ok",
                              backend="process") >= 4

    def test_forked_workers_ship_only_their_own_spans(self, data):
        """A worker forked while tracing is on inherits a copy of the
        parent's span ring; shipping it back with the first trial would
        count the parent's spans again.  The second fit forks its pool
        with the first fit's spans still buffered."""
        set_tracing(True)
        ran = 0
        for seed in (0, 1):
            automl = AutoML(seed=seed, init_sample_size=100)
            automl.fit(data.X, data.y, task="classification",
                       time_budget=60, max_iters=4, n_workers=2,
                       backend="process", estimator_list=["lgbm"])
            result = automl.search_result
            ran += len(result.trials) - result.cache_hits
        trials = [s for s in snapshot_spans() if s["name"] == "trial"]
        assert len({s["span"] for s in trials}) == len(trials) == ran

    def test_disabled_tracing_ships_nothing(self, data, metric):
        engine = ExecutionEngine(ProcessExecutor(data, n_workers=1),
                                 cache=None)
        try:
            out = engine.run(make_spec(metric))
        finally:
            engine.shutdown()
        assert out.trace is None and out.metrics is None
        assert drain_spans() == []
