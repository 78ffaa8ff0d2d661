"""Controller-level tests of the pluggable execution engine: serial vs.
one-worker virtual equivalence, trial caching on search results, and
real thread-backed searches through the public API.  Trial-log
determinism across substrates, fault plans and kernel modes is the
oracle in ``test_schedule_pins.py``."""

import numpy as np
import pytest

import repro.exec.serial as serial_mod
from repro import AutoML
from repro.core.controller import SearchController
from repro.core.evaluate import TrialOutcome
from repro.core.registry import DEFAULT_LEARNERS, make_spec_from_class
from repro.core.space import RandInt, SearchSpace
from repro.data import make_classification
from repro.exec import SerialExecutor, TrialCache
from repro.learners import LGBMLikeClassifier
from repro.metrics import get_metric


def _learners(names):
    return {n: DEFAULT_LEARNERS[n] for n in names}


@pytest.fixture(scope="module")
def data():
    return make_classification(500, 6, class_sep=1.2, seed=0,
                               name="engine").shuffled(0)


@pytest.fixture(scope="module")
def metric():
    return get_metric("roc_auc")


def _log_fields(result):
    """The deterministic (timing-free) identity of a trial log."""
    return [
        (t.learner, tuple(sorted(t.config.items())), t.sample_size, t.kind,
         t.error, t.improved_global)
        for t in result.trials
    ]


class TestSerialParallelEquivalence:
    def test_identical_trial_logs_with_one_worker(self, data, metric,
                                                  monkeypatch):
        """The virtual clock with n_workers=1 reproduces the
        SerialExecutor-backed wall-clock loop trial-for-trial.

        ECI-based learner selection feeds on measured trial costs, so to
        compare the *logic* (not the timer) the executor's work function
        is wrapped to report a deterministic cost per trial.
        """
        real_run_spec = serial_mod.run_spec

        def deterministic_cost(d, spec):
            out = real_run_spec(d, spec)
            return TrialOutcome(
                error=out.error,
                cost=1e-3 * spec.sample_size * (1 + len(spec.config)),
                model=out.model,
            )

        monkeypatch.setattr(serial_mod, "run_spec", deterministic_cost)
        kw = dict(
            time_budget=1e6,
            seed=3,
            init_sample_size=100,
            resampling_override="holdout",
            trial_cache=False,
        )
        sequential = SearchController(
            data, _learners(("lgbm", "rf", "lrl1")), metric,
            executor=SerialExecutor(data), max_iters=12, **kw,
        ).run()
        parallel = SearchController(
            data, _learners(("lgbm", "rf", "lrl1")), metric,
            n_workers=1, backend="virtual", max_iters=12, **kw,
        ).run()
        assert sequential.n_trials == parallel.n_trials == 12
        assert _log_fields(sequential) == _log_fields(parallel)
        assert sequential.best_error == parallel.best_error
        assert sequential.best_learner == parallel.best_learner


class _TinyGridLearner(LGBMLikeClassifier):
    """One integer hyperparameter with 3 values: FLOW2's unit-cube steps
    round onto a tiny grid, so duplicate proposals are guaranteed."""

    @classmethod
    def search_space(cls, data_size, task):
        return SearchSpace({"tree_num": RandInt(2, 4, init=2)})


class TestTrialCacheOnSearchResult:
    def test_duplicate_proposals_short_circuited(self, data, metric):
        res = SearchController(
            data,
            {"tinygrid": make_spec_from_class("tinygrid", _TinyGridLearner)},
            metric,
            time_budget=30.0, max_iters=10, seed=0,
            init_sample_size=data.n,  # single fidelity: configs collide
            resampling_override="holdout",
        ).run()
        assert res.n_trials == 10
        # only 3 distinct configs exist, so >= 7 of 10 trials must hit
        assert res.cache_hits >= 1
        assert res.cache_hits >= res.n_trials - 3

    def test_cache_disabled(self, data, metric):
        res = SearchController(
            data,
            {"tinygrid": make_spec_from_class("tinygrid", _TinyGridLearner)},
            metric,
            time_budget=30.0, max_iters=6, seed=0,
            init_sample_size=data.n,
            resampling_override="holdout",
            trial_cache=False,
        ).run()
        assert res.cache_hits == 0

    def test_shared_cache_warm_restart(self, data, metric):
        """Re-running a search against the same TrialCache answers the
        repeated proposals from storage — re-tuning is (nearly) free."""
        cache = TrialCache()
        kw = dict(
            time_budget=30.0, max_iters=8, seed=5,
            init_sample_size=200, resampling_override="holdout",
            use_sampling=False, trial_cache=cache,
        )
        first = SearchController(
            data, _learners(("lgbm",)), metric, **kw,
        ).run()
        hits_before = cache.hits
        second = SearchController(
            data, _learners(("lgbm",)), metric, **kw,
        ).run()
        # single learner + no sampling: the proposal sequence is
        # rng-driven only, so every trial of the re-run is a cache hit
        assert cache.hits - hits_before == second.n_trials
        assert _log_fields(first) == _log_fields(second)

    def test_cache_hits_survive_serialization(self, data, metric, tmp_path):
        from repro.core.serialize import load_result, save_result

        res = SearchController(
            data,
            {"tinygrid": make_spec_from_class("tinygrid", _TinyGridLearner)},
            metric,
            time_budget=30.0, max_iters=8, seed=0,
            init_sample_size=data.n, resampling_override="holdout",
        ).run()
        path = str(tmp_path / "log.json")
        save_result(res, path)
        loaded = load_result(path)
        assert loaded.cache_hits == res.cache_hits
        assert loaded.backend == res.backend
        assert loaded.n_workers == res.n_workers


class TestRealBackendsThroughAutoML:
    def test_thread_backend_fit_predicts(self, data):
        am = AutoML(seed=1, init_sample_size=150)
        am.fit(
            data.X, data.y, task="binary", time_budget=1.0,
            n_workers=2, backend="thread",
            estimator_list=["lgbm", "rf"], cv_instance_threshold=0,
        )
        assert am.search_result.backend == "thread"
        pred = am.predict(data.X[:10])
        assert set(np.unique(pred)) <= {0, 1}

    def test_default_backend_for_multiple_workers(self, data):
        am = AutoML(seed=1, init_sample_size=150)
        am.fit(data.X, data.y, task="binary", time_budget=0.8,
               n_workers=2, estimator_list=["lgbm"], cv_instance_threshold=0)
        assert am.search_result.backend == "thread"

    def test_invalid_worker_count(self, data):
        with pytest.raises(ValueError, match="n_workers"):
            AutoML().fit(data.X, data.y, task="binary", time_budget=0.5,
                         n_workers=0)

    def test_invalid_backend(self, data):
        with pytest.raises(ValueError, match="unknown backend"):
            AutoML().fit(data.X, data.y, task="binary", time_budget=0.5,
                         n_workers=2, backend="quantum")


class TestParallelControllerOptions:
    def test_stop_at_error_real_backend(self, data, metric):
        res = SearchController(
            data, _learners(("lgbm",)), metric,
            time_budget=20.0, n_workers=2, seed=0, backend="thread",
            init_sample_size=150, resampling_override="holdout",
            stop_at_error=0.45,
        ).run()
        assert res.best_error <= 0.45
        assert res.wall_time < 19.0

    def test_roundrobin_selection(self, data, metric):
        res = SearchController(
            data, _learners(("lgbm", "rf")), metric,
            time_budget=20.0, n_workers=1, seed=0, backend="virtual",
            init_sample_size=150, resampling_override="holdout",
            learner_selection="roundrobin", max_iters=6,
        ).run()
        assert [t.learner for t in res.trials] == ["lgbm", "rf"] * 3

    def test_starting_points_respected(self, data, metric):
        start = {"lgbm": {"tree_num": 11}}
        res = SearchController(
            data, _learners(("lgbm",)), metric,
            time_budget=20.0, n_workers=1, seed=0, backend="virtual",
            init_sample_size=150, resampling_override="holdout",
            starting_points=start, max_iters=1,
        ).run()
        assert res.trials[0].config["tree_num"] == 11
