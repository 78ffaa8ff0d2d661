"""Tests for the appendix features: stacked ensemble, parallel search
threads, and stop-at-error-target."""

import numpy as np
import pytest

from repro import AutoML
from repro.core.controller import SearchController
from repro.core.ensemble import StackedEnsemble, build_ensemble, select_ensemble_members
from repro.core.registry import DEFAULT_LEARNERS
from repro.data import make_classification, make_regression
from repro.metrics import get_metric, roc_auc_score


def _learners(names):
    return {n: DEFAULT_LEARNERS[n] for n in names}


@pytest.fixture(scope="module")
def clf_data():
    return make_classification(1000, 6, class_sep=1.2, seed=0,
                               name="ens").shuffled(0)


@pytest.fixture(scope="module")
def search_result(clf_data):
    ctl = SearchController(
        clf_data, _learners(("lgbm", "rf", "lrl1")), get_metric("roc_auc"),
        time_budget=1.5, seed=0, init_sample_size=200,
        cv_instance_threshold=0,
    )
    return ctl.run()


class TestMemberSelection:
    def test_distinct_learners(self, search_result):
        members = select_ensemble_members(search_result, max_members=3)
        names = [n for n, _ in members]
        assert len(names) == len(set(names))
        assert 1 <= len(members) <= 3

    def test_ordered_by_error(self, search_result):
        members = select_ensemble_members(search_result, max_members=3)
        assert members[0][0] == search_result.best_learner


class TestStackedEnsemble:
    def test_build_and_predict(self, clf_data, search_result):
        members = select_ensemble_members(search_result, max_members=2)
        ens = build_ensemble(clf_data, members, _learners(("lgbm", "rf", "lrl1")),
                             n_splits=3, seed=0)
        assert isinstance(ens, StackedEnsemble)
        assert ens.n_members == len(members)
        proba = ens.predict_proba(clf_data.X)
        assert proba.shape == (clf_data.n, 2)
        assert np.allclose(proba.sum(axis=1), 1.0, atol=1e-6)
        acc = (ens.predict(clf_data.X) == clf_data.y).mean()
        assert acc > 0.8

    def test_regression_stack(self):
        data = make_regression(600, 5, seed=2, name="rens").shuffled(0)
        ctl = SearchController(
            data, _learners(("lgbm", "rf")), get_metric("r2"),
            time_budget=1.0, seed=0, init_sample_size=200,
            cv_instance_threshold=0,
        )
        res = ctl.run()
        members = select_ensemble_members(res, max_members=2)
        ens = build_ensemble(data, members, _learners(("lgbm", "rf")),
                             n_splits=3)
        pred = ens.predict(data.X)
        assert np.mean((pred - data.y) ** 2) < np.var(data.y)
        with pytest.raises(RuntimeError):
            ens.predict_proba(data.X)

    def test_empty_members_rejected(self, clf_data):
        with pytest.raises(ValueError):
            build_ensemble(clf_data, [], _learners(("lgbm",)))

    def test_automl_ensemble_flag(self, clf_data):
        am = AutoML(seed=0, init_sample_size=200)
        am.fit(clf_data.X, clf_data.y, task="binary", time_budget=1.0,
               estimator_list=["lgbm", "rf"], ensemble=True,
               cv_instance_threshold=0)
        assert isinstance(am.model, StackedEnsemble)
        auc = roc_auc_score(clf_data.y, am.predict_proba(clf_data.X)[:, 1])
        assert auc > 0.8


class TestParallelController:
    def test_virtual_parallel_run(self, clf_data):
        ctl = SearchController(
            clf_data, _learners(("lgbm", "rf", "lrl1")), get_metric("roc_auc"),
            time_budget=0.6, n_workers=3, seed=0, init_sample_size=200,
            cv_instance_threshold=0, backend="virtual",
        )
        res = ctl.run()
        assert res.n_trials >= 3
        times = [t.automl_time for t in res.trials]
        assert times == sorted(times)
        assert np.isfinite(res.best_error)

    def test_more_workers_more_trials_in_virtual_time(self, clf_data):
        """With the same virtual budget, more workers complete more trials."""
        counts = {}
        for w in (1, 4):
            ctl = SearchController(
                clf_data, _learners(("lgbm", "rf")), get_metric("roc_auc"),
                time_budget=0.4, n_workers=w, seed=0, init_sample_size=200,
                cv_instance_threshold=0, max_iters=60, backend="virtual",
            )
            counts[w] = ctl.run().n_trials
        assert counts[4] > counts[1]

    def test_invalid_workers(self, clf_data):
        with pytest.raises(ValueError):
            SearchController(
                clf_data, _learners(("lgbm",)), get_metric("roc_auc"),
                n_workers=0,
            )


class TestStopAtError:
    def test_search_stops_at_target(self, clf_data):
        ctl = SearchController(
            clf_data, _learners(("lgbm",)), get_metric("roc_auc"),
            time_budget=20.0, seed=0, init_sample_size=200,
            cv_instance_threshold=0, stop_at_error=0.45,
        )
        res = ctl.run()
        assert res.best_error <= 0.45
        assert res.wall_time < 19.0  # stopped well before the budget

    def test_automl_stop_at_error(self, clf_data):
        am = AutoML(seed=0, init_sample_size=200)
        am.fit(clf_data.X, clf_data.y, task="binary", time_budget=20.0,
               estimator_list=["lgbm"], stop_at_error=0.45,
               cv_instance_threshold=0)
        assert am.best_loss <= 0.45
