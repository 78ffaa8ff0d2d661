"""Direct tests for the shared BudgetedRunner."""

import numpy as np
import pytest

from repro.baselines import BudgetedRunner
from repro.core.registry import DEFAULT_LEARNERS
from repro.data import make_classification
from repro.metrics import get_metric


@pytest.fixture()
def runner():
    data = make_classification(500, 4, class_sep=1.5, seed=0,
                               name="br").shuffled(0)
    return BudgetedRunner(
        data,
        {"lgbm": DEFAULT_LEARNERS["lgbm"]},
        get_metric("roc_auc"),
        time_budget=5.0,
        resampling="holdout",
        seed=0,
    )


class TestBudgetedRunner:
    def test_run_trial_appends_record(self, runner):
        err = runner.run_trial("lgbm", {"tree_num": 4, "leaf_num": 4})
        assert len(runner.trials) == 1
        t = runner.trials[0]
        assert t.error == err
        assert t.learner == "lgbm"
        assert t.iteration == 1

    def test_best_tracking(self, runner):
        e1 = runner.run_trial("lgbm", {"tree_num": 4, "leaf_num": 4})
        e2 = runner.run_trial("lgbm", {"tree_num": 40, "leaf_num": 16})
        assert runner.best_error == min(e1, e2)
        res = runner.result()
        assert res.best_error == min(e1, e2)
        assert res.best_learner == "lgbm"

    def test_sample_size_defaults_to_full(self, runner):
        runner.run_trial("lgbm", {"tree_num": 4, "leaf_num": 4})
        assert runner.trials[0].sample_size == runner.data.n

    def test_explicit_sample_size(self, runner):
        runner.run_trial("lgbm", {"tree_num": 4, "leaf_num": 4}, sample_size=100)
        assert runner.trials[0].sample_size == 100

    def test_failed_trial_keeps_its_traceback(self, runner):
        err = runner.run_trial("lgbm", {"tree_num": 4, "bogus_param": 3})
        assert err == np.inf
        t = runner.trials[0]
        assert "unexpected keyword argument 'bogus_param'" in t.failure
        assert runner.result().failures == [t]

    def test_result_with_no_trials(self, runner):
        res = runner.result()
        assert res.best_learner is None
        assert res.best_sample_size == 0  # the controller's convention
        assert res.n_trials == 0
        assert not np.isfinite(res.best_error)

    def test_out_of_budget_flag(self):
        data = make_classification(200, 3, seed=1, name="b2").shuffled(0)
        r = BudgetedRunner(
            data, {"lgbm": DEFAULT_LEARNERS["lgbm"]}, get_metric("roc_auc"),
            time_budget=1e-9, resampling="holdout",
        )
        assert r.out_of_budget
