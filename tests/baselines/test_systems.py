"""Tests for the comparator AutoML systems (small budgets)."""

import numpy as np
import pytest

from repro.baselines import (
    ABLATIONS,
    BOHB,
    AutoSklearnLike,
    CloudAutoMLLike,
    FLAMLSystem,
    H2OLike,
    RandomSearch,
    TPOTLike,
    make_ablation,
)
from repro.data import Dataset
from repro.metrics import get_metric

BUDGET = 1.0
NO_CV = dict(cv_instance_threshold=0)  # force holdout => fast trials


@pytest.fixture(scope="module")
def data():
    rng = np.random.default_rng(5)
    X = rng.standard_normal((900, 6))
    w = rng.standard_normal(6)
    y = ((X @ w + 0.3 * rng.standard_normal(900)) > 0).astype(int)
    return Dataset("t", X, y, "binary").shuffled(0)


@pytest.fixture(scope="module")
def metric():
    return get_metric("roc_auc")


ALL_SYSTEMS = [
    lambda: FLAMLSystem(init_sample_size=150, **NO_CV),
    lambda: BOHB(**NO_CV),
    lambda: AutoSklearnLike(**NO_CV),
    lambda: CloudAutoMLLike(startup_overhead=0.1, **NO_CV),
    lambda: TPOTLike(population_size=6, **NO_CV),
    lambda: H2OLike(**NO_CV),
    lambda: RandomSearch(**NO_CV),
]


@pytest.mark.parametrize("factory", ALL_SYSTEMS)
class TestSystemContract:
    def test_produces_valid_result(self, factory, data, metric):
        res = factory().search(data, metric, time_budget=BUDGET, seed=0)
        assert res.n_trials >= 1
        assert res.best_learner is not None
        assert np.isfinite(res.best_error)
        assert 0.0 <= res.best_error <= 1.0  # 1 - auc
        # trial log consistency
        for t in res.trials:
            assert t.cost > 0
            assert t.sample_size <= data.n
        times = [t.automl_time for t in res.trials]
        assert times == sorted(times)

    def test_budget_not_grossly_exceeded(self, factory, data, metric):
        res = factory().search(data, metric, time_budget=BUDGET, seed=1)
        assert res.wall_time < BUDGET * 3 + 1.0

    def test_best_error_is_min_of_trials(self, factory, data, metric):
        res = factory().search(data, metric, time_budget=BUDGET, seed=2)
        assert res.best_error == pytest.approx(min(t.error for t in res.trials))


class TestSystemSpecifics:
    def test_flaml_cost_ramp(self, data, metric):
        """FLAML's defining behaviour: early trials are cheap (small sample
        size), later trials can be expensive."""
        res = FLAMLSystem(init_sample_size=100, **NO_CV).search(
            data, metric, time_budget=2.0, seed=0
        )
        assert res.trials[0].sample_size == 100
        # either the sample size grew (ECI2 won at some point), or cheap
        # small-sample improvements kept coming the whole budget — both are
        # the intended adaptive behaviour; what must NOT happen is starting
        # at full size
        grew = max(t.sample_size for t in res.trials) > 100
        assert grew or res.n_trials >= 25

    def test_bohb_uses_subsampling_rungs(self, data, metric):
        # small bracket + cheap learner only; a generous wall-clock budget
        # with a deterministic max_iters cap guarantees the
        # successive-halving promotion happens regardless of machine load
        res = BOHB(s_max=1, min_sample=50, estimator_list=["lgbm"],
                   max_iters=10, **NO_CV).search(
            data, metric, time_budget=60.0, seed=0)
        sizes = {t.sample_size for t in res.trials}
        assert len(sizes) > 1  # successive-halving fidelities
        # the bracket starts at n / eta^s and promotes to the full size
        assert max(sizes) == data.n

    def test_max_iters_caps_all_runners(self, data, metric):
        res = RandomSearch(max_iters=3, **NO_CV).search(
            data, metric, time_budget=60.0, seed=0)
        assert res.n_trials == 3

    def test_autosklearn_warm_start_order(self, data, metric):
        res = AutoSklearnLike(**NO_CV).search(data, metric, time_budget=BUDGET, seed=0)
        # the portfolio starts with lgbm configs
        assert res.trials[0].learner == "lgbm"
        assert res.trials[0].config["tree_num"] == 100

    def test_cloud_overhead_delays_first_trial(self, data, metric):
        res = CloudAutoMLLike(startup_overhead=0.4, **NO_CV).search(
            data, metric, time_budget=BUDGET, seed=0
        )
        assert res.trials[0].automl_time >= 0.4

    def test_h2o_learner_order(self, data, metric):
        res = H2OLike(**NO_CV).search(data, metric, time_budget=BUDGET, seed=0)
        first_learner = res.trials[0].learner
        assert first_learner == "rf"  # manual order starts with forests

    def test_tpot_population_generation(self, data, metric):
        res = TPOTLike(population_size=5, **NO_CV).search(
            data, metric, time_budget=BUDGET, seed=0
        )
        assert res.n_trials >= 2


class TestAblations:
    def test_registry(self):
        assert set(ABLATIONS) == {"roundrobin", "fulldata", "cv"}

    def test_unknown_ablation(self):
        with pytest.raises(ValueError):
            make_ablation("nope")

    def test_roundrobin_cycles_learners(self, data, metric):
        sys = make_ablation("roundrobin", init_sample_size=100, **NO_CV)
        res = sys.search(data, metric, time_budget=BUDGET, seed=0)
        first_six = [t.learner for t in res.trials[:6]]
        assert len(set(first_six)) == len(first_six)  # all distinct: a cycle

    def test_fulldata_never_subsamples(self, data, metric):
        sys = make_ablation("fulldata", **NO_CV)
        res = sys.search(data, metric, time_budget=BUDGET, seed=0)
        assert all(t.sample_size == data.n for t in res.trials)

    def test_cv_forced(self, data, metric):
        sys = make_ablation("cv", init_sample_size=100)
        res = sys.search(data, metric, time_budget=BUDGET, seed=0)
        assert res.resampling == "cv"
