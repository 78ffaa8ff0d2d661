"""Tests for the suite comparison harness."""

import numpy as np
import pytest

from repro.baselines import FLAMLSystem, RandomSearch
from repro.bench import SCALED_THRESHOLDS
from repro.bench.harness import (
    ComparisonHarness,
    default_systems,
    fit_final_model,
    score_table,
)
from repro.data import Dataset


@pytest.fixture(scope="module")
def small_dataset():
    r = np.random.default_rng(3)
    X = r.standard_normal((400, 5))
    y = (X[:, 0] + 0.5 * X[:, 1] > 0).astype(int)
    return Dataset("toy", X, y, "binary")


class TestDefaultSystems:
    def test_paper_roster(self):
        roster = default_systems()
        assert set(roster) == {
            "FLAML", "Auto-sklearn", "Cloud-automl", "HpBandSter",
            "H2OAutoML", "TPOT",
        }

    def test_include_filter(self):
        roster = default_systems(include=("FLAML", "TPOT"))
        assert set(roster) == {"FLAML", "TPOT"}

    def test_scaled_thresholds_applied(self):
        roster = default_systems()
        assert roster["FLAML"].cv_instance_threshold == 2_500


class TestHarnessRun:
    @pytest.fixture(scope="class")
    def records(self, small_dataset):
        systems = {
            "FLAML": FLAMLSystem(init_sample_size=100, **SCALED_THRESHOLDS),
            "RandomSearch": RandomSearch(
                estimator_list=["lgbm"], **SCALED_THRESHOLDS
            ),
        }
        harness = ComparisonHarness(
            systems=systems, budgets=(0.8,), n_folds=2, seed=0,
            rf_time_limit=3.0,
        )
        return harness.run_dataset("toy", dataset=small_dataset)

    def test_record_grid_complete(self, records):
        # 2 systems x 1 budget x 2 folds
        assert len(records) == 4
        assert {r.system for r in records} == {"FLAML", "RandomSearch"}
        assert {r.fold for r in records} == {0, 1}

    def test_scores_finite_and_ordered(self, records):
        for r in records:
            assert np.isfinite(r.scaled_score)
            assert np.isfinite(r.raw_score)
            assert r.n_trials >= 1
            assert r.wall_time > 0

    def test_easy_task_beats_constant_predictor(self, records):
        """Scaled score 0 = constant predictor; any learner should beat it
        on a linearly separable task."""
        assert max(r.scaled_score for r in records) > 0.0

    def test_score_table_shape(self, records):
        table = score_table(records)
        assert set(table) == {0.8}
        assert set(table[0.8]) == {"toy"}
        assert set(table[0.8]["toy"]) == {"FLAML", "RandomSearch"}
        # fold scores averaged into one number
        for v in table[0.8]["toy"].values():
            assert isinstance(v, float)


class TestFitFinalModel:
    def test_retrains_best_config(self, small_dataset):
        sys = FLAMLSystem(init_sample_size=100, **SCALED_THRESHOLDS)
        from repro.metrics import get_metric

        res = sys.search(small_dataset.shuffled(0), get_metric("roc_auc"),
                         time_budget=0.8, seed=0)
        model = fit_final_model(small_dataset, res)
        assert model is not None
        pred = model.predict(small_dataset.X[:10])
        assert pred.shape == (10,)

    @pytest.mark.parametrize("system", [
        RandomSearch(estimator_list=["xgb_limitdepth"], max_iters=2,
                     **SCALED_THRESHOLDS),
        FLAMLSystem(estimator_list=["lrl2"], init_sample_size=100,
                    **SCALED_THRESHOLDS),
    ], ids=["random-xgb_limitdepth", "flaml-lrl2"])
    def test_retrains_a_winning_extra_learner(self, small_dataset, system):
        """The systems draw learners from ``all_learners()``, so the
        winner may be an extra learner."""
        harness = ComparisonHarness(systems={"sys": system}, budgets=(0.8,),
                                    seed=0, rf_time_limit=3.0)
        [record] = harness.run_dataset("toy", dataset=small_dataset)
        assert np.isfinite(record.scaled_score)

    def test_none_when_no_successful_trial(self, small_dataset):
        from repro.core.controller import SearchResult

        empty = SearchResult(
            best_learner=None, best_config=None, best_sample_size=0,
            best_error=float("inf"), resampling="cv", trials=[],
            wall_time=0.0,
        )
        assert fit_final_model(small_dataset, empty) is None
