"""Auto-sklearn-like baseline: meta-learning warm start + Bayesian
optimisation over the joint {learner, hyperparameter} space (related work
§2).  The warm-start portfolio plays the role of auto-sklearn's
meta-learned pipeline suggestions: a fixed list of configurations that did
well across many tasks — here, hand-picked spreads over each learner's
space (mid-size boosted trees, default forests, regularised linear
models).  All trials use the full training data (auto-sklearn does not
subsample), which is the cost profile FLAML §5 contrasts against.
"""

from __future__ import annotations

import numpy as np

from ..core.controller import SearchResult
from ..data.dataset import Dataset
from ..metrics.registry import Metric
from .base import AutoMLSystem
from .tpe import TPESampler

__all__ = ["AutoSklearnLike", "CloudAutoMLLike"]


def _portfolio(task: str) -> list[tuple[str, dict]]:
    """The simulated meta-learning portfolio (learner, config) pairs."""
    boost = [
        {"tree_num": 100, "leaf_num": 31, "learning_rate": 0.1,
         "min_child_weight": 1.0},
        {"tree_num": 400, "leaf_num": 64, "learning_rate": 0.05,
         "min_child_weight": 0.5, "subsample": 0.8},
        {"tree_num": 30, "leaf_num": 10, "learning_rate": 0.3,
         "min_child_weight": 5.0},
    ]
    portfolio: list[tuple[str, dict]] = []
    for cfg in boost:
        portfolio.append(("lgbm", dict(cfg)))
    portfolio.append(("xgboost", dict(boost[0])))
    rf_cfg = {"tree_num": 200, "max_features": 0.5}
    if task != "regression":
        rf_cfg["criterion"] = "gini"
    portfolio.append(("rf", rf_cfg))
    portfolio.append(("lrl1", {"C": 1.0}))
    return portfolio


class AutoSklearnLike(AutoMLSystem):
    """Warm-started BO over {learner, hyperparameters} on full data."""

    name = "Auto-sklearn"
    #: extra fixed start-up cost in seconds (meta-feature computation etc.);
    #: kept tiny by default so short budgets still produce models
    startup_overhead = 0.0
    #: whether the meta-learning portfolio seeds the search
    use_portfolio = True

    def search(self, data: Dataset, metric: Metric, time_budget: float,
               seed: int = 0) -> SearchResult:
        """Run the warm-started BO search within the budget."""
        rng = np.random.default_rng(seed)
        runner = self._runner(data, metric, time_budget, seed)
        if self.startup_overhead:
            # simulate meta-learning startup (cloud/meta-feature latency)
            import time as _t

            _t.sleep(min(self.startup_overhead, time_budget * 0.5))
        samplers = {
            name: TPESampler(spec.space_fn(data.n, data.task), rng)
            for name, spec in runner.learners.items()
        }
        names = list(samplers)
        # 1) warm start from the portfolio
        for lname, cfg in (_portfolio(data.task) if self.use_portfolio else []):
            if runner.out_of_budget:
                break
            if lname not in samplers:
                continue
            full_cfg = {**samplers[lname].space.init_config(), **cfg}
            err = runner.run_trial(lname, full_cfg)
            samplers[lname].observe(full_cfg, err)
        # 2) BO: pick the learner with the best observed error so far
        #    (epsilon-greedy), propose via its TPE model
        best_by_learner: dict[str, float] = {}
        for t in runner.trials:
            best_by_learner[t.learner] = min(
                best_by_learner.get(t.learner, np.inf), t.error
            )
        while not runner.out_of_budget:
            if rng.random() < 0.2 or not best_by_learner:
                lname = names[int(rng.integers(0, len(names)))]
            else:
                lname = min(best_by_learner, key=best_by_learner.get)
            cfg = samplers[lname].propose()
            err = runner.run_trial(lname, cfg)
            samplers[lname].observe(cfg, err)
            best_by_learner[lname] = min(best_by_learner.get(lname, np.inf), err)
        return runner.result()


class CloudAutoMLLike(AutoSklearnLike):
    """The commercial-service stand-in: BO without a portfolio plus a fixed
    start-up overhead (the paper notes cloud-automl does not return within
    2 minutes at a 1-minute budget — the overhead models that latency)."""

    name = "Cloud-automl"
    use_portfolio = False

    def __init__(self, startup_overhead: float = 0.5, **kw) -> None:
        super().__init__(**kw)
        self.startup_overhead = float(startup_overhead)
