"""H2O-AutoML-like baseline: manual learner order + randomised grid search.

Per the paper's related work: "It performs randomized grid search for each
learner ... The learners are ordered manually and each learner is
allocated a predefined portion of search iterations."  We reproduce that
scheduling: a fixed order (forests first, then boosted trees, then linear,
as H2O does), a fixed time share per learner, and uniform random sampling
from a discretised grid of each learner's space.
"""

from __future__ import annotations

import numpy as np

from ..core.controller import SearchResult
from ..data.dataset import Dataset
from ..metrics.registry import Metric
from .base import AutoMLSystem
from .random_search import grid_sample

__all__ = ["H2OLike"]

#: manual learner order + share of the budget allocated to each
_ORDER_AND_SHARE = [
    ("rf", 0.15),
    ("extra_tree", 0.1),
    ("lgbm", 0.3),
    ("xgboost", 0.3),
    ("catboost", 0.1),
    ("lrl1", 0.05),
]


class H2OLike(AutoMLSystem):
    """Ordered per-learner randomised grid search."""

    name = "H2OAutoML"

    def __init__(self, grid_points: int = 7,
                 cv_instance_threshold: int = 100_000,
                 cv_rate_threshold: float = 10e6 / 3600.0,
                 max_iters: int | None = None) -> None:
        # no estimator_list: the roster is the manual order
        super().__init__(cv_instance_threshold=cv_instance_threshold,
                         cv_rate_threshold=cv_rate_threshold,
                         max_iters=max_iters)
        self.grid_points = int(grid_points)

    def search(self, data: Dataset, metric: Metric, time_budget: float,
               seed: int = 0) -> SearchResult:
        """Run ordered per-learner randomised grid search within the budget."""
        rng = np.random.default_rng(seed)
        runner = self._runner(data, metric, time_budget, seed)
        learners = runner.learners
        schedule = [(n, share) for n, share in _ORDER_AND_SHARE if n in learners]
        total_share = sum(share for _, share in schedule)
        for lname, share in schedule:
            space = learners[lname].space_fn(data.n, data.task)
            deadline = runner.elapsed + time_budget * share / total_share
            # the first trial of each learner uses H2O-ish defaults (the
            # middle of the grid), then random grid points
            first = True
            while runner.elapsed < deadline and not runner.out_of_budget:
                cfg = grid_sample(space, rng, self.grid_points, middle=first)
                first = False
                runner.run_trial(lname, cfg)
        # spend any leftover budget on more grid search over all learners
        while not runner.out_of_budget:
            lname = schedule[int(rng.integers(0, len(schedule)))][0]
            space = learners[lname].space_fn(data.n, data.task)
            runner.run_trial(lname, grid_sample(space, rng, self.grid_points))
        return runner.result()
