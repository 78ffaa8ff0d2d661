"""Random / grid sampling baselines (and helpers for H2O-like)."""

from __future__ import annotations

import numpy as np

from ..core.controller import SearchResult
from ..core.space import SearchSpace
from ..data.dataset import Dataset
from ..metrics.registry import Metric
from .base import AutoMLSystem

__all__ = ["RandomSearch", "grid_sample"]


def grid_sample(space: SearchSpace, rng: np.random.Generator,
                grid_points: int = 7, middle: bool = False) -> dict:
    """One configuration from a discretised grid of the unit cube.

    ``middle=True`` returns the grid's central point (a "default" config).
    """
    if grid_points < 2:
        raise ValueError("grid_points must be >= 2")
    levels = np.linspace(0.0, 1.0, grid_points)
    if middle:
        u = np.full(space.dim, levels[grid_points // 2])
    else:
        u = levels[rng.integers(0, grid_points, size=space.dim)]
    return space.from_unit(u)


class RandomSearch(AutoMLSystem):
    """Uniform random search over the joint learner/config space."""

    name = "RandomSearch"

    def search(self, data: Dataset, metric: Metric, time_budget: float,
               seed: int = 0) -> SearchResult:
        """Run uniform random search within the budget."""
        rng = np.random.default_rng(seed)
        runner = self._runner(data, metric, time_budget, seed)
        spaces = {n: s.space_fn(data.n, data.task)
                  for n, s in runner.learners.items()}
        names = list(spaces)
        while not runner.out_of_budget:
            lname = names[int(rng.integers(0, len(names)))]
            runner.run_trial(lname, spaces[lname].sample(rng))
        return runner.result()
