"""FLAML itself (and its §5.2 ablations) behind the common baseline
interface, so the harness can run every system uniformly.

Ablations (Figure 7/8):

* ``roundrobin`` — learners take turns instead of ECI-based sampling;
* ``fulldata``   — every trial uses the full training data;
* ``cv``         — cross-validation regardless of the thresholding rule.
"""

from __future__ import annotations

from ..core.controller import SearchController, SearchResult
from ..data.dataset import Dataset
from ..metrics.registry import Metric
from .base import AutoMLSystem

__all__ = ["FLAMLSystem", "make_ablation", "ABLATIONS"]


class FLAMLSystem(AutoMLSystem):
    """The paper's system, runnable by the benchmark harness."""

    name = "FLAML"

    def __init__(
        self,
        estimator_list: list[str] | None = None,
        init_sample_size: int = 10_000,
        sample_growth: float = 2.0,
        learner_selection: str = "eci",
        use_sampling: bool = True,
        resampling_override: str | None = None,
        random_init: bool = False,
        cv_instance_threshold: int = 100_000,
        cv_rate_threshold: float = 10e6 / 3600.0,
        fitted_cost_model: bool = False,
        n_workers: int = 1,
        backend: str | None = None,
        trial_cache: bool = True,
        name: str | None = None,
    ) -> None:
        super().__init__(
            estimator_list=estimator_list,
            cv_instance_threshold=cv_instance_threshold,
            cv_rate_threshold=cv_rate_threshold,
        )
        self.init_sample_size = int(init_sample_size)
        self.sample_growth = float(sample_growth)
        self.learner_selection = learner_selection
        self.use_sampling = bool(use_sampling)
        self.resampling_override = resampling_override
        self.random_init = random_init
        self.fitted_cost_model = fitted_cost_model
        self.n_workers = int(n_workers)
        self.backend = backend
        self.trial_cache = bool(trial_cache)
        if name:
            self.name = name

    def search(self, data: Dataset, metric: Metric, time_budget: float,
               seed: int = 0) -> SearchResult:
        """Run FLAML's controller within the budget, with up to
        ``n_workers`` trials in flight on ``backend`` (default: serial
        for one worker, thread for more)."""
        return SearchController(
            data, self._learners(data.task), metric,
            time_budget=time_budget,
            n_workers=self.n_workers,
            seed=seed,
            init_sample_size=self.init_sample_size,
            sample_growth=self.sample_growth,
            learner_selection=self.learner_selection,
            use_sampling=self.use_sampling,
            resampling_override=self.resampling_override,
            random_init=self.random_init,
            cv_instance_threshold=self.cv_instance_threshold,
            cv_rate_threshold=self.cv_rate_threshold,
            fitted_cost_model=self.fitted_cost_model,
            backend=self.backend,
            trial_cache=self.trial_cache,
        ).run()


#: ablation name -> constructor kwargs overriding one strategy component
ABLATIONS: dict[str, dict] = {
    "roundrobin": {"learner_selection": "roundrobin"},
    "fulldata": {"use_sampling": False},
    "cv": {"resampling_override": "cv"},
}


def make_ablation(which: str, **kw) -> FLAMLSystem:
    """Build one of the paper's three ablated FLAML variants."""
    try:
        overrides = ABLATIONS[which]
    except KeyError:
        raise ValueError(
            f"unknown ablation {which!r}; known: {sorted(ABLATIONS)}"
        ) from None
    return FLAMLSystem(name=which, **{**kw, **overrides})
