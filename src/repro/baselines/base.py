"""Shared machinery for the comparator AutoML systems.

Every baseline implements :meth:`AutoMLSystem.search` and runs its
trials through one :class:`BudgetedRunner`: each trial is a
:class:`~repro.exec.TrialSpec` resolved by an
:class:`~repro.exec.ExecutionEngine` over a serial executor, one at a
time, and committed to the same :class:`~repro.core.controller.TrialLog`
FLAML's controller commits to.  So every system produces the same
:class:`~repro.core.controller.SearchResult` (with per-trial
:class:`TrialRecord` rows, failures included), and the benchmark harness
can slice best-so-far curves out of any system uniformly.
"""

from __future__ import annotations

import time

import numpy as np

from ..core.controller import SearchResult, TrialLog, TrialRecord
from ..core.registry import LearnerSpec, all_learners, default_estimator_list
from ..core.resampling import choose_resampling
from ..data.dataset import Dataset
from ..exec import ExecutionEngine, SerialExecutor, TrialSpec
from ..metrics.registry import Metric

__all__ = ["AutoMLSystem", "BudgetedRunner"]


class AutoMLSystem:
    """Base class: a named system that searches within a time budget.

    The settings the systems share: ``estimator_list`` (default: the
    default learners that support the task), the resampling thresholds
    of :func:`~repro.core.resampling.choose_resampling`, and
    ``max_iters``, a cap on the number of trials (``None``: only the
    budget ends the search).  FLAML's own search takes no trial cap, and
    H2O's roster is its manual order, so each leaves one of them unset.
    """

    name = "base"

    def __init__(self, estimator_list: list[str] | None = None,
                 cv_instance_threshold: int = 100_000,
                 cv_rate_threshold: float = 10e6 / 3600.0,
                 max_iters: int | None = None) -> None:
        self.estimator_list = estimator_list
        self.cv_instance_threshold = cv_instance_threshold
        self.cv_rate_threshold = cv_rate_threshold
        self.max_iters = max_iters

    def search(self, data: Dataset, metric: Metric, time_budget: float,
               seed: int = 0) -> SearchResult:
        """Run the system's search within the budget; returns a SearchResult."""
        raise NotImplementedError

    def _learners(self, task: str) -> dict[str, LearnerSpec]:
        names = self.estimator_list or default_estimator_list(task)
        available = all_learners()
        return {n: available[n] for n in names}

    def _runner(self, data: Dataset, metric: Metric, time_budget: float,
                seed: int) -> BudgetedRunner:
        """A runner over this system's learners, with the resampling the
        paper's thresholding rule picks for ``data`` and the budget."""
        resampling = choose_resampling(
            data.n, data.d, time_budget,
            instance_threshold=self.cv_instance_threshold,
            rate_threshold=self.cv_rate_threshold,
        )
        return BudgetedRunner(
            data, self._learners(data.task), metric,
            time_budget, resampling, seed=seed, max_iters=self.max_iters,
        )


class BudgetedRunner:
    """Runs trials one at a time against a wall-clock budget (shared by
    baselines).  ``max_iters`` caps the number of trials."""

    def __init__(
        self,
        data: Dataset,
        learners: dict[str, LearnerSpec],
        metric: Metric,
        time_budget: float,
        resampling: str,
        seed: int = 0,
        max_iters: int | None = None,
    ) -> None:
        self.data = data
        self.learners = learners
        self.metric = metric
        self.time_budget = float(time_budget)
        self.resampling = resampling
        self.seed = seed
        self.max_iters = max_iters
        self._labels = np.unique(data.y) if data.is_classification else None
        # no trial cache: every proposal a baseline makes trains
        self._engine = ExecutionEngine(SerialExecutor(data), cache=None)
        self._log = TrialLog(resampling)
        self._start = time.perf_counter()

    @property
    def trials(self) -> list[TrialRecord]:
        """The trials recorded so far, in commit order."""
        return self._log.trials

    @property
    def best_error(self) -> float:
        """The lowest error recorded so far (inf before any success)."""
        return self._log.best_error

    @property
    def elapsed(self) -> float:
        """Wall-clock seconds since the runner started."""
        return time.perf_counter() - self._start

    @property
    def out_of_budget(self) -> bool:
        """True once the time budget or trial cap is exhausted."""
        if self.max_iters is not None and len(self.trials) >= self.max_iters:
            return True
        return self.elapsed >= self.time_budget

    def run_trial(self, learner: str, config: dict,
                  sample_size: int | None = None) -> float:
        """Evaluate one configuration, append a TrialRecord, return error."""
        s = sample_size or self.data.n
        outcome = self._engine.run(TrialSpec(
            learner=learner,
            estimator_cls=self.learners[learner].estimator_cls(self.data.task),
            config=config,
            sample_size=s,
            resampling=self.resampling,
            metric=self.metric,
            seed=self.seed,
            train_time_limit=max(self.time_budget - self.elapsed, 0.01),
            labels=self._labels,
        ))
        self._log.commit(learner, config, s, outcome, self.elapsed)
        return outcome.error

    def result(self) -> SearchResult:
        """Package the trials recorded so far into a SearchResult."""
        return self._log.result(self.elapsed)
