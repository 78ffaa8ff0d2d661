"""The AutoML controller: steps 0-3 of Figure 3 in a budgeted loop.

Per iteration:

0. (once) the resampling proposer fixes r via the thresholding rule;
1. the learner proposer samples l with P ∝ 1/ECI(l);
2. the per-learner search thread proposes (h, s) — either a FLOW2 step at
   the current sample size or the incumbent config at a grown sample;
3. the trial runs, and (ε̃, κ) feed back into the ECI state and FLOW2.

The controller also implements the ablation variants of §5.2 as flags:
``learner_selection='roundrobin'``, ``use_sampling=False`` (fulldata), and
``resampling_override='cv'`` — used by
``repro.baselines.flaml_system.make_ablation``.

Parallel search threads (paper appendix) are the same loop with more
workers: "After choosing one learner based on ECI to perform one search
iteration, if there are extra available resources, we can sample another
learner by ECI, and so on.  When one search iteration for a learner
finishes, the resource is released and we select a learner again using
updated ECIs."  The loop keeps up to ``n_workers`` trials in flight and
commits them from one heap; with one worker it is the sequential loop
above.  Trials are submitted through the :mod:`repro.exec` engine, so the
substrate is pluggable and an LRU trial cache short-circuits repeated
proposals.  The search runs on one of two clocks:

* the wall clock (every executor backend): completions commit in
  *launch order*.  Execution overlaps freely, but feedback, trial
  numbering and therefore the proposal sequence do not depend on racy
  completion order — fixed seeds give reproducible trial logs on any
  backend;
* the virtual clock (``backend="virtual"``): each trial runs inline as
  soon as it is launched and finishes, in virtual time, at its launch
  time plus its cost; completions commit in finish order, so feedback
  becomes visible exactly when it would on ``n_workers`` real workers
  and the log's ``automl_time`` values are the simulated parallel clock.
"""

from __future__ import annotations

import heapq
import time
from dataclasses import dataclass, field

import numpy as np

from ..data.dataset import Dataset
from ..exec import (
    ExecutionEngine,
    RetryPolicy,
    TrialCache,
    TrialExecutor,
    TrialSpec,
    make_executor,
)
from ..metrics.registry import Metric
from .eci import LearnerProposer
from .registry import LearnerSpec
from .resampling import resolve_resampling
from .searchstate import SearchThread

__all__ = ["TrialRecord", "SearchResult", "TrialLog", "SearchController"]


@dataclass
class TrialRecord:
    """One row of the trial log (Figure 1 / Table 3 are drawn from these)."""

    iteration: int
    automl_time: float  # total time from start when the trial finished
    learner: str
    config: dict
    sample_size: int
    resampling: str
    error: float  # validation error ε̃
    cost: float  # trial cost κ (seconds)
    kind: str  # 'search' | 'sample_up'
    improved_global: bool
    eci_snapshot: dict[str, float] = field(default_factory=dict)
    #: formatted traceback (or engine reason) when the trial failed;
    #: ``None`` for successful trials
    failure: str | None = None
    #: total executions of this trial (> 1 when the engine's RetryPolicy
    #: re-ran it after a crash or timeout); the failure text of a trial
    #: that exhausted its retries also carries the backoff history
    attempts: int = 1


@dataclass
class SearchResult:
    """Outcome of a controller run.

    ``cache_hits`` counts trials answered by the trial cache without any
    training; ``backend``/``n_workers`` record the execution substrate
    the search ran on.
    """

    best_learner: str | None
    best_config: dict | None
    best_sample_size: int
    best_error: float
    resampling: str
    trials: list[TrialRecord]
    wall_time: float
    best_model: object | None = None
    cache_hits: int = 0
    backend: str = "serial"
    n_workers: int = 1

    @property
    def n_trials(self) -> int:
        """Number of trials recorded in the log."""
        return len(self.trials)

    @property
    def failures(self) -> list[TrialRecord]:
        """The trials that failed (each carries its formatted traceback
        in ``.failure``), in log order."""
        return [t for t in self.trials if t.failure is not None]


class TrialLog:
    """The trial log one search commits to: it numbers the trials,
    tracks the incumbent (the first trial with the lowest error) and
    packages the :class:`SearchResult`.  ``keep_models`` also keeps the
    incumbent's fitted model."""

    def __init__(self, resampling: str, keep_models: bool = False) -> None:
        self.resampling = resampling
        self.keep_models = keep_models
        self.trials: list[TrialRecord] = []
        self.best_error = np.inf
        self._best = (None, None, 0)  # learner, config, sample_size
        self._best_model = None

    def commit(self, learner: str, config: dict, sample_size: int,
               outcome, automl_time: float, kind: str = "search",
               eci_snapshot: dict[str, float] | None = None) -> None:
        """Append one resolved trial (a ``TrialOutcome``) to the log."""
        improved = outcome.error < self.best_error
        if improved:
            self.best_error = outcome.error
            self._best = (learner, dict(config), sample_size)
            if self.keep_models:
                self._best_model = outcome.model
        self.trials.append(TrialRecord(
            iteration=len(self.trials) + 1,
            automl_time=automl_time,
            learner=learner,
            config=dict(config),
            sample_size=sample_size,
            resampling=self.resampling,
            error=outcome.error,
            cost=outcome.cost,
            kind=kind,
            improved_global=improved,
            eci_snapshot=eci_snapshot or {},
            failure=outcome.failure,
            attempts=outcome.attempts,
        ))

    def result(self, wall_time: float, **substrate) -> SearchResult:
        """The log as a SearchResult; ``substrate`` fills its
        ``cache_hits``/``backend``/``n_workers`` fields."""
        learner, config, sample_size = self._best
        return SearchResult(
            best_learner=learner,
            best_config=config,
            best_sample_size=sample_size,
            best_error=float(self.best_error),
            resampling=self.resampling,
            trials=self.trials,
            wall_time=wall_time,
            best_model=self._best_model,
            **substrate,
        )


def _all_plane_aware(learners: dict[str, LearnerSpec], task: str) -> bool:
    """Whether every searched learner consumes binned-plane views (the
    precondition for shipping codes instead of floats to workers)."""
    try:
        return bool(learners) and all(
            getattr(spec.estimator_cls(task), "_uses_binned_plane", False)
            for spec in learners.values()
        )
    except ValueError:  # a learner not supporting the task: be safe
        return False


class SearchController:
    """Budget-constrained, ECI-scheduled trial loop over ``n_workers``.

    ``backend`` names the substrate: "serial", "thread" or "process"
    (built here), or "virtual" for the virtual clock over a serial
    executor.  An injected ``executor`` names its own substrate;
    otherwise the default is serial for one worker and thread for more.
    ``max_iters`` caps the number of trials (``None``: only the budget,
    ``stop_at_error`` and ``stop_event`` end the search).
    """

    SELECTION_MODES = ("eci", "roundrobin", "eci-argmin")

    def __init__(
        self,
        data: Dataset,
        learners: dict[str, LearnerSpec],
        metric: Metric,
        time_budget: float = 60.0,
        n_workers: int = 1,
        seed: int = 0,
        init_sample_size: int = 10_000,
        sample_growth: float = 2.0,
        n_splits: int = 5,
        holdout_ratio: float = 0.1,
        learner_selection: str = "eci",
        use_sampling: bool = True,
        resampling_override: str | None = None,
        random_init: bool = False,
        cv_instance_threshold: int = 100_000,
        cv_rate_threshold: float = 10e6 / 3600.0,
        max_iters: int | None = None,
        keep_models: bool = False,
        stop_at_error: float | None = None,
        starting_points: dict[str, dict] | None = None,
        fitted_cost_model: bool = False,
        backend: str | None = None,
        executor: TrialExecutor | None = None,
        trial_cache: TrialCache | bool = True,
        trial_time_limit: float | None = None,
        horizon: int = 1,
        seasonal_period: int | None = None,
        retry_policy: RetryPolicy | None = None,
        stop_event=None,
        tenant: str | None = None,
    ) -> None:
        if learner_selection not in self.SELECTION_MODES:
            raise ValueError(f"unknown learner_selection {learner_selection!r}")
        if time_budget <= 0:
            raise ValueError("time_budget must be positive")
        if n_workers < 1:
            raise ValueError("n_workers must be >= 1")
        if not learners:
            raise ValueError("need at least one learner")
        self.data = data
        self.learners = dict(learners)
        self.metric = metric
        self.time_budget = float(time_budget)
        self.n_workers = int(n_workers)
        self.seed = int(seed)
        self.n_splits = n_splits
        self.holdout_ratio = holdout_ratio
        self.learner_selection = learner_selection
        self.max_iters = max_iters
        self.keep_models = keep_models
        self.horizon = max(1, int(horizon))
        self.seasonal_period = seasonal_period
        self.virtual = backend == "virtual"
        # appendix: "one may search for the cheapest model with error below
        # a threshold" — stop as soon as the target error is reached
        self.stop_at_error = stop_at_error
        self.stop_event = stop_event  # cooperative cancel (fit service)

        self.rng = np.random.default_rng(seed)
        # step 0: resampling strategy (fixed for the run) plus the
        # sample-size ceiling the search threads grow toward
        self.resampling, self._thread_full_size = resolve_resampling(
            data.n, data.d, data.task, time_budget,
            override=resampling_override,
            instance_threshold=cv_instance_threshold,
            rate_threshold=cv_rate_threshold,
            horizon=self.horizon,
        )
        self.proposer = LearnerProposer(
            list(self.learners), self.rng, c=sample_growth,
            cost_constants={n: s.cost_constant for n, s in self.learners.items()},
            # §4.2 ECI₂ refinement: learn cost-vs-sample-size exponents
            # online instead of assuming linear training complexity
            fitted_cost_model=fitted_cost_model,
        )
        # idle search threads per learner; the first thread of the i-th
        # learner is seeded seed + i.  A learner picked while all of its
        # threads are busy (only with n_workers > 1) gets one more
        # thread, seeded seed + 1000·k.  Unless random_init is set, that
        # thread starts at the learner's low-cost initial config, as the
        # first thread does without a starting point, so its first
        # proposal usually repeats the learner's first trial.
        self._init_sample_size = init_sample_size
        self._sample_growth = sample_growth
        self._use_sampling = bool(use_sampling)
        self._random_init = bool(random_init)
        self._extra_threads = 0
        self._idle: dict[str, list[SearchThread]] = {
            name: [self._make_thread(
                name, seed=self.seed + i,
                starting_point=(starting_points or {}).get(name),
            )]
            for i, name in enumerate(self.learners)
        }
        self._labels = np.unique(data.y) if data.is_classification else None
        self._rr_index = 0  # roundrobin pointer
        own_executor = executor is None
        if executor is None:
            if backend is None:
                backend = "serial" if self.n_workers == 1 else "thread"
            substrate = "serial" if self.virtual else backend
            # process workers pre-warm their binned-data plane with the
            # exact split/codes context the first trials will request
            warmup = None if self.resampling == "temporal" else {
                "resampling": self.resampling,
                "holdout_ratio": float(self.holdout_ratio),
                "seed": self.seed,
                "n_splits": int(self.n_splits),
                "sample_size": int(
                    min(init_sample_size, self._thread_full_size)
                    if self._use_sampling else self._thread_full_size
                ),
                # when every searched learner consumes BinnedMatrix
                # views, process workers for large data can receive
                # pre-binned codes instead of the float matrix
                "plane_learners_only": _all_plane_aware(
                    self.learners, data.task
                ),
            }
            executor = make_executor(
                substrate, data,
                n_workers=self.n_workers if substrate != "serial" else 1,
                warmup=warmup,
            )
        if isinstance(trial_cache, TrialCache):
            cache = trial_cache
        else:
            cache = TrialCache() if trial_cache else None
        self.engine = ExecutionEngine(
            executor, cache=cache, trial_time_limit=trial_time_limit,
            own_executor=own_executor, retry_policy=retry_policy,
            tenant=tenant,
        )

    # ------------------------------------------------------------------
    def _make_thread(self, name: str, seed: int,
                     starting_point: dict | None = None) -> SearchThread:
        return SearchThread(
            name,
            self.learners[name].space_fn(self._thread_full_size,
                                         self.data.task),
            full_size=self._thread_full_size,
            init_sample_size=self._init_sample_size,
            sample_growth=self._sample_growth,
            seed=seed,
            use_sampling=self._use_sampling,
            random_init=self._random_init,
            starting_point=starting_point,
        )

    def _next_learner(self) -> str:
        """Step 1: 'eci' samples with P ∝ 1/ECI; the other modes are the
        §5.2 ablations."""
        if self.learner_selection == "roundrobin":
            names = list(self.learners)
            name = names[self._rr_index % len(names)]
            self._rr_index += 1
            return name
        if self.learner_selection == "eci-argmin":
            return self.proposer.propose_argmin()
        return self.proposer.propose()

    def _launch(self, train_time_limit: float):
        """Steps 1-2 for one idle worker: pick a learner, take one of its
        idle threads, submit the proposed trial.  Returns the engine
        handle and the (learner, thread, config, s, kind) to commit."""
        learner = self._next_learner()
        idle = self._idle[learner]
        if idle:
            thread = idle.pop()
        else:
            self._extra_threads += 1
            thread = self._make_thread(
                learner, seed=self.seed + 1000 * self._extra_threads
            )
        config, s, kind = thread.propose(self.proposer.states[learner])
        if self.engine.trial_time_limit is not None:
            train_time_limit = min(train_time_limit,
                                   self.engine.trial_time_limit)
        spec = TrialSpec(
            learner=learner,
            estimator_cls=self.learners[learner].estimator_cls(self.data.task),
            config=config,
            sample_size=s,
            resampling=self.resampling,
            metric=self.metric,
            n_splits=self.n_splits,
            holdout_ratio=self.holdout_ratio,
            seed=self.seed,
            train_time_limit=max(train_time_limit, 0.01),
            labels=self._labels,
            horizon=self.horizon,
            seasonal_period=self.seasonal_period,
        )
        return self.engine.submit(spec), (learner, thread, config, s, kind)

    def _may_launch(self, now: float, launched: int,
                    best_error: float) -> bool:
        return (
            now < self.time_budget
            and (self.max_iters is None or launched < self.max_iters)
            and (self.stop_at_error is None or best_error > self.stop_at_error)
            and not (self.stop_event is not None and self.stop_event.is_set())
        )

    # ------------------------------------------------------------------
    def run(self) -> SearchResult:
        """Execute the budgeted trial loop and return the SearchResult."""
        try:
            return self._run()
        finally:
            self.engine.shutdown()

    def _run(self) -> SearchResult:
        """Keep up to ``n_workers`` trials in flight; commit them from one
        heap keyed by launch order (wall clock) or by virtual finish time,
        ties broken by launch order (virtual clock).

        A trial that exceeds the hard time limit is abandoned (recorded
        as inf-error) but its worker is still busy until the underlying
        call returns; such "zombies" keep occupying a worker slot so new
        trials are only submitted when a worker can actually start them —
        otherwise a single hung trial would queue successors behind it
        and time them out in cascade before they ever ran.
        """
        virtual = self.virtual
        limit = self.engine.trial_time_limit
        start = time.perf_counter()
        finished = 0.0  # virtual clock: the last committed finish time

        def clock() -> float:
            return finished if virtual else time.perf_counter() - start

        log = TrialLog(self.resampling, keep_models=self.keep_models)
        heap: list = []  # (order key, launch index, handle, trial)
        zombies: list = []  # timed-out handles whose workers still run
        launched = 0
        while True:
            zombies[:] = [z for z in zombies if not z.worker_done()]
            while (
                len(heap) + len(zombies) < self.n_workers
                and self._may_launch(clock(), launched, log.best_error)
            ):
                # the advisory train_time_limit: what is left of the
                # budget, or all of it on the virtual clock, where trials
                # run one at a time and overlap only in virtual time
                handle, trial = self._launch(
                    self.time_budget if virtual
                    else self.time_budget - clock()
                )
                if virtual:
                    # the engine runs the trial now; it finishes at its
                    # launch time plus its cost
                    key = finished + handle.outcome(timeout=limit).cost
                else:
                    key = launched
                heapq.heappush(heap, (key, launched, handle, trial))
                launched += 1
            if not heap:
                if zombies and self._may_launch(clock(), launched,
                                                log.best_error):
                    # every worker is stuck on an abandoned trial: wait
                    # for one to free up instead of ending the search
                    time.sleep(min(0.02, max(self.time_budget - clock(), 0)))
                    continue
                break
            key, _, handle, (learner, thread, config, s, kind) = (
                heapq.heappop(heap)
            )
            if virtual:
                finished = key
            timeout = None
            if limit is not None:
                timeout = max(limit - (time.perf_counter() - handle.submit_time),
                              0.0)
            outcome = handle.outcome(timeout=timeout)
            # any attempt this handle abandoned (timed out but the
            # backend could not cancel it) still burns a worker slot —
            # including abandoned attempts of a trial whose retry later
            # succeeded, so track worker_done(), not just timed_out
            if not handle.worker_done():
                zombies.append(handle)
            # step 3: feedback, then the thread is idle again
            thread.tell(outcome.error)
            self._idle[learner].append(thread)
            self.proposer.record(learner, outcome.error, outcome.cost,
                                 sample_size=s)
            log.commit(learner, config, s, outcome, clock(), kind=kind,
                       eci_snapshot=self.proposer.eci_values())
        return log.result(
            clock(),
            cache_hits=self.engine.cache_hits,
            # the engine's backend after any degradation
            backend="virtual" if virtual else self.engine.backend,
            n_workers=self.n_workers,
        )
