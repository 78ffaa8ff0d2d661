"""Trial-execution interface: what a trial *is* and how backends run one.

The search controller (``repro.core.controller``) describes each
trial as a :class:`TrialSpec` — the χ = (learner, hyperparameters,
sample size, resampling) of the paper plus the evaluation context — and
submits it to a :class:`TrialExecutor`.  The executor decides *where*
the trial runs (:data:`BACKENDS` names them):

* :class:`~repro.exec.serial.SerialExecutor` — inline, in the caller;
* :class:`~repro.exec.multiplex.LeasedExecutor` — a thread pool shared
  by leases (the thread backend is a private pool's one lease);
* :class:`~repro.exec.process.ProcessExecutor` — a process pool (true
  multi-core parallelism with crash isolation).

``submit`` returns a :class:`TrialHandle`; ``handle.result()`` blocks
until the :class:`~repro.core.evaluate.TrialOutcome` is available.  The
scheduler-facing conveniences (trial caching, inf-error conversion of
crashes and timeouts) live one layer up in
:class:`~repro.exec.engine.ExecutionEngine`.
"""

from __future__ import annotations

import abc
import concurrent.futures
import multiprocessing
import os
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from ..core.evaluate import TrialOutcome, evaluate_config
from ..data.dataset import Dataset
from ..faults import InjectedCrash, InjectedFault, fault_hook
from ..metrics.registry import Metric

__all__ = [
    "BACKENDS",
    "TrialSpec",
    "TrialHandle",
    "ImmediateHandle",
    "FutureHandle",
    "TrialExecutor",
    "PoolBrokenError",
    "run_spec",
    "make_executor",
]


#: the executor backends :func:`make_executor` builds, by name
BACKENDS = ("serial", "thread", "process")


class PoolBrokenError(RuntimeError):
    """An executor's worker substrate is broken beyond its own repair
    budget (e.g. a process pool that keeps dying on rebuild).  The
    engine reacts by degrading to the next backend down the
    process → thread → serial ladder, whose thread rung is a one-lease
    :class:`~repro.exec.multiplex.SharedWorkerPool`."""


def _freeze(value):
    """Make one config value hashable for cache keys."""
    if isinstance(value, np.generic):
        value = value.item()
    if isinstance(value, (list, tuple, np.ndarray)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass
class TrialSpec:
    """One trial χ = (learner, config, sample size, resampling) + context.

    ``train_time_limit`` is advisory: learners that accept it stop
    training when it elapses.  Hard per-trial limits are enforced by the
    engine at ``result()`` time instead.
    """

    learner: str
    estimator_cls: type
    config: dict
    sample_size: int
    resampling: str
    metric: Metric
    n_splits: int = 5
    holdout_ratio: float = 0.1
    seed: int = 0
    train_time_limit: float | None = None
    labels: np.ndarray | None = field(default=None, repr=False)
    # forecast-trial context (resampling == "temporal" only): the
    # rolling-origin validation width and the series' seasonal period
    horizon: int = 1
    seasonal_period: int | None = None
    #: retry attempt number (0 = first attempt).  Excluded from the
    #: cache key — a retried trial computes the same result — but part
    #: of fault-injection keys, so a retry re-rolls its fault dice
    #: instead of deterministically re-hitting the same injected fault
    attempt: int = 0

    def cache_key(self) -> tuple:
        """Identity of the trial's *result* (excludes time limits, which
        only bound how long training may take, not what it computes)."""
        cfg = tuple(sorted((k, _freeze(v)) for k, v in self.config.items()))
        return (
            self.learner,
            cfg,
            int(self.sample_size),
            self.resampling,
            self.metric.name,
            int(self.n_splits),
            float(self.holdout_ratio),
            int(self.seed),
            int(self.horizon),
            int(self.seasonal_period or 0),
        )


class TrialHandle(abc.ABC):
    """A submitted trial; ``result`` blocks until the outcome is ready."""

    @abc.abstractmethod
    def result(self, timeout: float | None = None) -> TrialOutcome:
        """Return the outcome, raising on worker crash or timeout."""

    @abc.abstractmethod
    def done(self) -> bool:
        """Whether the outcome is already available."""

    def cancel(self) -> bool:
        """Best-effort cancellation of a trial the caller has abandoned.

        Returns ``True`` when the backend could actually stop the work.
        Only a *queued, not yet started* thread/process task is truly
        cancellable; a trial already running on a thread cannot be
        killed (Python threads are not interruptible) and keeps burning
        its worker slot until its advisory ``train_time_limit`` stops
        training — callers must treat such slots as busy until the
        underlying call returns (see ``EngineHandle.worker_done``).
        """
        return False


class ImmediateHandle(TrialHandle):
    """Handle for a trial that already ran (serial backend, cache hits).

    ``error`` carries an exception raised while running the trial
    inline; it is re-raised at :meth:`result` time so the serial backend
    surfaces infrastructure failures exactly like the pooled backends do
    (at resolve time, where the engine classifies them as crashes) —
    not at submit time.
    """

    def __init__(self, outcome: TrialOutcome | None = None,
                 error: BaseException | None = None) -> None:
        if (outcome is None) == (error is None):
            raise ValueError("exactly one of outcome/error is required")
        self._outcome = outcome
        self._error = error

    def result(self, timeout: float | None = None) -> TrialOutcome:
        if self._error is not None:
            raise self._error
        return self._outcome

    def done(self) -> bool:
        return True


class FutureHandle(TrialHandle):
    """Handle wrapping a ``concurrent.futures.Future`` (thread/process)."""

    def __init__(self, future: concurrent.futures.Future) -> None:
        self.future = future

    def result(self, timeout: float | None = None) -> TrialOutcome:
        return self.future.result(timeout=timeout)

    def done(self) -> bool:
        return self.future.done()

    def cancel(self) -> bool:
        return self.future.cancel()


def _check_trial_faults(spec: TrialSpec) -> None:
    """Consult the trial-level fault sites (no-ops without a plan).

    Keys include the spec's cache key *and* its attempt number: the same
    trial re-rolls independently per retry, so a plan with p < 1 is
    absorbed by retries rather than failing the same trial forever.
    """
    key = (spec.cache_key(), spec.attempt)
    rule = fault_hook("worker.hang", key=key)
    if rule is not None:
        time.sleep(rule.param if rule.param is not None else 30.0)
    rule = fault_hook("worker.crash", key=key)
    if rule is not None:
        if rule.hard:
            from . import process as _process_mod

            # a real worker death (skips atexit/finally, like a
            # segfault) — but only inside an actual pool worker: on an
            # in-process backend os._exit would take the driver down,
            # so there the rule degrades to the soft crash below
            if (multiprocessing.parent_process() is not None
                    and _process_mod._WORKER_DATA is not None):
                os._exit(13)
        raise InjectedCrash(
            f"injected worker.crash (trial {spec.learner!r} "
            f"attempt {spec.attempt})"
        )
    rule = fault_hook("trial.exception", key=key)
    if rule is not None:
        raise InjectedFault(
            f"injected trial.exception (trial {spec.learner!r} "
            f"attempt {spec.attempt})"
        )


def run_spec(data: Dataset, spec: TrialSpec) -> TrialOutcome:
    """Execute one TrialSpec against a dataset (the backend work unit)."""
    try:
        _check_trial_faults(spec)
    except InjectedFault:
        # mirrors evaluate_config's failed-trial convention: an in-trial
        # exception becomes an inf-error outcome with its traceback
        return TrialOutcome(
            error=float("inf"), cost=0.0, model=None,
            failure=traceback.format_exc(),
        )
    return evaluate_config(
        data,
        spec.estimator_cls,
        spec.config,
        sample_size=spec.sample_size,
        resampling=spec.resampling,
        metric=spec.metric,
        n_splits=spec.n_splits,
        holdout_ratio=spec.holdout_ratio,
        seed=spec.seed,
        train_time_limit=spec.train_time_limit,
        labels=spec.labels,
        horizon=spec.horizon,
        seasonal_period=spec.seasonal_period,
    )


class TrialExecutor(abc.ABC):
    """Pluggable backend that turns TrialSpecs into TrialOutcomes.

    An executor is bound to one dataset for its lifetime so parallel
    backends can ship the (potentially large) arrays to workers once
    instead of once per trial.
    """

    backend: str = "abstract"

    def __init__(self, data: Dataset, n_workers: int = 1) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.data = data
        self.n_workers = int(n_workers)

    @abc.abstractmethod
    def submit(self, spec: TrialSpec) -> TrialHandle:
        """Schedule one trial; returns a handle to its future outcome."""

    def shutdown(self) -> None:
        """Release worker resources; pending handles may be abandoned."""

    def __enter__(self) -> "TrialExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()


def make_executor(backend: str, data: Dataset, n_workers: int = 1,
                  warmup: dict | None = None) -> TrialExecutor:
    """Build an executor by name, one of :data:`BACKENDS`.

    ``"thread"`` is the one lease of a private ``n_workers``-slot
    :class:`~repro.exec.multiplex.SharedWorkerPool`, which the lease
    stops, without waiting on abandoned trials, when it shuts down.
    ``warmup`` is the plane-warmup context for process workers (see
    :class:`~repro.exec.process.ProcessExecutor`); the in-process
    backends ignore it — they share the caller's plane, which the first
    trial warms inline.
    """
    from .multiplex import SharedWorkerPool
    from .process import ProcessExecutor
    from .serial import SerialExecutor

    if backend not in BACKENDS:
        raise ValueError(
            f"unknown backend {backend!r}; known: {', '.join(BACKENDS)}"
        )
    if backend == "process":
        return ProcessExecutor(data, n_workers=n_workers, warmup=warmup)
    if backend == "serial":
        return SerialExecutor(data, n_workers=n_workers)
    lease = SharedWorkerPool(n_workers).lease(data)
    lease.owns_pool = True
    return lease
