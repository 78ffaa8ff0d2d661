"""ExecutionEngine: the scheduler-facing facade over executor + cache.

Controllers never talk to a backend directly; they submit
:class:`~repro.exec.base.TrialSpec`s here.  The engine adds the policies
every scheduler wants regardless of backend:

* **trial caching** — a spec whose cache key was already evaluated
  resolves instantly with the stored error (cost = the lookup time);
* **crash isolation** — a worker that raises, dies, or cannot even be
  submitted to yields an inf-error outcome instead of an exception
  (matching ``evaluate_config``'s own failed-trial convention);
* **hard per-trial time limits** — ``outcome()`` bounds how long the
  caller waits; an overdue trial is cancelled if still queued, else
  abandoned (its worker keeps running into its advisory
  ``train_time_limit``) and recorded as inf-error;
* **retries** — with a :class:`RetryPolicy`, a crashed or timed-out
  trial is re-submitted (exponential backoff, deterministic jitter,
  bounded by a per-search retry budget) before an inf-error is
  committed.  Retries happen synchronously inside ``outcome()``, so
  launch-order commit determinism is preserved;
* **backend degradation** — an executor whose substrate is broken
  beyond repair (:class:`~repro.exec.base.PoolBrokenError`, e.g. a
  process pool that dies on every rebuild) is swapped for the next
  backend down the ``process → thread → serial`` ladder with one loud
  log line, mirroring the native→numpy kernel degradation contract.
  Every lease is a thread backend, so a fit-service lease drops to serial.
"""

from __future__ import annotations

import dataclasses
import logging
import time
import traceback

import numpy as np

from ..core.evaluate import TrialOutcome
from ..data.dataset import Dataset
from ..faults import stable_unit
from ..obs.metrics import REGISTRY
from ..obs.trace import ingest_spans
from .base import PoolBrokenError, TrialExecutor, TrialSpec
from .cache import TrialCache

__all__ = ["ExecutionEngine", "EngineHandle", "RetryPolicy"]

_log = logging.getLogger("repro.exec")

_TIMEOUT_EXCS = (TimeoutError,)
try:  # concurrent.futures.TimeoutError aliases TimeoutError on 3.11+
    from concurrent.futures import TimeoutError as _CFTimeoutError

    _TIMEOUT_EXCS = (TimeoutError, _CFTimeoutError)
except ImportError:  # pragma: no cover
    pass

#: backend degradation ladder (mirrors native→numpy: degrade once,
#: loudly, instead of thrashing a broken substrate forever)
_DEGRADE_LADDER = {"process": "thread", "thread": "serial"}


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """How the engine retries crashed / timed-out trials.

    ``max_attempts`` counts total executions (1 = retries disabled).
    Backoff before attempt ``k`` (k >= 1) is ``min(backoff_base *
    backoff_factor**(k-1), backoff_max)`` scaled by a deterministic
    jitter in ``[1 - jitter, 1]`` derived from the trial's identity —
    reproducible across runs and backends, unlike ``random.random()``.
    ``retry_budget`` bounds the *total* retries one engine (one search)
    may spend, so a systematically broken substrate cannot multiply the
    budget away; ``retry_on`` names the terminal statuses worth
    retrying (failed trials are deterministic learner errors and are
    not retried by default).
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    backoff_max: float = 2.0
    jitter: float = 0.5
    retry_budget: int | None = None
    retry_on: tuple[str, ...] = ("crash", "timeout")

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_for(self, attempt: int, key) -> float:
        """Deterministic backoff (seconds) before retry ``attempt``
        (1-based) of the trial identified by ``key``."""
        raw = min(
            self.backoff_base * self.backoff_factor ** (attempt - 1),
            self.backoff_max,
        )
        if not self.jitter:
            return raw
        u = stable_unit(("retry-backoff", key, attempt))
        return raw * (1.0 - self.jitter * u)


class EngineHandle:
    """One submitted trial, resolvable exactly once via :meth:`outcome`."""

    def __init__(self, engine: "ExecutionEngine", spec: TrialSpec,
                 handle=None, outcome: TrialOutcome | None = None,
                 cache_hit: bool = False) -> None:
        self.spec = spec
        self.cache_hit = cache_hit
        self.timed_out = False
        self.attempt = 0
        self.backoffs: list[float] = []
        self.submit_time = time.perf_counter()
        self._first_submit_time = self.submit_time
        self._engine = engine
        self._handle = handle
        self._outcome = outcome
        #: handles of timed-out attempts whose workers may still run
        self._abandoned: list = []

    def done(self) -> bool:
        """Whether :meth:`outcome` would return without blocking."""
        return self._outcome is not None or self._handle.done()

    def worker_done(self) -> bool:
        """Whether every backend call this handle issued has finished —
        distinct from :meth:`done` for timed-out attempts, whose
        abandoned workers may still be running and occupying slots."""
        if any(not h.done() for h in self._abandoned):
            return False
        return self._handle is None or self._handle.done()

    # ------------------------------------------------------------------
    def _resolve_once(self, timeout: float | None) -> tuple[str, TrialOutcome]:
        """Wait for the current attempt; classify its terminal status."""
        try:
            out = self._handle.result(timeout=timeout)
        except KeyboardInterrupt:
            raise
        except _TIMEOUT_EXCS:
            limit = f" ({timeout:.3g}s)" if timeout is not None else ""
            # a queued-but-unstarted task can be truly cancelled, freeing
            # its worker slot; a running one is merely abandoned (see
            # TrialHandle.cancel for where true cancellation is
            # impossible) and tracked so worker_done() reports it busy
            if not self._handle.cancel():
                self._abandoned.append(self._handle)
            return "timeout", TrialOutcome(
                error=float("inf"),
                cost=time.perf_counter() - self.submit_time,
                model=None,
                failure="trial abandoned: exceeded the engine trial time "
                        f"limit{limit}",
            )
        except Exception:
            # worker crash / broken pool / unpicklable payload: isolate it
            return "crash", TrialOutcome(
                error=float("inf"),
                cost=time.perf_counter() - self.submit_time,
                model=None,
                failure=traceback.format_exc(),
            )
        status = "failed" if out.failure is not None else "ok"
        return status, out

    def outcome(self, timeout: float | None = None) -> TrialOutcome:
        """Resolve the trial (blocking up to ``timeout`` seconds per
        attempt).

        Never raises for trial-level failures: a crashed worker or an
        expired timeout is retried under the engine's
        :class:`RetryPolicy` (if any) and, once attempts or budget run
        out, produces an inf-error outcome — the search moves on.  The
        resolved outcome is memoised, so calling again is free and
        idempotent.
        """
        if self._outcome is not None:
            return self._outcome
        engine = self._engine
        while True:
            status, out = self._resolve_once(timeout)
            if status in ("ok", "failed"):
                break
            policy = engine.retry_policy
            if policy is None or self.attempt + 1 >= policy.max_attempts:
                break
            if not engine._take_retry_token(status):
                break
            delay = engine.retry_policy.backoff_for(
                self.attempt + 1, self.spec.cache_key()
            )
            self.backoffs.append(delay)
            if delay > 0:
                time.sleep(delay)
            self.attempt += 1
            retry_spec = dataclasses.replace(self.spec, attempt=self.attempt)
            try:
                self._handle = engine._backend_submit(retry_spec)
            except KeyboardInterrupt:
                raise
            except Exception:
                status = "crash"
                out = TrialOutcome(
                    error=float("inf"),
                    cost=time.perf_counter() - self.submit_time,
                    model=None,
                    failure=traceback.format_exc(),
                )
                break
            self.submit_time = time.perf_counter()
            # retry attempts each get the engine-wide per-trial limit
            # (the caller's ``timeout`` bounded only the first attempt)
            timeout = engine.trial_time_limit
        self.timed_out = status == "timeout"
        if self.attempt > 0:
            out = dataclasses.replace(out, attempts=self.attempt + 1)
            if out.failure is not None:
                waits = ", ".join(f"{b:.3f}s" for b in self.backoffs)
                out = dataclasses.replace(
                    out,
                    failure=out.failure.rstrip("\n")
                    + f"\n[retries: {out.attempts} attempts, "
                      f"backoff: {waits}]",
                )
        if status in ("ok", "failed"):
            out = engine._absorb(self.spec, out)
        engine._observe(self, out, status)
        self._outcome = out
        return out


def dataset_token(data: Dataset) -> tuple:
    """Cheap fingerprint identifying a dataset for cache keys.

    A :class:`TrialCache` may outlive one search (warm restarts,
    re-tuning on refreshed data), so cached outcomes must be scoped to
    the data they were measured on — shape/task plus a CRC of a row
    sample (the same probe the binned plane uses for staleness) catches
    both different datasets and refreshed rows.
    """
    from ..data.binned import row_sample_crc

    return (
        data.name, data.task, int(data.n), int(data.d), row_sample_crc(data)
    )


class ExecutionEngine:
    """Submit trials through a backend with caching + failure policies."""

    def __init__(self, executor: TrialExecutor,
                 cache: TrialCache | None = None,
                 trial_time_limit: float | None = None,
                 own_executor: bool = True,
                 retry_policy: RetryPolicy | None = None,
                 tenant: str | None = None) -> None:
        self.executor = executor
        self.cache = cache
        self.trial_time_limit = trial_time_limit
        self.retry_policy = retry_policy
        self.retries_used = 0
        self.degradations: list[tuple[str, str]] = []
        #: tenant owning this search (multi-tenant fit service); labels
        #: the ``repro_tenant_*`` / ``repro_trial_cache_*`` series
        self.tenant = tenant
        self._own_executor = bool(own_executor)
        self._data_token = (
            dataset_token(executor.data) if cache is not None else None
        )
        # per-engine (= per-search) cache attribution: the TrialCache may
        # be shared across concurrent searches, whose store-wide counters
        # would misattribute hits between tenants
        self._cache_hits = 0
        self._cache_misses = 0
        tenant_labels = {"tenant": tenant} if tenant else {}
        self._m_cache_hit = REGISTRY.counter(
            "repro_trial_cache_total",
            "Trial-cache lookups by result.", result="hit", **tenant_labels,
        )
        self._m_cache_miss = REGISTRY.counter(
            "repro_trial_cache_total",
            "Trial-cache lookups by result.", result="miss", **tenant_labels,
        )
        self._bind_backend_metrics()

    def _bind_backend_metrics(self) -> None:
        """(Re-)resolve the per-backend series; called again after a
        backend degradation so the labels stay truthful."""
        backend = self.executor.backend
        self._m_queue_wait = REGISTRY.histogram(
            "repro_exec_queue_wait_seconds",
            "Time a trial spent queued before its worker ran it "
            "(resolve wall minus measured trial cost).",
            backend=backend,
        )
        self._m_trial_seconds = REGISTRY.histogram(
            "repro_trial_seconds",
            "Measured per-trial evaluation cost.", backend=backend,
        )

    def _trials_counter(self, status: str):
        return REGISTRY.counter(
            "repro_trials_total",
            "Trials resolved by the engine, by terminal status.",
            status=status, backend=self.backend,
        )

    # ------------------------------------------------------------------
    @property
    def backend(self) -> str:
        """Name of the underlying executor backend."""
        return self.executor.backend

    @property
    def n_workers(self) -> int:
        """Worker count of the underlying executor."""
        return self.executor.n_workers

    @property
    def cache_hits(self) -> int:
        """Trials *this engine* short-circuited via the cache — not the
        store-wide total, which aggregates every search sharing it."""
        return self._cache_hits

    @property
    def cache_misses(self) -> int:
        """This engine's cache lookups that fell through to the executor."""
        return self._cache_misses

    # -- retry / degradation policies ----------------------------------
    def _take_retry_token(self, status: str) -> bool:
        """Whether a trial that ended with ``status`` may retry now;
        consumes one unit of the per-search retry budget if so."""
        policy = self.retry_policy
        if policy is None or status not in policy.retry_on:
            return False
        if (
            policy.retry_budget is not None
            and self.retries_used >= policy.retry_budget
        ):
            return False
        self.retries_used += 1
        REGISTRY.counter(
            "repro_trial_retries_total",
            "Trial retries issued by the engine, by the status that "
            "triggered them.",
            cause=status, backend=self.backend,
        ).inc()
        return True

    def _degrade(self, reason: str) -> None:
        """Swap the broken executor for the next backend down the
        ladder (process → thread → serial), exactly once per step."""
        from .base import make_executor

        old = self.executor
        target = _DEGRADE_LADDER.get(old.backend, "serial")
        _log.error(
            "execution backend %r is broken beyond repair (%s); "
            "degrading to %r for the rest of this search",
            old.backend, reason, target,
        )
        REGISTRY.counter(
            "repro_backend_degradations_total",
            "Engine backend degradations (process→thread→serial ladder).",
            **{"from": old.backend, "to": target},
        ).inc()
        self.degradations.append((old.backend, target))
        data, n_workers = old.data, old.n_workers
        try:
            old.shutdown()  # unlinks shm segments even when not owned:
            # the substrate is broken, keeping it can only leak
        except Exception:  # pragma: no cover - defensive
            _log.exception("shutdown of the broken %r executor failed",
                           old.backend)
        self.executor = make_executor(
            target, data,
            n_workers=n_workers if target != "serial" else 1,
        )
        self._own_executor = True
        self._bind_backend_metrics()

    def _backend_submit(self, spec: TrialSpec):
        """Submit to the executor, riding the degradation ladder when
        the substrate reports itself broken beyond repair."""
        while True:
            try:
                return self.executor.submit(spec)
            except PoolBrokenError as exc:
                self._degrade(str(exc))

    # ------------------------------------------------------------------
    def _key(self, spec: TrialSpec) -> tuple:
        return self._data_token + spec.cache_key()

    def _store(self, spec: TrialSpec, outcome: TrialOutcome) -> None:
        # failed trials are never cached: an inf error usually reflects
        # circumstance (budget truncation, a dying worker), and replaying
        # it from the cache would poison every later run that shares it
        if self.cache is not None and np.isfinite(outcome.error):
            self.cache.put(self._key(spec), outcome)

    def _absorb(self, spec: TrialSpec, outcome: TrialOutcome) -> TrialOutcome:
        """Fold a resolved trial's observability payloads into this
        process — worker-shipped span buffers into the tracer ring,
        metric diffs into the registry — then strip them from the
        outcome so the memoised/cached copy is lean and a cache replay
        can never double-merge them."""
        if outcome.trace:
            ingest_spans(outcome.trace)
        if outcome.metrics:
            REGISTRY.merge(outcome.metrics)
        if outcome.trace is not None or outcome.metrics is not None:
            outcome = dataclasses.replace(outcome, trace=None, metrics=None)
        self._store(spec, outcome)
        return outcome

    def _observe(self, handle: "EngineHandle", outcome: TrialOutcome,
                 status: str) -> None:
        """Record per-trial engine metrics at resolve time."""
        wait = (time.perf_counter() - handle.submit_time) - outcome.cost
        self._m_queue_wait.observe(max(0.0, wait))
        self._m_trial_seconds.observe(max(0.0, outcome.cost))
        self._trials_counter(status).inc()
        self._tenant_observe(status, outcome.cost)

    def _tenant_observe(self, status: str, cost: float) -> None:
        """Per-tenant accounting for the multi-tenant fit service; inert
        for engines without a tenant label."""
        if not self.tenant:
            return
        REGISTRY.counter(
            "repro_tenant_trials_total",
            "Trials resolved per tenant, by terminal status.",
            tenant=self.tenant, status=status,
        ).inc()
        REGISTRY.histogram(
            "repro_tenant_trial_seconds",
            "Measured per-trial evaluation cost, per tenant.",
            tenant=self.tenant,
        ).observe(max(0.0, cost))

    def submit(self, spec: TrialSpec) -> EngineHandle:
        """Schedule one trial, consulting the cache first.

        A cache hit returns an already-done handle whose outcome carries
        the stored error at (near-)zero cost — the "repeated proposals
        are free" contract.
        """
        if self.cache is not None:
            t0 = time.perf_counter()
            hit = self.cache.get(self._key(spec))
            if hit is not None:
                self._cache_hits += 1
                self._m_cache_hit.inc()
                self._trials_counter("cache-hit").inc()
                self._tenant_observe("cache-hit", 0.0)
                # replay everything but the cost (this lookup was nearly
                # free): in particular `attempts`/`failure` survive, so a
                # replayed trial reports the retry history of the run
                # that actually executed it
                out = dataclasses.replace(
                    hit, cost=max(time.perf_counter() - t0, 1e-9),
                )
                return EngineHandle(self, spec, outcome=out, cache_hit=True)
            self._cache_misses += 1
            self._m_cache_miss.inc()
        try:
            handle = self._backend_submit(spec)
        except KeyboardInterrupt:
            raise
        except Exception:
            # a spec the backend cannot even accept (e.g. unpicklable
            # payload) becomes a failed trial, not a dead search
            self._trials_counter("submit-error").inc()
            out = TrialOutcome(error=float("inf"), cost=0.0, model=None,
                               failure=traceback.format_exc())
            return EngineHandle(self, spec, outcome=out)
        return EngineHandle(self, spec, handle=handle)

    def run(self, spec: TrialSpec) -> TrialOutcome:
        """Submit and synchronously resolve one trial (honours the
        engine-wide ``trial_time_limit``)."""
        return self.submit(spec).outcome(timeout=self.trial_time_limit)

    def shutdown(self) -> None:
        """Release the executor if this engine owns it."""
        if self._own_executor:
            self.executor.shutdown()
