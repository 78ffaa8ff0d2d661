"""Fit-as-a-service: multi-tenant AutoML searches over one shared pool.

The missing half of ROADMAP item 3's "AutoML for millions of users":
serving was already multi-model, but every ``fit`` still owned a
private worker pool.  A :class:`FitService` owns the training substrate
once — one :class:`~repro.exec.SharedWorkerPool`, one cross-search
:class:`~repro.exec.TrialCache`, one :class:`~repro.serve.registry.
ModelRegistry` — and runs each submitted search as a :class:`FitJob`
driven by a small driver thread whose trials multiplex the pool through
a per-search lease.

Tenancy is enforced here, not in the engine:

* **fair share** — each job's lease carries the tenant's weight, so
  the pool's weighted round-robin splits slots proportionally;
* **concurrency caps** — ``max_concurrent`` bounds one search's
  simultaneously running trials;
* **time budgets** — ``tenant_time_budget`` seconds of *trial compute*
  per tenant; a submission is refused (:class:`TenantBudgetExceeded`)
  once the tenant has consumed it, and a running job's effective
  ``time_budget`` never exceeds what the tenant has left;
* **per-tenant artifacts** — winners register as
  ``<tenant>.<name>`` so the registry's promote/alias/quarantine
  machinery works per tenant unchanged.

Searches stay individually deterministic: trials of one job commit in
launch order regardless of how the pool interleaves them with other
tenants' (see :mod:`repro.exec.multiplex`), and the shared trial cache
is dataset-fingerprint-scoped, so identical tenant datasets share
outcomes while different data never collides.
"""

from __future__ import annotations

import logging
import threading
import time
import uuid
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from ..exec import SharedWorkerPool, TrialCache
from ..obs.metrics import REGISTRY
from .registry import _NAME_RE, ModelRegistry

__all__ = [
    "FitJob",
    "FitService",
    "FitServiceError",
    "TenantBudgetExceeded",
    "UnknownJobError",
]

_log = logging.getLogger("repro.serve")

#: job lifecycle: queued -> running -> done | failed | cancelled
_TERMINAL = ("done", "failed", "cancelled")


class FitServiceError(ValueError):
    """Invalid submission (bad tenant/name/task/payload) — HTTP 400."""


class TenantBudgetExceeded(FitServiceError):
    """The tenant has consumed its time budget — refused, HTTP 400."""


class UnknownJobError(KeyError):
    """No job with that id — HTTP 404."""

    def __str__(self) -> str:  # KeyError quotes its arg; keep it readable
        return self.args[0] if self.args else "unknown job"


class FitJob:
    """One tenant's submitted search and its lifecycle state."""

    def __init__(self, job_id: str, tenant: str, name: str,
                 params: dict) -> None:
        self.job_id = job_id
        self.tenant = tenant
        self.name = name
        #: the AutoML.fit arguments; X and y leave once the job ends
        self.params = params
        self.status = "queued"
        self.submitted_unix = time.time()
        self.started_unix: float | None = None
        self.finished_unix: float | None = None
        self.error: str | None = None
        self.result: dict | None = None
        self.version: int | None = None  # registry version of the winner
        self.trial_seconds = 0.0  # pool compute this job consumed
        self.stop_event = threading.Event()

    def snapshot(self) -> dict:
        """JSON-safe view (what ``GET /fit/<id>`` answers)."""
        out = {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "name": self.name,
            "registered_name": f"{self.tenant}.{self.name}",
            "status": self.status,
            "submitted_unix": self.submitted_unix,
            "started_unix": self.started_unix,
            "finished_unix": self.finished_unix,
            "trial_seconds": round(self.trial_seconds, 3),
            # copied in one C call: _job_done may drop X and y meanwhile
            "params": {k: v for k, v in dict(self.params).items()
                       if k not in ("X", "y")},
        }
        if self.error is not None:
            out["error"] = self.error
        if self.result is not None:
            out["result"] = self.result
        if self.version is not None:
            out["version"] = self.version
        return out


class FitService:
    """Accept, schedule, and account multi-tenant AutoML searches."""

    def __init__(self, registry: ModelRegistry | None = None,
                 n_workers: int = 4, max_searches: int = 4,
                 cache_size: int = 16384,
                 tenant_time_budget: float | None = None,
                 default_max_concurrent: int | None = None,
                 max_fit_rows: int = 200_000,
                 time_budget_cap: float = 300.0) -> None:
        """``n_workers`` sizes the one shared trial pool; up to
        ``max_searches`` searches are *in progress* at once (more queue
        behind the driver threads).  ``tenant_time_budget`` caps each
        tenant's cumulative trial compute in seconds (``None`` =
        unmetered); ``time_budget_cap`` bounds any single job's
        requested ``time_budget``; ``max_fit_rows`` bounds the training
        payload a tenant may submit."""
        if max_searches < 1:
            raise ValueError(f"max_searches must be >= 1, got {max_searches}")
        self.registry = registry
        self.pool = SharedWorkerPool(n_workers=n_workers)
        self.cache = TrialCache(maxsize=cache_size) if cache_size else None
        self.tenant_time_budget = tenant_time_budget
        self.default_max_concurrent = default_max_concurrent
        self.max_fit_rows = int(max_fit_rows)
        self.time_budget_cap = float(time_budget_cap)
        self.max_searches = int(max_searches)
        self._drivers = ThreadPoolExecutor(
            max_workers=self.max_searches,
            thread_name_prefix="repro-fit-driver",
        )
        self._lock = threading.Lock()
        self._jobs: dict[str, FitJob] = {}
        self._tenant_used: dict[str, float] = {}
        self._closed = False

    # -- tenancy --------------------------------------------------------
    def tenant_remaining(self, tenant: str) -> float:
        """Seconds of trial compute the tenant has left (inf if
        unmetered)."""
        if self.tenant_time_budget is None:
            return float("inf")
        with self._lock:
            used = self._tenant_used.get(tenant, 0.0)
        return max(0.0, self.tenant_time_budget - used)

    def _charge(self, tenant: str, seconds: float) -> None:
        with self._lock:
            self._tenant_used[tenant] = (
                self._tenant_used.get(tenant, 0.0) + max(0.0, seconds)
            )
        REGISTRY.counter(
            "repro_tenant_budget_seconds_total",
            "Trial compute charged against tenant budgets (seconds).",
            tenant=tenant,
        ).inc(max(0.0, seconds))

    # -- submission -----------------------------------------------------
    def submit(self, tenant: str, name: str, X, y, task: str | None = None,
               time_budget: float = 30.0, max_iters: int | None = None,
               seed: int = 0, estimators: list[str] | None = None,
               weight: int = 1, max_concurrent: int | None = None,
               n_splits: int = 5, use_sampling: bool = True) -> FitJob:
        """Queue one search; returns the :class:`FitJob` immediately.

        The winner registers as ``<tenant>.<name>`` when the search
        finds one.  Raises :class:`FitServiceError` on an invalid
        submission and :class:`TenantBudgetExceeded` for a tenant with
        no budget left.
        """
        if self._closed:
            raise FitServiceError("fit service is shut down")
        for label, value in (("tenant", tenant), ("name", name)):
            if not isinstance(value, str) or not _NAME_RE.match(value) \
                    or "." in value:
                raise FitServiceError(
                    f"invalid {label} {value!r}: use letters, digits, '_', "
                    "'-' (no '.', which separates tenant from model name)"
                )
        try:
            X = np.asarray(X, dtype=np.float64)
            y = np.asarray(y)
        except (TypeError, ValueError) as exc:
            raise FitServiceError(f"invalid training payload: {exc}") from None
        if X.ndim != 2 or X.shape[0] != y.shape[0] or X.shape[0] < 4:
            raise FitServiceError(
                "X must be 2-D with one label per row (and at least 4 "
                f"rows); got X {X.shape} / y {y.shape}"
            )
        if X.shape[0] > self.max_fit_rows:
            raise FitServiceError(
                f"training payload has {X.shape[0]} rows; this service "
                f"accepts at most {self.max_fit_rows} per fit"
            )
        if time_budget <= 0:
            raise FitServiceError(
                f"time_budget must be positive, got {time_budget}"
            )
        remaining = self.tenant_remaining(tenant)
        if remaining <= 0:
            raise TenantBudgetExceeded(
                f"tenant {tenant!r} has exhausted its "
                f"{self.tenant_time_budget:g}s compute budget"
            )
        effective_budget = min(
            float(time_budget), self.time_budget_cap, remaining
        )
        cap = max_concurrent if max_concurrent is not None \
            else self.default_max_concurrent
        job = FitJob(
            job_id=uuid.uuid4().hex[:16], tenant=tenant, name=name,
            params={
                "X": X, "y": y, "task": task,
                "time_budget": effective_budget,
                "max_iters": max_iters, "seed": int(seed),
                "estimators": list(estimators) if estimators else None,
                "weight": max(1, int(weight)),
                "max_concurrent": cap,
                "n_splits": int(n_splits),
                "use_sampling": bool(use_sampling),
            },
        )
        with self._lock:
            self._jobs[job.job_id] = job
        self._drivers.submit(self._run_job, job)
        return job

    # -- execution ------------------------------------------------------
    def _run_job(self, job: FitJob) -> None:
        from ..core.automl import AutoML

        if job.stop_event.is_set():  # cancelled while queued
            job.finished_unix = time.time()
            self._job_done(job, "cancelled")
            return
        job.status = "running"
        job.started_unix = time.time()
        p = job.params
        cap = p["max_concurrent"] or self.pool.n_workers
        holder: dict = {}

        def factory(data):
            lease = self.pool.lease(
                data, tenant=job.tenant, weight=p["weight"],
                max_concurrent=cap,
            )
            holder["lease"] = lease
            return lease

        # the terminal status is published last, after the charge, so a
        # poller that sees it also sees the tenant's spend
        status = "failed"
        try:
            automl = AutoML(seed=p["seed"])
            automl.fit(
                p["X"], p["y"], task=p["task"],
                time_budget=p["time_budget"], max_iters=p["max_iters"],
                estimator_list=p["estimators"], n_splits=p["n_splits"],
                use_sampling=p["use_sampling"], seed=p["seed"],
                n_workers=max(1, min(cap, self.pool.n_workers)),
                executor_factory=factory, trial_cache=(
                    self.cache if self.cache is not None else True
                ),
                stop_event=job.stop_event, tenant=job.tenant,
            )
        except Exception as exc:
            if job.stop_event.is_set():
                status = "cancelled"
            else:
                job.error = f"{type(exc).__name__}: {exc}"
                _log.warning("fit job %s (%s.%s) failed: %s", job.job_id,
                             job.tenant, job.name, job.error)
        else:
            result = automl.search_result
            job.result = {
                "best_learner": result.best_learner,
                "best_error": float(result.best_error),
                "n_trials": result.n_trials,
                "cache_hits": result.cache_hits,
                "backend": result.backend,
            }
            if job.stop_event.is_set():
                # a cancel that raced completion: keep the model out of
                # the registry, the tenant asked for it to stop
                status = "cancelled"
            else:
                try:
                    if self.registry is not None:
                        job.version = self.registry.register(
                            f"{job.tenant}.{job.name}",
                            automl.export_artifact(),
                            metadata={"tenant": job.tenant,
                                      "job_id": job.job_id,
                                      "display_name": job.name},
                        )
                    status = "done"
                except Exception as exc:  # registry write failed
                    job.error = f"{type(exc).__name__}: {exc}"
        finally:
            lease = holder.get("lease")
            if lease is not None:
                lease.shutdown()  # idempotent; engine may have degraded
                job.trial_seconds = lease.trial_seconds
            elif job.started_unix is not None:
                job.trial_seconds = time.time() - job.started_unix
            job.finished_unix = time.time()
            self._charge(job.tenant, job.trial_seconds)
            self._job_done(job, status)

    def _job_done(self, job: FitJob, status: str) -> None:
        """Publish a terminal status.  Jobs are kept for status polls,
        so the training payload is dropped first."""
        job.params.pop("X", None)
        job.params.pop("y", None)
        job.status = status
        REGISTRY.counter(
            "repro_tenant_searches_total",
            "Fit-service searches finished, per tenant and outcome.",
            tenant=job.tenant, status=job.status,
        ).inc()

    # -- queries / control ----------------------------------------------
    def _get(self, job_id: str) -> FitJob:
        with self._lock:
            job = self._jobs.get(job_id)
        if job is None:
            raise UnknownJobError(f"unknown fit job {job_id!r}")
        return job

    def status(self, job_id: str) -> dict:
        """Snapshot of one job (raises :class:`UnknownJobError`)."""
        return self._get(job_id).snapshot()

    def jobs(self, tenant: str | None = None) -> list[dict]:
        """Snapshots of all jobs (optionally one tenant's), newest last."""
        with self._lock:
            jobs = list(self._jobs.values())
        return [
            j.snapshot() for j in jobs
            if tenant is None or j.tenant == tenant
        ]

    def cancel(self, job_id: str) -> dict:
        """Request cooperative cancellation; the search stops between
        trials (already-terminal jobs are unaffected)."""
        job = self._get(job_id)
        if job.status not in _TERMINAL:
            job.stop_event.set()
        return job.snapshot()

    def stats(self) -> dict:
        """Service-level view for ``/health``: job counts by status,
        pool utilisation, per-tenant budget consumption."""
        with self._lock:
            jobs = list(self._jobs.values())
            used = dict(self._tenant_used)
        counts: dict[str, int] = {}
        for j in jobs:
            counts[j.status] = counts.get(j.status, 0) + 1
        return {
            "jobs": counts,
            "pool": self.pool.stats(),
            "tenant_time_budget": self.tenant_time_budget,
            "tenants": {
                t: {
                    "used_s": round(s, 3),
                    "remaining_s": (
                        None if self.tenant_time_budget is None
                        else round(max(0.0, self.tenant_time_budget - s), 3)
                    ),
                }
                for t, s in sorted(used.items())
            },
            "cache": (
                None if self.cache is None
                else {"entries": len(self.cache), "hits": self.cache.hits,
                      "misses": self.cache.misses}
            ),
        }

    def close(self) -> None:
        """Cancel outstanding jobs, drain drivers, stop the pool."""
        if self._closed:
            return
        self._closed = True
        with self._lock:
            jobs = list(self._jobs.values())
        for job in jobs:
            if job.status not in _TERMINAL:
                job.stop_event.set()
        self._drivers.shutdown(wait=True)
        self.pool.shutdown()

    def __enter__(self) -> "FitService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
