"""Shared-pool multiplexing: many concurrent searches, one worker pool.

The 2021-era engine ran one search per pool — "AutoML for millions of
users" would mean millions of pools.  This module inverts that: a
:class:`SharedWorkerPool` owns the worker slots once, and every search
holds a :class:`LeasedExecutor` — a :class:`~repro.exec.base.TrialExecutor`
facade bound to that search's dataset — whose ``submit`` enqueues a
ticket into the lease's FIFO queue instead of running anything itself.
A weighted round-robin dispatcher then grants pool slots across leases:

* **fair share** — each lease gets ``weight`` consecutive grants per
  turn before the pointer moves on, so a tenant with weight 2 receives
  ~2x the trial throughput of a weight-1 tenant under contention while
  an idle tenant costs nothing (classic WRR, skipped turns are free);
* **per-tenant caps** — a lease never has more than its
  ``max_concurrent`` trials running, regardless of free slots, so one
  greedy search cannot occupy the whole pool between scheduler turns;
* **per-search determinism survives** — tickets of one lease dispatch
  in FIFO order and the controllers commit outcomes in launch order, so
  a search's trial log is independent of how its trials interleave with
  other tenants' (the determinism oracle's ``lease-mux`` cells pin it).

The substrate is a thread pool running
:func:`~repro.exec.base.run_spec` in-process: unlike the process
backend — whose workers are bound to one shm-exported dataset at fork —
threads can serve many tenants' datasets concurrently, and the learner
hot loops release the GIL in numpy/native kernels.  The thread backend
is a private pool with one lease.  A lease-backed engine still degrades
*per search*: the ladder swaps in a private serial executor for that
search only, leaving the pool and every other lease untouched.

Budget accounting (``trial_seconds``) is tracked per lease; enforcement
— refusing new searches for an over-budget tenant — lives one layer up
in :class:`~repro.serve.fitservice.FitService`, which owns tenancy.
"""

from __future__ import annotations

import logging
import threading
import time
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

from ..data.dataset import Dataset
from ..obs.metrics import REGISTRY
from .base import FutureHandle, TrialExecutor, TrialSpec, run_spec

__all__ = ["LeasedExecutor", "SharedWorkerPool", "TicketHandle"]

_log = logging.getLogger("repro.exec")


class TicketHandle(FutureHandle):
    """Handle for a trial queued (or running) on the shared pool.

    ``result`` blocks through both phases — waiting for a slot grant and
    then for the trial itself — exactly like a thread-pool future whose
    queue time counts toward its timeout.
    """

    def __init__(self, ticket: "_Ticket") -> None:
        super().__init__(ticket.future)
        self._ticket = ticket

    def cancel(self) -> bool:
        """True cancellation while still queued (the slot is never
        granted); a dispatched trial cannot be stopped and reports
        ``False`` like every thread-backed handle."""
        return self._ticket.lease.pool._cancel_ticket(self._ticket)


class _Ticket:
    """One queued trial: its spec, owning lease, and outer future."""

    __slots__ = ("spec", "lease", "future", "dispatched")

    def __init__(self, spec: TrialSpec, lease: "LeasedExecutor") -> None:
        self.spec = spec
        self.lease = lease
        self.future: Future = Future()
        self.dispatched = False


class LeasedExecutor(TrialExecutor):
    """One search's slice of a :class:`SharedWorkerPool`.

    Looks like any other executor to the engine (``data``,
    ``n_workers``, ``submit``, ``shutdown``) but owns no workers:
    ``submit`` queues a ticket and the pool's dispatcher grants slots in
    weighted round-robin order.  ``shutdown`` releases the lease —
    queued tickets are cancelled, running trials finish, and the pool
    lives on for the other tenants — unless the lease owns the pool (the
    thread backend), which then stops without waiting on the trials
    its engine abandoned.
    """

    backend = "thread"

    def __init__(self, pool: "SharedWorkerPool", data: Dataset,
                 tenant: str | None, weight: int,
                 max_concurrent: int) -> None:
        super().__init__(data, n_workers=max_concurrent)
        self.pool = pool
        self.tenant = tenant
        self.weight = max(1, int(weight))
        self.max_concurrent = int(max_concurrent)
        #: trials currently occupying pool slots (dispatcher-maintained)
        self.running = 0
        #: cumulative wall seconds of this lease's dispatched trials —
        #: the raw material for per-tenant budget enforcement upstream
        self.trial_seconds = 0.0
        self.queue: deque[_Ticket] = deque()
        self.closed = False
        #: set by ``make_executor("thread")``: the pool stops with it
        self.owns_pool = False

    def submit(self, spec: TrialSpec) -> TicketHandle:
        return self.pool._submit(self, spec)

    def shutdown(self) -> None:
        if self.owns_pool:
            self.pool._close()
        else:
            self.pool.release(self)


class SharedWorkerPool:
    """One thread pool multiplexed across many searches' trial queues.

    ``lease(data, ...)`` hands out per-search facade executors;
    dispatch happens inline under the pool lock on every submit and
    every trial completion (no dedicated scheduler thread), walking the
    lease ring with a classic weighted-round-robin turn budget.
    """

    def __init__(self, n_workers: int = 4, run_fn=None) -> None:
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        self.n_workers = int(n_workers)
        #: the work function, injectable for scheduler tests
        self._run_fn = run_fn if run_fn is not None else run_spec
        self._pool = ThreadPoolExecutor(
            max_workers=self.n_workers, thread_name_prefix="repro-pool"
        )
        self._lock = threading.Lock()
        self._ring: list[LeasedExecutor] = []
        self._ring_idx = -1  # the lease whose WRR turn is in progress
        self._ring_budget = 0  # grants left in that turn
        self._active = 0  # trials currently occupying pool slots
        self._closed = False

    # -- lease lifecycle ------------------------------------------------
    def lease(self, data: Dataset, tenant: str | None = None,
              weight: int = 1,
              max_concurrent: int | None = None) -> LeasedExecutor:
        """Join the pool: a new per-search executor facade.

        ``weight`` scales the tenant's share of slot grants under
        contention; ``max_concurrent`` caps this search's simultaneously
        running trials (default: the whole pool).
        """
        cap = self.n_workers if max_concurrent is None \
            else max(1, min(int(max_concurrent), self.n_workers))
        lease = LeasedExecutor(self, data, tenant, weight, cap)
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedWorkerPool is shut down")
            self._ring.append(lease)
        return lease

    def release(self, lease: LeasedExecutor) -> None:
        """Detach a lease: cancel its queued tickets (their futures
        resolve as cancelled), let running trials finish, keep the pool
        serving everyone else.  Idempotent."""
        with self._lock:
            if lease.closed:
                return
            lease.closed = True
            pending = list(lease.queue)
            lease.queue.clear()
            if lease in self._ring:
                self._ring.remove(lease)
        for ticket in pending:
            ticket.future.cancel()

    # -- submission / dispatch ------------------------------------------
    def _submit(self, lease: LeasedExecutor, spec: TrialSpec) -> TicketHandle:
        ticket = _Ticket(spec, lease)
        with self._lock:
            if self._closed:
                raise RuntimeError("SharedWorkerPool is shut down")
            if lease.closed:
                raise RuntimeError(
                    "lease is closed (its search ended or was cancelled)"
                )
            lease.queue.append(ticket)
            self._dispatch_locked()
        return TicketHandle(ticket)

    def _cancel_ticket(self, ticket: _Ticket) -> bool:
        with self._lock:
            if not ticket.dispatched:
                try:
                    ticket.lease.queue.remove(ticket)
                except ValueError:
                    pass
                return ticket.future.cancel()
        # dispatched: the pool thread may not have started it yet, in
        # which case the future itself can still be cancelled
        return ticket.future.cancel()

    def _dispatch_locked(self) -> None:
        """Grant free slots to queued tickets in WRR order (lock held).

        Each lease's turn is worth ``weight`` grants; a lease that
        cannot dispatch (empty queue or at its concurrency cap) forfeits
        the rest of its turn, so idle tenants never block busy ones.
        """
        while not self._closed and self._active < self.n_workers:
            n = len(self._ring)
            if n == 0:
                return
            dispatched = False
            for _ in range(n + 1):
                if self._ring_budget <= 0:
                    self._ring_idx = (self._ring_idx + 1) % n
                    self._ring_budget = self._ring[self._ring_idx].weight
                lease = self._ring[self._ring_idx % n]
                if lease.queue and lease.running < lease.max_concurrent:
                    ticket = lease.queue.popleft()
                    ticket.dispatched = True
                    lease.running += 1
                    self._active += 1
                    self._ring_budget -= 1
                    self._pool.submit(self._run_ticket, ticket)
                    dispatched = True
                    break
                self._ring_budget = 0  # forfeit the rest of the turn
            if not dispatched:
                return

    def _run_ticket(self, ticket: _Ticket) -> None:
        lease = ticket.lease
        t0 = time.perf_counter()
        try:
            if ticket.future.set_running_or_notify_cancel():
                try:
                    out = self._run_fn(lease.data, ticket.spec)
                except BaseException as exc:
                    ticket.future.set_exception(exc)
                else:
                    ticket.future.set_result(out)
                REGISTRY.counter(
                    "repro_tenant_pool_trials_total",
                    "Trials executed on the shared worker pool, per "
                    "tenant.",
                    tenant=lease.tenant or "-",
                ).inc()
        finally:
            elapsed = time.perf_counter() - t0
            with self._lock:
                self._active -= 1
                lease.running -= 1
                lease.trial_seconds += elapsed
                self._dispatch_locked()

    # -- introspection / lifecycle --------------------------------------
    def stats(self) -> dict:
        """Pool utilisation + per-lease queue/running/consumption view
        (what the fit service reports under ``/health``)."""
        with self._lock:
            return {
                "n_workers": self.n_workers,
                "active": self._active,
                "leases": [
                    {
                        "tenant": lease.tenant,
                        "weight": lease.weight,
                        "max_concurrent": lease.max_concurrent,
                        "queued": len(lease.queue),
                        "running": lease.running,
                        "trial_seconds": round(lease.trial_seconds, 3),
                    }
                    for lease in self._ring
                ],
            }

    def _close(self) -> None:
        """Release every lease and stop the worker threads without
        waiting on running trials.  Idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            leases = list(self._ring)
        for lease in leases:
            self.release(lease)
        self._pool.shutdown(wait=False)

    def shutdown(self) -> None:
        """Release every lease and stop the worker threads (running
        trials finish first).  Idempotent."""
        self._close()
        self._pool.shutdown(wait=True)

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.shutdown()
