"""Micro-batching: coalesce concurrent single-row predicts into batches.

The learners are vectorised numpy code, so predicting one row costs
almost as much as predicting thirty-two — per-call overhead (binning,
array setup, tree traversal dispatch) dominates at batch size 1.  Under
concurrent single-row traffic, a :class:`MicroBatcher` therefore holds
each request while other requests arrive, stacks up to ``max_batch``
rows, runs **one** model call, and fans the rows of the result back out
to the callers.  Two knobs bound the wait: ``max_delay_ms`` caps the
total coalescing window, and ``idle_gap_ms`` (default: an eighth of the
window) closes the batch early once arrivals pause — closed-loop
clients stop submitting until their batch returns, so sleeping out the
full window would add latency without ever growing the batch.
Throughput approaches the batched-predict rate.

:class:`ServingStats` tracks the counters operators actually watch:
request/batch/row counts, mean batch size, and p50/p95/p99 request
latency over a sliding sample window — exposed per model by the
server's ``/metrics`` endpoint.
"""

from __future__ import annotations

import queue
import threading
import time
from collections import deque

import numpy as np

from ..obs.metrics import Histogram

__all__ = ["BatcherClosed", "BatcherSaturated", "MicroBatcher",
           "ServingStats"]


class BatcherSaturated(RuntimeError):
    """The batcher's queue is at capacity: the server is accepting rows
    faster than the model drains them.  Raised by :meth:`
    MicroBatcher.submit` *instead of* queueing unboundedly — the HTTP
    layer turns it into ``503 Retry-After`` (load shedding) rather than
    letting every client hang behind an ever-growing queue."""


class BatcherClosed(RuntimeError):
    """The batcher was closed before the row was queued; the row was not
    predicted.  The server answers such a row directly instead."""


#: request-latency buckets (seconds) tuned for sub-ms..seconds serving
_LATENCY_BUCKETS = (
    0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5,
    1.0, 2.5, 5.0,
)


class ServingStats:
    """Thread-safe latency/throughput counters for one served model."""

    def __init__(self, max_samples: int = 4096) -> None:
        self._lock = threading.Lock()
        self._latencies = deque(maxlen=int(max_samples))
        self.requests = 0
        self.batches = 0
        self.rows = 0
        self.errors = 0
        #: requests refused outright (saturated queue, admission-control
        #: rejections, expired deadlines) — load shed, never predicted
        self.sheds = 0
        #: bucketed request latency for Prometheus exposition (the JSON
        #: snapshot keeps its sliding-window percentiles unchanged)
        self.latency_hist = Histogram(_LATENCY_BUCKETS)
        self._t_first: float | None = None
        #: monotonic timestamp of the last recorded activity — the
        #: server's recency order for bounding /metrics cardinality and
        #: evicting idle per-model state
        self.last_active = time.monotonic()

    def record_batch(self, n_rows: int) -> None:
        """Count one model invocation covering ``n_rows`` rows."""
        with self._lock:
            self.batches += 1
            self.rows += n_rows
            self.last_active = time.monotonic()

    def record_shed(self) -> None:
        """Count one request refused without running the model."""
        with self._lock:
            self.sheds += 1
            self.last_active = time.monotonic()

    def record_request(self, latency_s: float, error: bool = False) -> None:
        """Count one client request and its end-to-end latency."""
        now = time.perf_counter()
        self.latency_hist.observe(latency_s)
        with self._lock:
            self.requests += 1
            if error:
                self.errors += 1
            self._latencies.append(latency_s)
            self.last_active = time.monotonic()
            if self._t_first is None:
                self._t_first = now

    def snapshot(self) -> dict:
        """Current counters + latency percentiles, JSON-safe.

        Throughput is requests over the wall-clock span from the first
        request to *now* (not to the last request: that span is zero
        with a single request, which used to report an absurd
        ``throughput_rps = 0.0`` until a second request arrived).
        """
        now = time.perf_counter()
        with self._lock:
            lat = np.asarray(self._latencies, dtype=np.float64)
            requests, batches, rows = self.requests, self.batches, self.rows
            errors, sheds = self.errors, self.sheds
            span = (
                (now - self._t_first)
                if self._t_first is not None else 0.0
            )
        out = {
            "requests": requests,
            "batches": batches,
            "rows": rows,
            "errors": errors,
            "sheds": sheds,
            "mean_batch_size": (rows / batches) if batches else 0.0,
            "throughput_rps": (requests / span) if span > 0 else 0.0,
        }
        if lat.size:
            p50, p95, p99 = np.percentile(lat, [50, 95, 99])
            out.update(
                latency_ms_p50=1e3 * float(p50),
                latency_ms_p95=1e3 * float(p95),
                latency_ms_p99=1e3 * float(p99),
                latency_ms_mean=1e3 * float(lat.mean()),
            )
        return out


class _Pending:
    """One queued row awaiting its slice of a batched prediction."""

    __slots__ = ("row", "event", "result", "error")

    def __init__(self, row: np.ndarray) -> None:
        self.row = row
        self.event = threading.Event()
        self.result = None
        self.error: Exception | None = None


class MicroBatcher:
    """Coalesce concurrent ``submit(row)`` calls into batched predicts.

    ``predict_fn`` receives a 2-D array of stacked rows and must return
    one result per row (labels/values 1-D, or probabilities 2-D).
    ``submit`` blocks until the caller's row has been predicted and
    returns just that row's result; exceptions raised by ``predict_fn``
    propagate to every caller in the failed batch.

    ``close`` and the enqueue in ``submit`` are atomic with respect to
    each other: a row is either queued ahead of the shutdown sentinel,
    and served, or refused with :class:`BatcherClosed`.
    """

    def __init__(self, predict_fn, max_batch: int = 32,
                 max_delay_ms: float = 2.0,
                 idle_gap_ms: float | None = None,
                 stats: ServingStats | None = None,
                 max_queue: int | None = None) -> None:
        if max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {max_batch}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.predict_fn = predict_fn
        self.max_batch = int(max_batch)
        #: bound on rows queued but not yet predicted; ``None`` keeps the
        #: historical unbounded queue (embedded/library use).  When full,
        #: submit() sheds (:class:`BatcherSaturated`) instead of queueing
        self.max_queue = int(max_queue) if max_queue is not None else None
        self.max_delay = float(max_delay_ms) / 1e3
        # closed-loop clients stop submitting until their batch returns,
        # so once arrivals pause there is nothing left to wait for: the
        # idle gap closes the batch early instead of sleeping out the
        # whole delay window (which caps *total* coalescing wait)
        self.idle_gap = (float(idle_gap_ms) / 1e3 if idle_gap_ms is not None
                         else self.max_delay / 8)
        self.stats = stats if stats is not None else ServingStats()
        self._queue: queue.Queue = queue.Queue(maxsize=self.max_queue or 0)
        self._closed = False
        # makes close() and submit()'s closed-check + enqueue atomic
        self._lock = threading.Lock()
        self._worker = threading.Thread(
            target=self._run, name="repro-microbatcher", daemon=True
        )
        self._worker.start()

    # -- client side ---------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Rows currently queued and not yet handed to the model
        (approximate, as any concurrent queue size is)."""
        return self._queue.qsize()

    def submit(self, row) -> np.ndarray:
        """Predict one raw row; blocks until the batched result arrives.

        With ``max_queue`` set, a full queue sheds the request
        immediately (:class:`BatcherSaturated`) instead of blocking —
        see the class docstring of :class:`BatcherSaturated`.  A closed
        batcher raises :class:`BatcherClosed`.
        """
        item = _Pending(np.asarray(row, dtype=np.float64).reshape(-1))
        t0 = time.perf_counter()
        # put_nowait never blocks (an unbounded queue is never full), so
        # the lock covers only the closed check and the enqueue
        with self._lock:
            if self._closed:
                raise BatcherClosed("MicroBatcher is closed")
            try:
                self._queue.put_nowait(item)
            except queue.Full:
                self.stats.record_shed()
                raise BatcherSaturated(
                    f"predict queue is full ({self.max_queue} rows "
                    "waiting); retry later"
                ) from None
        item.event.wait()
        self.stats.record_request(
            time.perf_counter() - t0, error=item.error is not None
        )
        if item.error is not None:
            raise item.error
        return item.result

    def close(self) -> None:
        """Stop the worker; pending rows are still served first."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            # behind every queued row; on a full queue this waits for
            # the worker, which drains it without taking the lock
            self._queue.put(None)
        self._worker.join()

    def __enter__(self) -> "MicroBatcher":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- worker side ---------------------------------------------------
    def _collect(self) -> list[_Pending] | None:
        """Block for the first row, then gather more until the batch is
        full, the delay window closes, or arrivals pause for longer than
        the idle gap.  None means shut down."""
        first = self._queue.get()
        if first is None:
            return None
        batch = [first]
        deadline = time.perf_counter() + self.max_delay
        while len(batch) < self.max_batch:
            remaining = deadline - time.perf_counter()
            if remaining <= 0:
                break
            try:
                item = self._queue.get(timeout=min(remaining, self.idle_gap))
            except queue.Empty:
                break  # arrivals paused: serve what we have now
            if item is None:
                # shutdown requested: serve what we have, then exit
                self._queue.put(None)
                break
            batch.append(item)
        return batch

    def _run(self) -> None:
        while True:
            batch = self._collect()
            if batch is None:
                return
            try:
                out = self.predict_fn(np.vstack([it.row for it in batch]))
                self.stats.record_batch(len(batch))
                for i, it in enumerate(batch):
                    it.result = out[i]
            except Exception as exc:  # propagate to every waiter
                for it in batch:
                    it.error = exc
            finally:
                for it in batch:
                    it.event.set()
