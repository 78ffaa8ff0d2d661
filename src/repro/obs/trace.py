"""Low-overhead span tracer: where do a trial's milliseconds go?

The rest of the stack answers *what* happened (errors, costs, counters);
this module answers *where the time went*.  A span is one timed region::

    with trace_span("trial.fit", learner="lgbm"):
        model.fit(Xtr, ytr)

Spans nest per thread (each span records its parent and shares its
root's trace id), carry the pid and thread name, and land in a bounded
in-process ring buffer — optionally teeing every completed span to a
JSONL sink for offline analysis (``python -m repro trace summarize``).

Tracing is **off by default** and the disabled path is a true no-op:
``trace_span`` returns a shared singleton context manager without
allocating a span object, so instrumented hot loops cost one branch
when tracing is off (asserted by ``tests/obs/test_tracer.py`` via the
:func:`spans_started` counter).

Toggles: ``REPRO_TRACE=1`` in the environment, or :func:`set_tracing`
at runtime (returns the previous setting, for try/finally use).

Cross-process collection: tracing state does not propagate to live
worker processes by itself, so the process backend ships the flag with
each trial, drains the worker-side ring after the trial
(:func:`drain_spans`), and the engine merges the buffer back here via
:func:`ingest_spans` — span ids embed the pid, so merged records keep
their identity and parent links.  A forked child starts with an empty
ring: the copy of the parent's buffer it inherits is the parent's to
report, not the child's to ship back.

Everything here is stdlib-only and safe to import from any layer.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager

__all__ = [
    "NOOP_SPAN",
    "clear_spans",
    "drain_spans",
    "ingest_spans",
    "set_trace_sink",
    "set_tracing",
    "snapshot_spans",
    "spans_started",
    "trace_context",
    "trace_span",
    "tracer_stats",
    "tracing_enabled",
]

_ENV_FLAG = "REPRO_TRACE"

#: ring capacity: at ~10 spans per trial this holds several thousand
#: trials; overflow drops the *oldest* spans and counts them
_RING_CAPACITY = 65536


def _env_enabled() -> bool:
    return os.environ.get(_ENV_FLAG, "0").lower() in ("1", "true", "on")


_enabled = _env_enabled()
_lock = threading.RLock()
_ring: deque = deque(maxlen=_RING_CAPACITY)
_dropped = 0
_ingested = 0
_sink = None
_sink_path: str | None = None
#: every locally *started* span consumes one id — the counter the
#: disabled-is-a-no-op tests assert against
_ids = itertools.count(1)
_started = 0
_tls = threading.local()


class _NoopSpan:
    """The shared disabled-mode span: enter/exit/set all do nothing."""

    __slots__ = ()

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NoopSpan":
        return self


#: singleton returned by :func:`trace_span` while tracing is disabled
NOOP_SPAN = _NoopSpan()


class _Span:
    """One live timed region (use via ``with trace_span(...)``)."""

    __slots__ = ("name", "attrs", "span_id", "parent_id", "trace_id",
                 "t_wall", "_t0")

    def __init__(self, name: str, attrs: dict) -> None:
        self.name = name
        self.attrs = attrs

    def set(self, **attrs) -> "_Span":
        """Attach attributes mid-span (e.g. a result computed inside)."""
        self.attrs.update(attrs)
        return self

    def __enter__(self) -> "_Span":
        global _started
        stack = getattr(_tls, "stack", None)
        if stack is None:
            stack = _tls.stack = []
        _started += 1
        self.span_id = f"{os.getpid()}-{next(_ids)}"
        if stack:
            parent = stack[-1]
            self.parent_id = parent.span_id
            self.trace_id = parent.trace_id
        else:
            self.parent_id = None
            self.trace_id = getattr(_tls, "trace_id", None) or self.span_id
        stack.append(self)
        # clock reads go last so nested spans exclude their own setup
        self.t_wall = time.time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        dur = time.perf_counter() - self._t0
        stack = getattr(_tls, "stack", None)
        if stack and stack[-1] is self:
            stack.pop()
        elif stack is not None:  # unbalanced exit: best-effort unwind
            try:
                stack.remove(self)
            except ValueError:
                pass
        rec = {
            "name": self.name,
            "t": self.t_wall,
            "dur": dur,
            "pid": os.getpid(),
            "thread": threading.current_thread().name,
            "span": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
        }
        if exc_type is not None:
            rec["error"] = exc_type.__name__
        if self.attrs:
            rec["attrs"] = self.attrs
        _record(rec)
        return False


def trace_span(name: str, **attrs):
    """A context manager timing one named region.

    With tracing disabled this returns the shared :data:`NOOP_SPAN`
    without allocating anything — the hot-path contract.
    """
    if not _enabled:
        return NOOP_SPAN
    return _Span(name, attrs)


@contextmanager
def trace_context(trace_id: str):
    """Tag every root span opened in this thread inside the ``with``
    block with ``trace_id`` (e.g. a serving request id)."""
    prev = getattr(_tls, "trace_id", None)
    _tls.trace_id = trace_id
    try:
        yield
    finally:
        _tls.trace_id = prev


def _record(rec: dict) -> None:
    global _dropped
    with _lock:
        if len(_ring) == _ring.maxlen:
            _dropped += 1
        _ring.append(rec)
        if _sink is not None:
            _sink.write(json.dumps(rec, default=str) + "\n")


# ----------------------------------------------------------------------
def tracing_enabled() -> bool:
    """Whether :func:`trace_span` currently records real spans."""
    return _enabled


def set_tracing(on: bool) -> bool:
    """Enable/disable tracing; returns the previous setting."""
    global _enabled
    with _lock:
        prev, _enabled = _enabled, bool(on)
    return prev


def set_trace_sink(path: str | None) -> str | None:
    """Tee completed spans to a JSONL file (append); ``None`` closes the
    sink.  Returns the previous sink path."""
    global _sink, _sink_path
    with _lock:
        prev = _sink_path
        if _sink is not None:
            try:
                _sink.flush()
                _sink.close()
            except OSError:  # pragma: no cover - best-effort close
                pass
            _sink = None
        _sink_path = None
        if path is not None:
            _sink = open(path, "a", encoding="utf-8")
            _sink_path = str(path)
    return prev


def drain_spans() -> list[dict]:
    """Return and clear every buffered span (oldest first)."""
    with _lock:
        out = list(_ring)
        _ring.clear()
    return out


def snapshot_spans() -> list[dict]:
    """A copy of the buffered spans without clearing them."""
    with _lock:
        return list(_ring)


def clear_spans() -> None:
    """Drop the buffered spans (the started/dropped counters persist)."""
    with _lock:
        _ring.clear()


def ingest_spans(spans: list[dict]) -> int:
    """Merge a shipped span buffer (e.g. from a worker process) into
    this process's ring and sink; returns how many were merged."""
    global _ingested
    if not spans:
        return 0
    with _lock:
        for rec in spans:
            _record(rec)
        _ingested += len(spans)
    return len(spans)


def spans_started() -> int:
    """How many spans this process has *started* (never decreases; the
    disabled-mode no-op assertion reads this)."""
    return _started


def tracer_stats() -> dict:
    """Counters for tests and diagnostics."""
    with _lock:
        return {
            "enabled": _enabled,
            "buffered": len(_ring),
            "started": _started,
            "ingested": _ingested,
            "dropped": _dropped,
            "sink": _sink_path,
        }


def _after_fork_in_child() -> None:
    # another parent thread may have held the lock at fork time; the
    # child gets a fresh one before it touches the ring
    global _lock
    _lock = threading.RLock()
    _ring.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


def _reset_for_tests() -> None:
    """Forget all tracer state and re-read the environment flag."""
    global _enabled, _dropped, _ingested, _started
    with _lock:
        set_trace_sink(None)
        _ring.clear()
        _dropped = 0
        _ingested = 0
        _started = 0
        _enabled = _env_enabled()
