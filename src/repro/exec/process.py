"""Process-pool backend: true multi-core parallelism with crash isolation.

Worker initialisation is **zero-copy**: the dataset's arrays are
exported once into POSIX shared memory
(:mod:`multiprocessing.shared_memory`) and each worker attaches by
name, so the init payload is O(1) metadata — segment names, shapes,
dtypes — instead of a pickle of the full feature matrix.  This

* removes the per-worker serialisation cost under the ``spawn`` start
  method (under ``fork`` it also deduplicates the physical pages);
* sidesteps pickling limits on huge arrays entirely;
* keeps rebuilt pools cheap after a worker crash (the segments
  outlive the pool and are reattached, not re-shipped).

Each worker wraps its shared-memory-backed dataset in the process-local
:class:`~repro.data.binned.BinnedDataset` plane, so split indices and
histogram bin codes are computed once per worker, not once per trial.

Object-dtype labels (no fixed-size buffer) ship as integer codes; their
classes ride the init payload and the worker rebuilds ``y``.

Shared memory is the only way the dataset reaches a worker.  An export
that fails (``/dev/shm`` full, an injected ``shm.attach`` fault) leaves
no segment and no pool: the first ``submit`` raises
:class:`~repro.exec.base.PoolBrokenError`, and the engine degrades to
the thread backend, which shares the dataset by reference.

Trial payloads must be picklable:

* estimator classes must be importable module-level classes (all
  built-in learners are; a class defined inside a function is not);
* registry metrics are sent *by name* and re-resolved in the worker, so
  the lambda-based built-ins work; custom :class:`Metric` objects are
  pickled directly and must therefore avoid closures/lambdas.

Fitted models stay in the worker (``TrialOutcome.model`` is ``None``):
the search only consumes (error, cost), and the winning configuration is
retrained by the caller anyway.

If a worker dies hard (segfault, ``os._exit``), the pool is rebuilt on
the next submit; the in-flight trials surface ``BrokenProcessPool``,
which the engine converts into inf-error outcomes — one bad trial never
kills the search.  A pool that keeps dying (workers that fail their
attach die during spin-up) raises ``PoolBrokenError`` after
``REBUILDS_TO_BROKEN`` deaths in a row, and the engine degrades.

``shutdown()`` unlinks every segment; a ``weakref.finalize`` backstop
unlinks them if an executor is dropped without shutdown, so repeated
fits never accumulate ``/dev/shm`` blocks.
"""

from __future__ import annotations

import dataclasses
import os
import uuid
import weakref
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from multiprocessing import shared_memory

import numpy as np

from ..core.evaluate import TrialOutcome
from ..data.binned import BinnedDataset, plane_for
from ..data.dataset import Dataset
from ..faults import InjectedShmError, active as active_fault_plan, \
    install as install_fault_plan
from ..learners.histogram import code_dtype
from ..obs.metrics import REGISTRY, snapshot_diff
from ..obs.trace import drain_spans, set_tracing, tracing_enabled
from .base import FutureHandle, PoolBrokenError, TrialExecutor, TrialSpec, \
    run_spec

__all__ = ["ProcessExecutor"]

#: prefix of every shared-memory segment this backend creates (leak
#: checks grep ``/dev/shm`` for it)
SHM_PREFIX = "repro-ds-"

# bytes placed in shared memory for workers, by payload kind — the
# observable record of what the data plane actually ships ("codes"
# instead of "X" is the large-n memory win the bench asserts)
_HELP_SHIP = "Bytes exported into worker shared memory, by array kind."
_m_ship = {
    kind: REGISTRY.counter("repro_shm_shipped_bytes_total", _HELP_SHIP,
                           kind=kind)
    for kind in ("X", "y", "codes")
}
_m_segments = REGISTRY.counter(
    "repro_shm_segments_total",
    "Shared-memory segments created for worker datasets.",
)


def _maybe_shm_fault(stage: str, key) -> None:
    """Consult the ``shm.attach`` fault site for one export/attach.

    The rule's ``mode`` scopes which stage it hits: ``"export"`` fails
    only the parent-side segment creation (the executor builds no pool
    and its first submit reports the substrate broken), ``"attach"``
    fails only the worker-side attach (exercising the rebuild circuit
    breaker, since workers die during pool spin-up), and ``None`` hits
    both.
    """
    plan = active_fault_plan()
    if plan is None:
        return
    rule = plan.rules.get("shm.attach")
    if rule is None or (rule.mode is not None and rule.mode != stage):
        return
    if plan.decide("shm.attach", key=key) is not None:
        raise InjectedShmError(f"injected fault at shm.attach ({stage})")


#: the dataset each worker process evaluates against (set by the
#: initializer; module-global so trials don't re-ship the arrays)
_WORKER_DATA: Dataset | None = None
#: attached segments, kept alive for as long as the worker uses the
#: arrays mapped onto their buffers
_WORKER_SEGMENTS: list[shared_memory.SharedMemory] = []


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing segment.

    Pre-3.13 ``SharedMemory(name=...)`` registers with the resource
    tracker even on attach — harmless here: every multiprocessing start
    method (fork, forkserver *and* spawn, which ships the tracker fd in
    its preparation data) shares the parent's tracker process, where
    registration is an idempotent set-add that the owner's ``unlink()``
    clears exactly once.  Unregistering on the worker side would instead
    strip the owner's entry and make the final unlink trip a KeyError in
    the tracker.  3.13+ can skip the add entirely via ``track=False``.
    """
    _maybe_shm_fault("attach", ("attach", name))
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:  # track= is 3.13+
        return shared_memory.SharedMemory(name=name)


def _attach_array(meta: dict) -> np.ndarray:
    """A read-only view over one exported segment (kept attached)."""
    shm = _attach_segment(meta["shm"])
    _WORKER_SEGMENTS.append(shm)
    arr = np.ndarray(meta["shape"], dtype=np.dtype(meta["dtype"]),
                     buffer=shm.buf)
    arr.flags.writeable = False
    return arr


def _init_worker(payload: dict) -> None:
    """Build the worker's dataset from O(1) shared-memory metadata.

    The arrays are read-only views over the shared segments — a learner
    mutating its input would corrupt every sibling worker, so that must
    fail loudly.

    When the payload carries a ``warmup`` context (the search's
    resampling/ratio/seed/initial sample size), the worker's binned-data
    plane is pre-populated here, so the first trial it runs pays no
    cold-cache cost — the splits and codes are computed during pool
    spin-up instead of inside the first trial's measured wall-clock.
    Warmup is strictly best-effort: any failure leaves a cold (correct)
    plane.
    """
    global _WORKER_DATA
    # the parent's fault plan (if any) rides the init payload so sites
    # consulted inside workers — shm.attach below, the trial sites in
    # run_spec — fire with the same seeded determinism as in-process
    if payload.get("faults") is not None:
        install_fault_plan(payload["faults"])
    codes_only = "codes" in payload
    if codes_only:
        # codes-only plane: attach the pre-binned uint8/uint16 base-code
        # matrix and y; the float feature matrix never crosses.  X is a
        # zero-byte broadcast stub (a single NaN strided to (n, d)) that
        # only carries the shape — every trial gathers from the adopted
        # codes, and a trial whose learner would read raw features fails
        # loudly (see evaluate._plane_error)
        codes = _attach_array(payload["codes"])
        y = _attach_array(payload["y"])
        n, d = payload["x_shape"]
        X = np.lib.stride_tricks.as_strided(
            np.full(1, np.nan), shape=(int(n), int(d)), strides=(0, 0)
        )
        X.flags.writeable = False
    else:
        X = _attach_array(payload["X"])
        y = _attach_array(payload["y"])
    if "classes" in payload:
        # object labels crossed as integer codes into their classes
        y = payload["classes"][y]
        y.flags.writeable = False
    _WORKER_DATA = Dataset(
        payload["name"], X, y, payload["task"], tuple(payload["categorical"]),
    )
    if codes_only:
        _WORKER_DATA._codes_only = True
        plane_for(_WORKER_DATA).adopt_global_codes(
            payload["base"], payload["counts"], payload["defaults"],
            payload["bundles"], codes,
        )
    warmup = payload.get("warmup")
    if warmup:
        from ..data.binned import warm_plane

        try:
            warmup = dict(warmup)
            warmup.pop("plane_learners_only", None)
            warm_plane(_WORKER_DATA, **warmup)
        except Exception:  # pragma: no cover - warmup must never kill init
            pass


def _metric_to_ref(metric):
    """Registry metrics travel by name (their error_fns may be lambdas)."""
    from ..metrics.registry import _REGISTRY

    if _REGISTRY.get(metric.name) is metric:
        return ("registry", metric.name)
    return ("object", metric)


def _metric_from_ref(ref):
    kind, value = ref
    if kind == "registry":
        from ..metrics.registry import get_metric

        return get_metric(value)
    return value


def _spec_payload(spec: TrialSpec) -> dict:
    """The picklable wire form of a spec: every TrialSpec field, with the
    metric replaced by its registry reference.

    Built by field introspection rather than a hand-written key list so
    a field added to :class:`TrialSpec` (e.g. the forecast context)
    cannot be silently dropped on its way to a worker process — the
    pickle-regression tests assert this exhaustiveness.
    """
    payload = {
        f.name: getattr(spec, f.name) for f in dataclasses.fields(TrialSpec)
    }
    payload["metric_ref"] = _metric_to_ref(payload.pop("metric"))
    return payload


def _spec_from_payload(payload: dict) -> TrialSpec:
    """Inverse of :func:`_spec_payload` (worker side)."""
    payload = dict(payload)
    payload["metric"] = _metric_from_ref(payload.pop("metric_ref"))
    return TrialSpec(**payload)


def _run_remote(payload: dict) -> TrialOutcome:
    """Worker-side trial: rebuild the spec and evaluate against the
    process-local dataset.  The model never crosses the pipe.

    Observability rides along: the parent's tracing flag travels with
    each trial (runtime ``set_tracing`` in the parent does not reach
    live workers), and when it is on, the worker drains its span ring
    and ships it — plus its metrics-registry delta — on the outcome for
    the engine to merge.  Metric deltas are diffed per trial, so a
    worker running many trials never re-ships old counts.
    """
    trace_on = bool(payload.get("trace"))
    set_tracing(trace_on)
    before = REGISTRY.snapshot() if trace_on else None
    out = run_spec(_WORKER_DATA, _spec_from_payload(payload["spec"]))
    spans = None
    metrics = None
    if trace_on:
        spans = drain_spans() or None
        metrics = snapshot_diff(before, REGISTRY.snapshot()) or None
    return TrialOutcome(error=out.error, cost=out.cost, model=None,
                        failure=out.failure, trace=spans, metrics=metrics)


def _unlink_segments(segments: list) -> None:
    """Close + unlink owned segments; idempotent (shared finalizer)."""
    while segments:
        shm = segments.pop()
        try:
            shm.close()
        except Exception:  # pragma: no cover - already closed
            pass
        try:
            shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            pass


class ProcessExecutor(TrialExecutor):
    """Run trials on a ``ProcessPoolExecutor`` of ``n_workers`` processes."""

    backend = "process"

    #: consecutive pool rebuilds before this executor declares its
    #: substrate broken (:class:`PoolBrokenError`) so the engine can
    #: degrade the backend instead of thrashing rebuilds forever (the
    #: usual culprit for a pool that dies during spin-up is a failing
    #: shared-memory attach)
    REBUILDS_TO_BROKEN = 4

    def __init__(self, data: Dataset, n_workers: int = 2,
                 warmup: dict | None = None,
                 ship_codes: bool | None = None) -> None:
        """``warmup`` is an optional plane-warmup context forwarded to
        :func:`repro.data.binned.warm_plane` in every worker initializer
        (keys: resampling, holdout_ratio, seed, n_splits, sample_size,
        plus the advisory ``plane_learners_only`` flag) so first trials
        start against warm split/code caches.

        ``ship_codes`` selects the worker data plane: ``True`` exports
        the pre-binned uint8/uint16 sketch-grid code matrix instead of
        the float64 feature matrix (~8x fewer bytes; workers then can
        only run binned-plane-aware learners), ``False`` always ships
        floats, and ``None`` (default) ships codes automatically when
        the dataset is past the exact-binning limit and the warmup
        context says every searched learner is plane-aware.

        An ``OSError`` while exporting unlinks the half-export at once
        and builds no pool; the first :meth:`submit` then raises
        :class:`PoolBrokenError` chained to it."""
        super().__init__(data, n_workers=n_workers)
        self._warmup = dict(warmup) if warmup else None
        self._ship_codes = ship_codes
        #: how the dataset went out: "codes" or "float"
        self.ship_mode: str = "float"
        #: pool rebuilds since the last trial that completed cleanly —
        #: the circuit-breaker input (reset by a healthy future)
        self.consecutive_rebuilds = 0
        self._segments: list[shared_memory.SharedMemory] = []
        # backstop: unlink on garbage collection / interpreter exit if the
        # owner forgot shutdown(); shares the mutable list with shutdown,
        # so whichever runs first empties it and the other no-ops.
        # Registered *before* any segment exists so a half-finished export
        # (e.g. /dev/shm ENOSPC on the second array) still gets cleaned up.
        self._segment_finalizer = weakref.finalize(
            self, _unlink_segments, self._segments
        )
        self._pool: ProcessPoolExecutor | None = None
        #: why the export failed (/dev/shm exhausted, an injected shm
        #: fault); set means this executor has no pool
        self._export_error: OSError | None = None
        try:
            self._init_payload = self._export_dataset(data)
        except OSError as exc:
            _unlink_segments(self._segments)
            self._export_error = exc
            return
        try:
            self._pool = self._make_pool()
        except BaseException:
            _unlink_segments(self._segments)
            raise

    # ------------------------------------------------------------------
    def _export_array(self, arr: np.ndarray, kind: str = "X") -> dict:
        _maybe_shm_fault("export", ("export", kind))
        arr = np.ascontiguousarray(arr)
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(1, arr.nbytes),
            name=f"{SHM_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:12]}",
        )
        np.ndarray(arr.shape, dtype=arr.dtype, buffer=shm.buf)[...] = arr
        self._segments.append(shm)
        _m_segments.inc()
        _m_ship.get(kind, _m_ship["X"]).inc(int(arr.nbytes))
        return {"shm": shm.name, "shape": arr.shape, "dtype": arr.dtype.str}

    def _resolve_ship_codes(self, data: Dataset) -> bool:
        """Decide the codes-vs-floats plane (see ``__init__``)."""
        if self._ship_codes is False:
            return False
        if self._ship_codes is True:
            return True
        warm = self._warmup or {}
        return (
            bool(warm.get("plane_learners_only"))
            and warm.get("resampling") in ("holdout", "cv")
            and data.n > BinnedDataset.EXACT_ROW_LIMIT
        )

    def _export_codes(self, data: Dataset) -> dict:
        """Export the sketch-grid base-code matrix + grid state.

        The code segment is a copy of the base-code matrix the plane
        keeps (and the winner's retrain gathers from), so exporting
        bins no row twice; the grid itself (base binner, counts,
        defaults, bundles) is tiny and rides the pickled init payload.
        """
        _maybe_shm_fault("export", ("export", "codes"))
        plane = plane_for(data)
        st = plane.sketch_state()
        base = st["base"]
        dtype = code_dtype(int(base.n_bins_.max()))
        shape = (data.n, data.d)
        shm = shared_memory.SharedMemory(
            create=True,
            size=max(1, shape[0] * shape[1] * dtype.itemsize),
            name=f"{SHM_PREFIX}{os.getpid()}-{uuid.uuid4().hex[:12]}",
        )
        self._segments.append(shm)
        out = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        plane.fill_base_codes(out)
        _m_segments.inc()
        _m_ship["codes"].inc(int(out.nbytes))
        return {
            "codes": {"shm": shm.name, "shape": shape, "dtype": dtype.str},
            "x_shape": shape,
            "base": base,
            "counts": st["counts"],
            "defaults": st["defaults"],
            "bundles": st["bundles"],
        }

    def _export_dataset(self, data: Dataset) -> dict:
        payload = {
            "name": data.name,
            "task": data.task,
            "categorical": tuple(data.categorical),
        }
        y = np.asarray(data.y)
        if y.dtype.hasobject:
            # object labels have no fixed-size buffer: ship their integer
            # codes, and the classes (small) ride the init payload
            payload["classes"], y = np.unique(y, return_inverse=True)
        if self._resolve_ship_codes(data):
            payload["y"] = self._export_array(y, kind="y")
            payload.update(self._export_codes(data))
            self.ship_mode = "codes"
        else:
            payload["X"] = self._export_array(
                np.asarray(data.X, dtype=np.float64), kind="X")
            payload["y"] = self._export_array(y, kind="y")
            self.ship_mode = "float"
        if self._warmup:
            payload["warmup"] = self._warmup
        return payload

    @property
    def shipped_bytes(self) -> int:
        """Total bytes currently held in this executor's shm segments."""
        return sum(int(shm.size) for shm in self._segments)

    def _make_pool(self) -> ProcessPoolExecutor:
        # refresh the shipped fault plan at every (re)build so a plan
        # installed between builds reaches the new workers
        plan = active_fault_plan()
        self._init_payload["faults"] = plan.spec() if plan else None
        return ProcessPoolExecutor(
            max_workers=self.n_workers,
            initializer=_init_worker,
            initargs=(self._init_payload,),
        )

    # -- pool supervision ----------------------------------------------
    def _on_trial_done(self, future) -> None:
        """Done-callback closing the circuit breaker: any trial that
        completes without an infrastructure exception proves the pool
        healthy again."""
        if not future.cancelled() and future.exception() is None:
            self.consecutive_rebuilds = 0

    def _note_rebuild(self, exc: BaseException) -> None:
        """Account one pool death; ``REBUILDS_TO_BROKEN`` consecutive
        deaths raise :class:`PoolBrokenError` so the engine degrades the
        backend."""
        self.consecutive_rebuilds += 1
        REGISTRY.counter(
            "repro_pool_rebuilds_total",
            "Process-pool rebuilds after the pool broke.",
        ).inc()
        if self.consecutive_rebuilds >= self.REBUILDS_TO_BROKEN:
            raise PoolBrokenError(
                f"process pool died {self.consecutive_rebuilds} times in a "
                f"row (last: {type(exc).__name__}: {exc}); giving up on "
                "this substrate"
            ) from exc

    def submit(self, spec: TrialSpec) -> FutureHandle:
        """Queue the trial onto the process pool, rebuilding it if a
        previous worker crash broke it (the shared segments outlive the
        pool, so a rebuild re-ships only metadata).

        Rebuilds are supervised: consecutive deaths raise
        :class:`PoolBrokenError` (see :meth:`_note_rebuild`), as does
        every submit after a failed export; a healthy completed trial
        resets the breaker.
        """
        if self._export_error is not None:
            exc = self._export_error
            raise PoolBrokenError(
                f"shared-memory export failed ({type(exc).__name__}: "
                f"{exc}); no worker pool"
            ) from exc
        payload = {"spec": _spec_payload(spec), "trace": tracing_enabled()}
        while True:
            try:
                future = self._pool.submit(_run_remote, payload)
            except BrokenProcessPool as exc:
                self._note_rebuild(exc)  # may raise PoolBrokenError
                self._pool = self._make_pool()
                continue
            future.add_done_callback(self._on_trial_done)
            return FutureHandle(future)

    def shutdown(self) -> None:
        """Terminate the pool without waiting on abandoned trials and
        unlink every shared-memory segment this executor created.

        Unlinking while a straggler worker is still attached is safe on
        POSIX: the mapping stays valid until the worker exits; the name
        just disappears immediately.
        """
        if self._pool is not None:
            self._pool.shutdown(wait=False, cancel_futures=True)
        _unlink_segments(self._segments)
