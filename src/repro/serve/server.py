"""Micro-batching JSON prediction server (stdlib only).

A :class:`ModelServer` fronts a :class:`~repro.serve.registry.ModelRegistry`
(or a fixed set of artifacts) and exposes it over HTTP via
``ThreadingHTTPServer`` — one OS thread per connection, which is exactly
the traffic shape :class:`~repro.serve.batching.MicroBatcher` coalesces:
many threads each carrying one row.

Endpoints (all JSON):

``POST /predict``
    ``{"model": name, "version": int|alias, "row": [...]}`` or
    ``{"model": name, "rows": [[...], ...], "proba": true|false}``.
    Single rows go through the micro-batcher; multi-row requests are
    predicted directly (the client already batched them).  Forecast
    models take ``{"model": name, "history": [...], "horizon": H}`` and
    answer with the next ``H`` values of the series.
``GET /models``
    Registry index: every model's versions and aliases.
``GET /health``
    Liveness + the names currently servable.
``GET /metrics``
    Per-model request/batch counters and latency percentiles.
``POST /fit`` / ``GET /fit`` / ``GET /fit/<id>`` / ``POST /fit/<id>/cancel``
    Multi-tenant fit-as-a-service (present when the server is built
    with a :class:`~repro.serve.fitservice.FitService`, i.e. ``python
    -m repro serve --fit``): submit a training payload, list or poll
    jobs, cancel a running search.  Winners land in the registry as
    ``<tenant>.<name>`` and become servable immediately.

Run it with ``python -m repro serve --registry DIR`` (see
:mod:`repro.cli`) or embed it: ``build_http_server`` returns a standard
``http.server`` object, so tests and examples drive it with
``serve_forever`` in a thread.
"""

from __future__ import annotations

import json
import logging
import signal
import threading
import time
import uuid
from collections import OrderedDict
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

import numpy as np

from ..faults import FaultError, fault_hook
from ..native import native_status
from ..obs.metrics import REGISTRY, render_prometheus
from ..obs.trace import trace_context, trace_span
from .artifact import PipelineArtifact
from .batching import (
    BatcherClosed,
    BatcherSaturated,
    MicroBatcher,
    ServingStats,
)
from .registry import ModelRegistry, RegistryError

__all__ = [
    "AdmissionRejected",
    "DeadlineExceeded",
    "ModelServer",
    "build_http_server",
    "serve",
]

_log = logging.getLogger("repro.serve")

#: Prometheus text exposition content type (format 0.0.4)
PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"

#: the endpoints we label metrics with; anything else becomes "other"
#: so a port scanner cannot explode the label cardinality
_KNOWN_ENDPOINTS = ("/predict", "/models", "/health", "/metrics", "/fit")

#: what a shed client should wait before retrying (seconds; the
#: ``Retry-After`` header rounds it up to 1)
_RETRY_AFTER_S = 1

#: per-model serving counters: (Prometheus family, ServingStats
#: attribute, help text)
_SERVING_COUNTERS = (
    ("repro_serving_requests_total", "requests",
     "Client requests served, per model."),
    ("repro_serving_batches_total", "batches",
     "Model invocations (batches), per model."),
    ("repro_serving_rows_total", "rows", "Rows predicted, per model."),
    ("repro_serving_errors_total", "errors",
     "Requests that raised, per model."),
    ("repro_serving_sheds_total", "sheds",
     "Requests shed unpredicted, per model."),
)


class AdmissionRejected(RuntimeError):
    """More than ``max_inflight`` predicts are already running: the
    request is refused at the door (HTTP 429 + ``Retry-After``) so
    accepted requests keep their latency instead of everyone queueing."""


class DeadlineExceeded(RuntimeError):
    """The request's per-request deadline (``deadline_ms``) elapsed
    before a result was produced; the client gets 503 rather than an
    answer it has stopped waiting for."""


class _ServedModel:
    """Serving state of one (model, version): the artifact, its
    :class:`~repro.serve.batching.ServingStats`, and one micro-batcher
    per ``proba`` flag, built on first use.  Eviction retires the
    record; a request still holding it then predicts directly."""

    __slots__ = ("artifact", "stats", "batchers", "retired")

    def __init__(self, artifact: PipelineArtifact) -> None:
        self.artifact = artifact
        self.stats = ServingStats()
        self.batchers: dict[bool, MicroBatcher] = {}
        self.retired = False

    def retire(self) -> list[MicroBatcher]:
        """Mark evicted (under the server lock, so no batcher is built
        after); returns the batchers to close outside the lock."""
        self.retired = True
        return list(self.batchers.values())

    def timed(self, call, n_rows: int):
        """Run ``call()`` as one unbatched request of ``n_rows`` rows,
        counted and timed in this record's stats."""
        t0 = time.perf_counter()
        try:
            out = call()
        except Exception:
            self.stats.record_request(time.perf_counter() - t0, error=True)
            raise
        self.stats.record_batch(n_rows)
        self.stats.record_request(time.perf_counter() - t0)
        return out


class ModelServer:
    """Registry-backed prediction service with per-model micro-batching.

    Per-model state is one :class:`_ServedModel` record per served
    (name, version) in a single LRU bounded by ``max_model_state``.
    Evicting a record never fails a request that already looked it up:
    its row is predicted directly with the artifact it holds."""

    def __init__(self, registry: ModelRegistry | None = None,
                 artifacts: dict[str, PipelineArtifact] | None = None,
                 max_batch: int = 32, max_delay_ms: float = 2.0,
                 batching: bool = True, max_horizon: int = 1000,
                 slow_request_ms: float = 500.0,
                 max_inflight: int | None = None,
                 deadline_ms: float | None = None,
                 max_queue: int | None = None,
                 fit_service=None,
                 max_model_state: int = 256,
                 max_metrics_models: int = 64) -> None:
        """``max_inflight`` bounds concurrently running predicts —
        request number ``max_inflight + 1`` is rejected immediately
        (:class:`AdmissionRejected` → HTTP 429) instead of queueing.
        ``deadline_ms`` is a per-request deadline: a request that cannot
        produce its result in time fails (:class:`DeadlineExceeded` →
        HTTP 503) rather than answering a client that gave up.
        ``max_queue`` bounds each micro-batcher's pending-row queue
        (saturation → :class:`~repro.serve.batching.BatcherSaturated` →
        HTTP 503).  All three default to off (historical unbounded
        behaviour).

        ``fit_service`` mounts a
        :class:`~repro.serve.fitservice.FitService` under ``/fit`` (and
        the server adopts its registry when none was given, so winners
        are servable immediately).  With tenants registering models
        freely, per-model serving state can no longer grow unboundedly:
        ``max_model_state`` caps the per-model records (artifact, stats,
        batchers; least-recently-served evicted first, rebuilt on
        demand) and
        ``max_metrics_models`` caps the per-model label cardinality of
        ``/metrics`` — everything beyond the most recently active
        models is aggregated under ``model="_other"``."""
        if fit_service is not None and registry is None:
            registry = fit_service.registry
        if registry is None and not artifacts and fit_service is None:
            raise ValueError(
                "need a registry, named artifacts, or a fit service"
            )
        if max_model_state < 1:
            raise ValueError(
                f"max_model_state must be >= 1, got {max_model_state}"
            )
        if max_metrics_models < 1:
            raise ValueError(
                f"max_metrics_models must be >= 1, got {max_metrics_models}"
            )
        if max_inflight is not None and max_inflight < 1:
            raise ValueError(f"max_inflight must be >= 1, got {max_inflight}")
        if deadline_ms is not None and deadline_ms <= 0:
            raise ValueError(f"deadline_ms must be > 0, got {deadline_ms}")
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        self.registry = registry
        self._fixed = dict(artifacts or {})
        self.max_batch = int(max_batch)
        self.max_delay_ms = float(max_delay_ms)
        self.batching = bool(batching)
        self.max_horizon = int(max_horizon)
        #: requests slower than this are logged with their request id
        self.slow_request_ms = float(slow_request_ms)
        self.max_inflight = max_inflight
        self.deadline_ms = deadline_ms
        self.max_queue = max_queue
        self._inflight_sem = (
            threading.BoundedSemaphore(int(max_inflight))
            if max_inflight is not None else None
        )
        #: requests refused without prediction, by reason (also exported
        #: as ``repro_serving_shed_total`` and shown by ``/health``)
        self.shed_counts = {"inflight": 0, "queue": 0, "deadline": 0}
        self._gauge_inflight = REGISTRY.gauge(
            "repro_serving_inflight",
            "Predict requests currently being served.",
        )
        self.fit_service = fit_service
        self.max_model_state = int(max_model_state)
        self.max_metrics_models = int(max_metrics_models)
        self._lock = threading.Lock()
        # one record per served (name, version) in recency order; the
        # oldest is evicted once max_model_state is exceeded
        self._models: OrderedDict[tuple[str, int | str], _ServedModel] = \
            OrderedDict()

    def _shed(self, reason: str) -> None:
        with self._lock:
            self.shed_counts[reason] = self.shed_counts.get(reason, 0) + 1
        REGISTRY.counter(
            "repro_serving_shed_total",
            "Predict requests refused without running the model, "
            "by reason.",
            reason=reason,
        ).inc()

    # -- per-model state -----------------------------------------------
    def _lookup(self, name: str,
                version: int | str) -> tuple[_ServedModel, int | str]:
        """The record serving ``name`` at ``version``, loaded on first
        use and marked most recently served.  Tenants register models
        without bound, so records past ``max_model_state`` are evicted
        least-recently-served first."""
        if name in self._fixed:
            if version not in ("latest", "-"):
                raise RegistryError(
                    f"model {name!r} is served from a fixed artifact with "
                    f"no version history; requested version {version!r} "
                    "cannot be honoured (omit it or use 'latest')"
                )
            key = (name, "-")
        elif self.registry is None:
            raise RegistryError(
                f"unknown model {name!r}; serving: {sorted(self._fixed)}"
            )
        else:
            key = (name, self.registry.resolve(name, version))
        with self._lock:
            record = self._models.get(key)
            if record is not None:
                self._models.move_to_end(key)
                return record, key[1]
        record = _ServedModel(
            self._fixed[name] if name in self._fixed
            else self.registry.get(*key)  # integrity-checked
        )
        with self._lock:
            record = self._models.setdefault(key, record)
            self._models.move_to_end(key)
            doomed = []
            while len(self._models) > self.max_model_state:
                doomed += self._models.popitem(last=False)[1].retire()
        for b in doomed:
            b.close()
        return record, key[1]

    def _batcher(self, record: _ServedModel, proba: bool) -> MicroBatcher:
        """``record``'s micro-batcher for ``proba``, built on first use.
        Raises :class:`BatcherClosed` once the record is evicted."""
        with self._lock:
            if record.retired:
                raise BatcherClosed("model state was evicted")
            batcher = record.batchers.get(proba)
            if batcher is None:
                art = record.artifact
                batcher = record.batchers[proba] = MicroBatcher(
                    art.predict_proba if proba else art.predict,
                    max_batch=self.max_batch,
                    max_delay_ms=self.max_delay_ms,
                    stats=record.stats, max_queue=self.max_queue,
                )
            return batcher

    def evict_model_state(self, name: str,
                          version: int | str | None = None) -> int:
        """Drop the cached artifact, stats and batchers of ``name`` (one
        ``version``, or every version when omitted).  Returns how many
        (model, version) records were evicted; a record is rebuilt
        lazily if the model is served again."""
        with self._lock:
            keys = [k for k in self._models if k[0] == name
                    and (version is None or k[1] == version)]
            doomed = [b for k in keys for b in self._models.pop(k).retire()]
        for b in doomed:
            b.close()
        return len(keys)

    def reconcile_model_state(self) -> int:
        """Evict serving state whose registry version is gone or
        quarantined (deleted models, rolled-back/corrupt versions) —
        the registry is the source of truth; this cache must follow it.
        Returns how many (model, version) records were dropped."""
        if self.registry is None:
            return 0
        index = self.registry.index()
        with self._lock:
            known = list(self._models)
        evicted = 0
        for name, version in known:
            if name in self._fixed:
                continue
            entries = index.get(name, {}).get("versions", [])
            alive = any(
                e["version"] == version and not e.get("quarantined")
                for e in entries
            )
            if not alive:
                evicted += self.evict_model_state(name, version)
        return evicted

    # -- serving -------------------------------------------------------
    def queue_depth(self) -> int:
        """Rows waiting in micro-batcher queues right now (all models)."""
        with self._lock:
            batchers = [b for r in self._models.values()
                        for b in r.batchers.values()]
        return sum(b.queue_depth for b in batchers)

    def predict(self, name: str, rows, proba: bool = False,
                version: int | str = "latest",
                horizon: int | None = None,
                single: bool | None = None) -> dict:
        """Predict with admission control and a per-request deadline.

        The wrapper around :meth:`_predict_unguarded`: rejects when
        ``max_inflight`` predicts are already running
        (:class:`AdmissionRejected`), fails results that arrive after
        ``deadline_ms`` (:class:`DeadlineExceeded`), and consults the
        ``http.predict`` fault site (injected delay or error) so load
        shedding is testable on demand.
        """
        if (
            self._inflight_sem is not None
            and not self._inflight_sem.acquire(blocking=False)
        ):
            self._shed("inflight")
            raise AdmissionRejected(
                f"server is at its {self.max_inflight}-request in-flight "
                "limit; retry later"
            )
        deadline = (
            time.perf_counter() + self.deadline_ms / 1e3
            if self.deadline_ms else None
        )
        self._gauge_inflight.inc()
        try:
            rule = fault_hook("http.predict")
            if rule is not None:
                if rule.mode == "error":
                    raise FaultError("injected http.predict failure")
                time.sleep(rule.param if rule.param is not None else 0.05)
            try:
                result = self._predict_unguarded(
                    name, rows, proba=proba, version=version,
                    horizon=horizon, single=single,
                )
            except BatcherSaturated:
                self._shed("queue")
                raise
            if deadline is not None and time.perf_counter() > deadline:
                self._shed("deadline")
                raise DeadlineExceeded(
                    f"request exceeded its {self.deadline_ms:g} ms deadline"
                )
            return result
        finally:
            self._gauge_inflight.dec()
            if self._inflight_sem is not None:
                self._inflight_sem.release()

    def _predict_unguarded(self, name: str, rows, proba: bool = False,
                           version: int | str = "latest",
                           horizon: int | None = None,
                           single: bool | None = None) -> dict:
        """Predict ``rows`` (one row or a batch) with a served model.

        Forecast models interpret ``rows`` as the raw recent history of
        the series and answer with the next ``horizon`` values (default:
        the model's fitted horizon).  Histories are variable-length and
        one request yields a whole forecast, so they bypass the
        micro-batcher.

        ``single`` says whether the client explicitly sent one feature
        vector (the HTTP handler's ``'row'`` key): once coerced to an
        array, an explicitly *empty batch* (``rows: []``) and a 1-D row
        are otherwise indistinguishable — the empty batch answers
        ``predictions: []`` instead of being misread as one
        zero-feature row.
        """
        record, resolved = self._lookup(name, version)
        artifact = record.artifact
        X = np.asarray(rows, dtype=np.float64)
        if artifact.task == "forecast":
            if proba:
                raise ValueError(
                    "proba is not defined for forecast models; request the "
                    "point forecast instead"
                )
            # the horizon is client-controlled and drives a recursive
            # predict loop: cap it, like max_batch caps batched rows
            if horizon is not None and not 1 <= horizon <= self.max_horizon:
                raise ValueError(
                    f"horizon must be in [1, {self.max_horizon}], got "
                    f"{horizon} (raise max_horizon at server start to "
                    "allow longer forecasts)"
                )
            predictions = record.timed(
                lambda: artifact.predict(X, horizon=horizon), 1
            )
            return {
                "model": name,
                "version": resolved,
                "proba": False,
                "batched": False,
                "horizon": int(predictions.shape[0]),
                "n": int(predictions.shape[0]),
                "predictions": predictions.tolist(),
            }
        if horizon is not None:
            raise ValueError(
                f"model {name!r} is not a forecast model; 'horizon' does "
                "not apply"
            )
        if X.ndim >= 1 and X.shape[0] == 0 and not (single and X.ndim == 1):
            # a well-formed empty batch: nothing to predict (an *empty
            # single row* instead falls through to the feature check)
            return {
                "model": name,
                "version": resolved,
                "proba": bool(proba),
                "batched": False,
                "n": 0,
                "predictions": [],
            }
        batched = self.batching and (
            X.ndim == 1 or (X.ndim == 2 and X.shape[0] == 1)
        )
        if batched:
            row = X.reshape(-1)
            # reject malformed rows *before* they join a batch: inside
            # the batcher one bad row would fail the shared model call
            # and error out every coalesced request
            artifact.check_n_features(row.shape[0])
            try:
                out = self._batcher(record, proba).submit(row)
            except BatcherClosed:
                # the record was evicted after this request looked it
                # up: predict the row directly with the artifact in hand
                batched = False
            else:
                predictions = np.asarray(out).reshape(1, -1) if proba \
                    else np.asarray([out])
        if not batched:
            fn = artifact.predict_proba if proba else artifact.predict
            predictions = record.timed(
                lambda: fn(X), int(np.atleast_2d(X).shape[0])
            )
        return {
            "model": name,
            "version": resolved,
            "proba": bool(proba),
            "batched": batched,
            "n": int(np.asarray(predictions).shape[0]),
            "predictions": np.asarray(predictions).tolist(),
        }

    def model_index(self) -> dict:
        """What ``/models`` returns: registry index + fixed artifacts."""
        out = self.registry.index() if self.registry is not None else {}
        for name, art in self._fixed.items():
            out[name] = {"versions": [{"version": "-", **art.describe()}],
                         "aliases": {}}
        return out

    def served_names(self) -> list[str]:
        """Names this server can answer ``/predict`` for."""
        names = set(self._fixed)
        if self.registry is not None:
            names.update(self.registry.models())
        return sorted(names)

    def _metrics_view(self) -> tuple[list, dict | None]:
        """Per-model stats split into (reported, rollup): the
        ``max_metrics_models`` most recently active models get their own
        series; the long tail — unbounded under multi-tenant
        registration — is summed into one rollup (None without a tail)
        so label cardinality stays fixed.  A record that has answered
        no request yet is not reported."""
        with self._lock:
            items = [
                (f"{name}@{version}" if version != "-" else name, r.stats)
                for (name, version), r in self._models.items()
                if r.stats.requests or r.stats.sheds
            ]
        items.sort(key=lambda kv: kv[1].last_active, reverse=True)
        reported = items[: self.max_metrics_models]
        rest = [stats for _, stats in items[self.max_metrics_models:]]
        if not rest:
            return reported, None
        rollup = {"models": len(rest)}
        for _family, attr, _help in _SERVING_COUNTERS:
            rollup[attr] = sum(int(getattr(s, attr)) for s in rest)
        hists = [s.latency_hist.state() for s in rest]
        rollup["latency"] = {
            "buckets": hists[0]["buckets"],
            "counts": [sum(c) for c in zip(*(h["counts"] for h in hists))],
            "sum": sum(h["sum"] for h in hists),
            "count": sum(h["count"] for h in hists),
        }
        return reported, rollup

    def metrics(self) -> dict:
        """Per-model counters + latency percentiles (most recently
        active ``max_metrics_models`` models; the rest roll up into
        ``"_other"``)."""
        reported, rollup = self._metrics_view()
        out = {key: stats.snapshot() for key, stats in reported}
        if rollup is not None:
            out["_other"] = {k: v for k, v in rollup.items()
                             if k != "latency"}
        return out

    def prometheus_metrics(self) -> str:
        """Prometheus text exposition: per-model serving series plus the
        process-wide :data:`~repro.obs.metrics.REGISTRY` (HTTP counters,
        native dispatch, plane caches, ...).  Per-model label
        cardinality is bounded at ``max_metrics_models``; less recently
        active models aggregate under ``model="_other"``."""
        reported, rollup = self._metrics_view()
        rows = [
            (key, {attr: int(getattr(stats, attr))
                   for _f, attr, _h in _SERVING_COUNTERS},
             stats.latency_hist.state())
            for key, stats in reported
        ]
        if rollup is not None:
            rows.append(("_other", rollup, rollup["latency"]))
        serving: dict = {
            family: {"type": "counter", "help": help, "series": [
                {"labels": {"model": key}, "value": counts[attr]}
                for key, counts, _hist in rows
            ]}
            for family, attr, help in _SERVING_COUNTERS
        }
        serving["repro_serving_request_seconds"] = {
            "type": "histogram",
            "help": "End-to-end request latency, per model.",
            "series": [{"labels": {"model": key}, **hist}
                       for key, _counts, hist in rows],
        }
        return render_prometheus(serving, REGISTRY.snapshot())

    def close(self) -> None:
        """Shut down every micro-batcher worker (and the fit service)."""
        with self._lock:
            doomed = [b for r in self._models.values() for b in r.retire()]
        for b in doomed:
            b.close()
        if self.fit_service is not None:
            self.fit_service.close()


class _Handler(BaseHTTPRequestHandler):
    """Maps HTTP requests onto the owning :class:`ModelServer`."""

    server_version = "repro-serve/1"
    protocol_version = "HTTP/1.1"

    @property
    def model_server(self) -> ModelServer:
        return self.server.model_server  # type: ignore[attr-defined]

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        pass  # keep test/CLI output clean; metrics carry the signal

    def _send(self, code: int, body: bytes, content_type: str,
              headers: dict | None = None) -> None:
        self.send_response(code)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        req_id = getattr(self, "_request_id", None)
        if req_id:
            self.send_header("X-Request-Id", req_id)
        for key, value in (headers or {}).items():
            self.send_header(key, str(value))
        self.end_headers()
        self.wfile.write(body)
        self._status = code

    def _reply(self, code: int, payload: dict,
               headers: dict | None = None) -> None:
        self._send(code, json.dumps(payload, default=float).encode(),
                   "application/json", headers=headers)

    # -- per-request observability -------------------------------------
    def _observed(self, method: str, handler) -> None:
        """Run one request handler with a request id, an ``http.request``
        span, per-endpoint counters/latency, and slow-request logging."""
        self._request_id = uuid.uuid4().hex[:16]
        self._status = 0
        path = urlparse(self.path).path
        if path in _KNOWN_ENDPOINTS:
            endpoint = path
        elif path.startswith("/fit/"):
            endpoint = "/fit"  # job ids must not become label values
        else:
            endpoint = "other"
        # the threshold in force when the request arrived judges it
        slow_ms = self.model_server.slow_request_ms
        t0 = time.perf_counter()
        try:
            with trace_context(self._request_id):
                with trace_span("http.request", method=method,
                                endpoint=endpoint):
                    handler()
        finally:
            dur = time.perf_counter() - t0
            REGISTRY.counter(
                "repro_http_requests_total",
                "HTTP requests served, by endpoint and status code.",
                endpoint=endpoint, code=str(self._status),
            ).inc()
            REGISTRY.histogram(
                "repro_http_request_seconds",
                "HTTP request handling latency, by endpoint.",
                endpoint=endpoint,
            ).observe(dur)
            if slow_ms and dur * 1e3 >= slow_ms:
                _log.warning(
                    "slow request: %s %s -> %s in %.1f ms (request_id=%s)",
                    method, path, self._status, dur * 1e3, self._request_id,
                )

    def _wants_prometheus(self) -> bool:
        query = parse_qs(urlparse(self.path).query)
        fmt = (query.get("format") or [""])[0].lower()
        if fmt:
            return fmt in ("prometheus", "text")
        accept = (self.headers.get("Accept") or "").lower()
        return "text/plain" in accept or "openmetrics" in accept

    def do_GET(self) -> None:  # noqa: N802 - stdlib naming
        self._observed("GET", self._handle_get)

    def do_POST(self) -> None:  # noqa: N802 - stdlib naming
        self._observed("POST", self._handle_post)

    def _fit_service(self):
        """The mounted fit service, or None after a 404 reply."""
        fs = self.model_server.fit_service
        if fs is None:
            self._reply(404, {"error": "fit service is not enabled; start "
                                       "the server with `serve --fit`"})
        return fs

    def _handle_get(self) -> None:
        path = urlparse(self.path).path
        srv = self.model_server
        if path == "/health":
            body = {
                "status": "ok",
                "models": srv.served_names(),
                "native": native_status(),
                # load-shedding visibility: how deep the predict queues
                # are and how many requests were refused, by reason
                "queue_depth": srv.queue_depth(),
                "inflight": srv._gauge_inflight.value,
                "sheds": dict(srv.shed_counts),
            }
            if srv.fit_service is not None:
                body["fit"] = srv.fit_service.stats()
            self._reply(200, body)
        elif path == "/models":
            self._reply(200, srv.model_index())
        elif path == "/metrics":
            if self._wants_prometheus():
                self._send(200, srv.prometheus_metrics().encode(),
                           PROMETHEUS_CONTENT_TYPE)
            else:  # default stays the backward-compatible JSON view
                self._reply(200, srv.metrics())
        elif path == "/fit":
            fs = self._fit_service()
            if fs is not None:
                query = parse_qs(urlparse(self.path).query)
                tenant = (query.get("tenant") or [None])[0]
                self._reply(200, {"jobs": fs.jobs(tenant=tenant)})
        elif path.startswith("/fit/"):
            fs = self._fit_service()
            if fs is not None:
                from .fitservice import UnknownJobError

                try:
                    self._reply(200, fs.status(path[len("/fit/"):]))
                except UnknownJobError as exc:
                    self._reply(404, {"error": str(exc)})
        else:
            self._reply(404, {"error": f"unknown endpoint {path!r}; have "
                                       "/predict /models /health /metrics "
                                       "/fit"})

    def _handle_post_fit(self, path: str) -> None:
        """POST ``/fit`` (submit) and ``/fit/<id>/cancel``."""
        fs = self._fit_service()
        if fs is None:
            return
        from .fitservice import FitServiceError, UnknownJobError

        if path != "/fit":
            job_id, _, verb = path[len("/fit/"):].rpartition("/")
            if verb != "cancel" or not job_id:
                self._reply(404, {"error": f"unknown endpoint {path!r}; "
                                           "POST /fit or /fit/<id>/cancel"})
                return
            try:
                self._reply(200, fs.cancel(job_id))
            except UnknownJobError as exc:
                self._reply(404, {"error": str(exc)})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            req = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"invalid JSON body: {exc}"})
            return
        missing = [k for k in ("tenant", "name", "X", "y") if k not in req]
        if missing:
            self._reply(400, {"error": "fit submission must carry "
                                       f"{missing} (tenant, name, X, y)"})
            return
        try:
            job = fs.submit(
                req["tenant"], req["name"], req["X"], req["y"],
                task=req.get("task"),
                time_budget=float(req.get("time_budget", 30.0)),
                max_iters=(None if req.get("max_iters") is None
                           else int(req["max_iters"])),
                seed=int(req.get("seed", 0)),
                estimators=req.get("estimators"),
                weight=int(req.get("weight", 1)),
                max_concurrent=(None if req.get("max_concurrent") is None
                                else int(req["max_concurrent"])),
            )
        except FitServiceError as exc:
            self._reply(400, {"error": str(exc)})
        except (TypeError, ValueError) as exc:
            self._reply(400, {"error": str(exc)})
        else:
            # 202: accepted and queued, poll GET /fit/<job_id>
            self._reply(202, job.snapshot())

    def _handle_post(self) -> None:
        path = urlparse(self.path).path
        if path == "/fit" or path.startswith("/fit/"):
            self._handle_post_fit(path)
            return
        if path != "/predict":
            self._reply(404, {"error": f"unknown endpoint {path!r}"})
            return
        try:
            length = int(self.headers.get("Content-Length", 0))
            req = json.loads(self.rfile.read(length) or b"{}")
        except (ValueError, json.JSONDecodeError) as exc:
            self._reply(400, {"error": f"invalid JSON body: {exc}"})
            return
        srv = self.model_server
        rows = req.get("rows", req.get("row", req.get("history")))
        if rows is None:
            self._reply(400, {"error": "body must carry 'row' (one feature "
                                       "vector), 'rows' (a batch), or "
                                       "'history' (a series to forecast "
                                       "from)"})
            return
        name = req.get("model")
        if name is None:
            served = srv.served_names()
            if len(served) != 1:
                self._reply(400, {"error": "'model' is required when more "
                                           f"than one model is served: {served}"})
                return
            name = served[0]
        try:
            horizon = req.get("horizon")
            result = srv.predict(
                name, rows,
                proba=bool(req.get("proba", False)),
                version=req.get("version", "latest"),
                horizon=None if horizon is None else int(horizon),
                single="row" in req and "rows" not in req,
            )
        except AdmissionRejected as exc:
            # too many concurrent predicts: shed with an explicit 429 so
            # well-behaved clients back off (Retry-After) instead of
            # stacking up behind a saturated server
            self._reply(429, {"error": str(exc)},
                        headers={"Retry-After": _RETRY_AFTER_S})
        except (BatcherSaturated, DeadlineExceeded) as exc:
            # the server accepted the request but cannot serve it in
            # time (full predict queue / expired deadline): 503, not a
            # hang and not a misleading 500
            self._reply(503, {"error": str(exc)},
                        headers={"Retry-After": _RETRY_AFTER_S})
        except RegistryError as exc:
            self._reply(404, {"error": str(exc)})
        except FaultError as exc:
            # injected server-side failure (chaos runs): a genuine 500
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        except (ValueError, TypeError, RuntimeError) as exc:
            self._reply(400, {"error": str(exc)})
        except Exception as exc:  # pragma: no cover - defensive
            self._reply(500, {"error": f"{type(exc).__name__}: {exc}"})
        else:
            self._reply(200, result)


class _ThreadingServer(ThreadingHTTPServer):
    daemon_threads = True
    # stdlib default backlog is 5: bursty clients that open a connection
    # per request (urllib does) get connection-reset under load
    request_queue_size = 128


def build_http_server(model_server: ModelServer, host: str = "127.0.0.1",
                      port: int = 0) -> ThreadingHTTPServer:
    """Bind a ``ThreadingHTTPServer`` for ``model_server``.

    ``port=0`` picks a free ephemeral port — read it back from
    ``server.server_address[1]`` (what the tests and the CI smoke job do).
    """
    httpd = _ThreadingServer((host, port), _Handler)
    httpd.model_server = model_server  # type: ignore[attr-defined]
    return httpd


def serve(model_server: ModelServer, host: str = "127.0.0.1",
          port: int = 8000) -> None:
    """Blocking convenience runner (the CLI's ``repro serve`` body).

    SIGINT stops it cleanly.  On the main thread it installs Python's
    ``KeyboardInterrupt`` handler itself: a background job of a
    non-interactive shell inherits SIGINT as ignored, and Python then
    installs none, so the server would never stop."""
    if threading.current_thread() is threading.main_thread():
        signal.signal(signal.SIGINT, signal.default_int_handler)
    httpd = build_http_server(model_server, host, port)
    actual = httpd.server_address[1]
    print(f"serving {model_server.served_names()} on http://{host}:{actual}")
    try:
        httpd.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        httpd.server_close()
        model_server.close()
