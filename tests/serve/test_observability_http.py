"""HTTP observability: Prometheus /metrics, request ids, slow-request
logging, and the native status in /health.

The Prometheus exposition is validated line-by-line (every sample line
must be ``name{labels} value`` with a numeric value and cumulative
histogram buckets) — the contract a real scraper relies on.
"""

from __future__ import annotations

import json
import logging
import threading
import time
import urllib.request

import pytest

from repro.serve import ModelServer, build_http_server


@pytest.fixture(scope="module")
def live(artifact):
    model_server = ModelServer(artifacts={"churn": artifact}, max_batch=8,
                               max_delay_ms=1.0)
    httpd = build_http_server(model_server, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    base = f"http://127.0.0.1:{httpd.server_address[1]}"
    yield base, model_server
    httpd.shutdown()
    httpd.server_close()
    model_server.close()
    thread.join(timeout=5)


def _get(url, headers=None):
    req = urllib.request.Request(url, headers=headers or {})
    with urllib.request.urlopen(req) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


def _post(url, payload):
    req = urllib.request.Request(
        url, data=json.dumps(payload).encode(),
        headers={"Content-Type": "application/json"},
    )
    with urllib.request.urlopen(req) as resp:
        return resp.status, dict(resp.headers), resp.read().decode()


def _predict_once(base):
    return _post(f"{base}/predict",
                 {"model": "churn", "rows": [[0.1] * 5, [0.2] * 5]})


def _logged(caplog, request_id):
    """The log records naming ``request_id``.  The server logs after
    writing the response, so the client can get here first: wait (<= 5 s)
    before the caller restores the threshold the server reads."""
    deadline = time.monotonic() + 5.0
    while True:
        wanted = [r for r in caplog.records if request_id in r.getMessage()]
        if wanted or time.monotonic() > deadline:
            return wanted
        time.sleep(0.01)


class TestRequestIds:
    def test_every_response_carries_a_request_id(self, live):
        base, _ = live
        _, headers, _ = _get(f"{base}/health")
        assert len(headers["X-Request-Id"]) == 16
        _, headers2, _ = _predict_once(base)
        assert headers2["X-Request-Id"] != headers["X-Request-Id"]

    def test_slow_request_logged_with_its_id(self, live, caplog):
        base, model_server = live
        model_server.slow_request_ms = 0.0001  # everything is "slow"
        try:
            with caplog.at_level(logging.WARNING, logger="repro.serve"):
                _, headers, _ = _get(f"{base}/health")
                wanted = _logged(caplog, headers["X-Request-Id"])
        finally:
            model_server.slow_request_ms = 500.0
        assert wanted and "slow request" in wanted[0].getMessage()

    def test_threshold_read_when_the_request_arrives(self, live, caplog,
                                                     monkeypatch):
        """A threshold raised while a request is handled does not
        unmark it as slow."""
        base, model_server = live
        predict = model_server.predict

        def raise_threshold_then_predict(*args, **kw):
            model_server.slow_request_ms = 1e9
            return predict(*args, **kw)

        monkeypatch.setattr(model_server, "predict",
                            raise_threshold_then_predict)
        model_server.slow_request_ms = 0.0001
        try:
            with caplog.at_level(logging.WARNING, logger="repro.serve"):
                _, headers, _ = _predict_once(base)
                wanted = _logged(caplog, headers["X-Request-Id"])
        finally:
            model_server.slow_request_ms = 500.0
        assert wanted and "slow request" in wanted[0].getMessage()

    def test_fast_requests_not_logged(self, live, caplog):
        base, _ = live
        with caplog.at_level(logging.WARNING, logger="repro.serve"):
            _get(f"{base}/health")
        assert not [r for r in caplog.records
                    if "slow request" in r.getMessage()]


class TestHealthNative:
    def test_health_reports_native_status(self, live):
        base, _ = live
        _, _, body = _get(f"{base}/health")
        native = json.loads(body)["native"]
        assert native["mode"] in ("compiled", "fallback")
        assert set(native) == {"mode", "enabled", "available", "reason"}


class TestPrometheusMetrics:
    def _parse_exposition(self, text):
        """Strict line-by-line parse; returns {sample_line_key: float}."""
        samples = {}
        types = {}
        for line in text.splitlines():
            assert line == line.rstrip()
            if not line:
                continue
            if line.startswith("# TYPE "):
                _, _, name, kind = line.split(" ")
                assert kind in ("counter", "gauge", "histogram")
                types[name] = kind
                continue
            if line.startswith("# HELP "):
                continue
            assert not line.startswith("#")
            name_labels, _, value = line.rpartition(" ")
            assert name_labels, f"malformed sample line: {line!r}"
            samples[name_labels] = float(value)
        return samples, types

    def test_json_default_is_backward_compatible(self, live):
        base, _ = live
        _predict_once(base)
        status, headers, body = _get(f"{base}/metrics")
        assert status == 200
        assert headers["Content-Type"].startswith("application/json")
        stats = json.loads(body)["churn"]
        for key in ("requests", "batches", "rows", "errors",
                    "mean_batch_size", "throughput_rps"):
            assert key in stats

    def test_prometheus_text_parses_line_by_line(self, live):
        base, _ = live
        _predict_once(base)
        status, headers, body = _get(f"{base}/metrics?format=prometheus")
        assert status == 200
        assert headers["Content-Type"].startswith("text/plain; version=0.0.4")
        samples, types = self._parse_exposition(body)
        assert types["repro_serving_requests_total"] == "counter"
        assert types["repro_serving_request_seconds"] == "histogram"
        assert types["repro_http_requests_total"] == "counter"
        assert samples['repro_serving_requests_total{model="churn"}'] >= 1
        # histogram invariants: cumulative buckets, +Inf == _count
        churn = 'repro_serving_request_seconds_bucket{le="+Inf",model="churn"}'
        count = 'repro_serving_request_seconds_count{model="churn"}'
        assert samples[churn] == samples[count] >= 1
        buckets = [
            (key, v) for key, v in samples.items()
            if key.startswith('repro_serving_request_seconds_bucket'
                              '{le=') and 'model="churn"' in key
            and "+Inf" not in key
        ]
        values = [v for _, v in buckets]
        assert values == sorted(values)  # cumulative => non-decreasing

    def test_accept_header_selects_prometheus(self, live):
        base, _ = live
        _, headers, body = _get(f"{base}/metrics",
                                headers={"Accept": "text/plain"})
        assert headers["Content-Type"].startswith("text/plain")
        assert "# TYPE" in body

    def test_http_counters_label_endpoint_and_code(self, live):
        base, _ = live
        _get(f"{base}/health")
        try:
            _get(f"{base}/nowhere-to-be-found")
        except urllib.request.HTTPError:
            pass
        _, _, body = _get(f"{base}/metrics?format=prometheus")
        samples, _ = self._parse_exposition(body)
        ok = 'repro_http_requests_total{code="200",endpoint="/health"}'
        other = 'repro_http_requests_total{code="404",endpoint="other"}'
        assert samples[ok] >= 1
        assert samples[other] >= 1
