"""Serving-state hygiene under multi-tenant churn.

Tenants register models without bound, so the server's one record
per served (model, version) — artifact, stats and batchers — must be
evictable (deleted or rolled-back versions), LRU-bounded, and
``/metrics`` label cardinality must stay fixed no matter how many
models have ever served.  Evicting a record must never fail a request
that already looked it up.
"""

import shutil
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    MicroBatcher,
    ModelRegistry,
    ModelServer,
    ServeClient,
    build_http_server,
)


@pytest.fixture()
def registry(tmp_path, artifact):
    reg = ModelRegistry(str(tmp_path / "registry"))
    for name in ("m0", "m1", "m2"):
        reg.register(name, artifact)
    return reg


@pytest.fixture()
def rows(served_data):
    X, _ = served_data
    return X[:5]


class TestExplicitEviction:
    def test_evict_and_lazy_rebuild(self, registry, rows):
        server = ModelServer(registry=registry, batching=False)
        try:
            before = server.predict("m0", rows)["predictions"]
            assert ("m0", 1) in server._models
            assert "m0@1" in server.metrics()
            assert server.evict_model_state("m0") >= 1
            assert ("m0", 1) not in server._models
            # the record carried the stats: they went with it
            assert all(not k.startswith("m0@") for k in server.metrics())
            # eviction is invisible to clients: state rebuilds on demand
            after = server.predict("m0", rows)["predictions"]
            assert before == after
            assert server.evict_model_state("nope") == 0
        finally:
            server.close()

    def test_evict_single_version_keeps_the_rest(self, registry, artifact,
                                                 rows):
        registry.register("m0", artifact)  # v2
        server = ModelServer(registry=registry, batching=False)
        try:
            server.predict("m0", rows, version=1)
            server.predict("m0", rows, version=2)
            assert server.evict_model_state("m0", version=1) == 1
            assert ("m0", 1) not in server._models
            assert ("m0", 2) in server._models
        finally:
            server.close()


class TestReconcile:
    def test_quarantined_and_deleted_versions_dropped(self, registry,
                                                      rows):
        server = ModelServer(registry=registry, batching=False)
        try:
            for name in ("m0", "m1", "m2"):
                server.predict(name, rows)
            assert server.reconcile_model_state() == 0  # all still live
            registry.quarantine("m1", 1, "integrity scare")
            shutil.rmtree(registry._dir("m2"))  # model deleted outright
            assert server.reconcile_model_state() == 2
            assert ("m0", 1) in server._models
            assert ("m1", 1) not in server._models
            assert ("m2", 1) not in server._models
        finally:
            server.close()

    def test_fixed_artifacts_are_exempt(self, artifact, rows):
        server = ModelServer(artifacts={"pinned": artifact}, batching=False)
        try:
            server.predict("pinned", rows)
            assert server.reconcile_model_state() == 0
        finally:
            server.close()


class TestLruBound:
    def test_state_never_exceeds_max_model_state(self, registry, rows):
        server = ModelServer(registry=registry, batching=False,
                             max_model_state=2)
        try:
            for name in ("m0", "m1", "m2"):
                server.predict(name, rows)
            assert list(server._models) == [("m1", 1), ("m2", 1)]
            # least recently served went first
            assert ("m0", 1) not in server._models
            # serving the evicted model again reloads it and bumps m1
            server.predict("m0", rows)
            server.predict("m2", rows)
            server.predict("m0", rows)
            assert ("m1", 1) not in server._models
            assert list(server._models) == [("m2", 1), ("m0", 1)]
        finally:
            server.close()

    def test_invalid_caps_rejected(self, registry):
        with pytest.raises(ValueError, match="max_model_state"):
            ModelServer(registry=registry, max_model_state=0)
        with pytest.raises(ValueError, match="max_metrics_models"):
            ModelServer(registry=registry, max_metrics_models=0)


class TestMetricsCardinality:
    def test_json_metrics_roll_up_the_tail(self, registry, rows):
        server = ModelServer(registry=registry, batching=False,
                             max_metrics_models=2)
        try:
            for name in ("m0", "m1", "m2"):
                server.predict(name, rows)
            out = server.metrics()
            per_model = [k for k in out if k != "_other"]
            assert len(per_model) == 2
            assert out["_other"]["models"] == 1
            assert out["_other"]["requests"] == 1
            assert out["_other"]["rows"] == len(rows)
        finally:
            server.close()

    def test_prometheus_label_cardinality_is_bounded(self, registry, rows):
        server = ModelServer(registry=registry, batching=False,
                             max_metrics_models=2)
        try:
            for name in ("m0", "m1", "m2"):
                server.predict(name, rows)
            text = server.prometheus_metrics()
            request_lines = [
                line for line in text.splitlines()
                if line.startswith("repro_serving_requests_total{")
            ]
            labels = {line.split("model=")[1].split('"')[1]
                      for line in request_lines}
            assert len(labels) == 3  # 2 recent models + the rollup
            assert "_other" in labels
            # the rollup conserves totals: nothing silently dropped
            total = sum(
                float(line.rsplit(" ", 1)[1]) for line in request_lines
            )
            assert total == 3.0
        finally:
            server.close()

    def test_under_the_cap_no_rollup(self, registry, rows):
        server = ModelServer(registry=registry, batching=False)
        try:
            server.predict("m0", rows)
            assert "_other" not in server.metrics()
            assert 'model="_other"' not in server.prometheus_metrics()
        finally:
            server.close()


class TestValidationFailure:
    def test_rejected_row_leaves_no_metrics_entry(self, registry):
        server = ModelServer(registry=registry)
        try:
            with pytest.raises(ValueError, match="raw features"):
                server.predict("m0", np.zeros(3))
            assert "m0@1" not in server.metrics()
            assert 'model="m0@1"' not in server.prometheus_metrics()
        finally:
            server.close()


def _hammer(predict, rows, expected, n_threads=4, n_requests=400):
    """``n_threads`` clients, each sending ``n_requests`` single-row
    predicts that alternate between m0 and m1; returns every request
    that failed or was answered wrongly."""
    failures = []

    def client(t):
        for i in range(n_requests):
            name = ("m0", "m1")[(i + t) % 2]
            j = (i * n_threads + t) % len(rows)
            try:
                got = predict(name, rows[j])
            except Exception as exc:
                failures.append(f"{name} row {j}: {exc!r}")
                continue
            if got != expected[j]:
                failures.append(f"{name} row {j}: {got!r} != {expected[j]!r}")

    threads = [threading.Thread(target=client, args=(t,), daemon=True)
               for t in range(n_threads)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads), "a client hung"
    return failures


class TestEvictionRace:
    """With one record allowed and two models served, nearly every
    request evicts the other model's record — and its micro-batcher —
    while another thread may be about to use it."""

    @pytest.fixture()
    def two_models(self, tmp_path, artifact, served_data, monkeypatch):
        # a short pause before each submit widens the window between
        # taking a batcher and using it, so an eviction lands in it on
        # every run rather than now and then
        submit = MicroBatcher.submit

        def paused_submit(self, row):
            time.sleep(0.0005)
            return submit(self, row)

        monkeypatch.setattr(MicroBatcher, "submit", paused_submit)
        reg = ModelRegistry(str(tmp_path / "registry"))
        reg.register("m0", artifact)
        reg.register("m1", artifact)
        X, _ = served_data
        rows = X[:40]
        expected = artifact.predict(rows).tolist()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the clients finely
        try:
            yield reg, rows, expected
        finally:
            sys.setswitchinterval(interval)

    def test_in_process_every_request_answered(self, two_models):
        registry, rows, expected = two_models
        server = ModelServer(registry=registry, max_model_state=1)
        try:
            failures = _hammer(
                lambda name, row: server.predict(name, row)["predictions"][0],
                rows, expected,
            )
        finally:
            server.close()
        assert failures == []

    def test_over_http_every_request_answered(self, two_models):
        registry, rows, expected = two_models
        server = ModelServer(registry=registry, max_model_state=1)
        httpd = build_http_server(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
        try:
            failures = _hammer(
                lambda name, row: client.predict(row, model=name).item(),
                rows, expected,
            )
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.close()
            thread.join(timeout=5)
        assert failures == []

    def test_request_holding_an_evicted_record_predicts_directly(
            self, registry, artifact, rows):
        server = ModelServer(registry=registry)
        lookup = server._lookup
        held = []

        def lookup_then_evict(name, version):
            found = lookup(name, version)
            assert server.evict_model_state(name) == 1
            held.append(found[0])
            return found

        server._lookup = lookup_then_evict
        try:
            out = server.predict("m0", rows[0])
            assert out["predictions"] == artifact.predict(rows[:1]).tolist()
            assert out["batched"] is False
            # the evicted record built no batcher for the late request
            assert held[0].retired and held[0].batchers == {}
        finally:
            server.close()

    def test_request_whose_batcher_closes_predicts_directly(
            self, registry, artifact, rows):
        server = ModelServer(registry=registry)
        batcher_for = server._batcher

        def closed_batcher(record, proba):
            batcher = batcher_for(record, proba)
            batcher.close()
            return batcher

        server._batcher = closed_batcher
        try:
            out = server.predict("m0", rows[0], proba=True)
            assert out["predictions"] == \
                artifact.predict_proba(rows[:1]).tolist()
            assert out["batched"] is False
        finally:
            server.close()
