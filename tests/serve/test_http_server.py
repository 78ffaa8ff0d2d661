"""End-to-end serving: fit -> export -> register -> HTTP /predict.

The acceptance path for the serving subsystem: predictions returned over
HTTP must be identical to the in-memory ``AutoML.predict`` on the same
raw rows, and every endpoint must answer well-formed JSON.
"""

import os
import signal
import subprocess
import sys
import threading

import numpy as np
import pytest

import repro

from repro.serve import (
    ModelRegistry,
    ModelServer,
    ServeClient,
    ServeClientError,
    build_http_server,
)


@pytest.fixture(scope="module")
def live_server(tmp_path_factory, artifact):
    registry = ModelRegistry(str(tmp_path_factory.mktemp("registry")))
    registry.register("churn", artifact)
    registry.register("churn", artifact)
    registry.promote("churn", 1, "production")
    model_server = ModelServer(registry=registry, max_batch=16,
                               max_delay_ms=2.0)
    httpd = build_http_server(model_server, port=0)  # free ephemeral port
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
    yield client, model_server
    httpd.shutdown()
    httpd.server_close()
    model_server.close()
    thread.join(timeout=5)


class TestEndToEnd:
    def test_http_predictions_match_in_memory(self, live_server,
                                              fitted_automl, served_data):
        client, _ = live_server
        X, _ = served_data
        assert np.array_equal(
            client.predict(X[:50], model="churn"), fitted_automl.predict(X[:50])
        )

    def test_single_row_goes_through_batcher(self, live_server,
                                             fitted_automl, served_data):
        client, _ = live_server
        X, _ = served_data
        assert client.predict(X[7], model="churn") == \
            fitted_automl.predict(X[7:8])[0]

    def test_proba_matches_in_memory(self, live_server, fitted_automl,
                                     served_data):
        client, _ = live_server
        X, _ = served_data
        assert np.array_equal(
            client.predict(X[:20], model="churn", proba=True),
            fitted_automl.predict_proba(X[:20]),
        )

    def test_concurrent_single_row_clients_all_correct(self, live_server,
                                                       fitted_automl,
                                                       served_data):
        client, _ = live_server
        X, _ = served_data
        expected = fitted_automl.predict(X[:16])
        out = [None] * 16

        def go(i):
            out[i] = client.predict(X[i], model="churn")

        threads = [threading.Thread(target=go, args=(i,)) for i in range(16)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert np.array_equal(np.asarray(out), expected)

    def test_version_and_alias_addressing(self, live_server, served_data):
        client, _ = live_server
        X, _ = served_data
        by_alias = client.predict(X[:5], model="churn", version="production")
        by_number = client.predict(X[:5], model="churn", version=1)
        assert np.array_equal(by_alias, by_number)


class TestEndpoints:
    def test_health(self, live_server):
        client, _ = live_server
        health = client.health()
        assert health["status"] == "ok"
        assert "churn" in health["models"]

    def test_models_index(self, live_server):
        client, _ = live_server
        index = client.models()
        assert [v["version"] for v in index["churn"]["versions"]] == [1, 2]
        assert index["churn"]["aliases"] == {"latest": 2, "production": 1}

    def test_metrics_expose_latency_percentiles(self, live_server,
                                                served_data):
        client, _ = live_server
        X, _ = served_data
        client.predict(X[:5], model="churn")
        metrics = client.metrics()
        key = "churn@2"
        assert metrics[key]["requests"] >= 1
        assert "latency_ms_p99" in metrics[key]

    def test_model_optional_when_unique(self, live_server, fitted_automl,
                                        served_data):
        client, _ = live_server
        X, _ = served_data
        assert np.array_equal(
            client.predict(X[:4]), fitted_automl.predict(X[:4])
        )


class TestErrors:
    def test_unknown_model_is_404(self, live_server):
        client, _ = live_server
        with pytest.raises(ServeClientError, match="unknown model") as exc:
            client.predict(np.zeros((1, 5)), model="nope")
        assert exc.value.status == 404

    def test_wrong_feature_count_is_400(self, live_server):
        client, _ = live_server
        with pytest.raises(ServeClientError,
                           match="trained on 5 raw features") as exc:
            client.predict(np.zeros((2, 9)), model="churn")
        assert exc.value.status == 400

    def test_malformed_single_row_rejected_before_batching(self, live_server):
        # width-checked pre-enqueue: a bad row must not poison a batch
        client, _ = live_server
        with pytest.raises(ServeClientError,
                           match="trained on 5 raw features") as exc:
            client.predict(np.zeros(3), model="churn")
        assert exc.value.status == 400

    def test_fixed_artifact_mode_rejects_explicit_version(self, artifact,
                                                          served_data):
        from repro.serve import RegistryError

        X, _ = served_data
        server = ModelServer(artifacts={"solo": artifact})
        try:
            out = server.predict("solo", X[:3])  # default version ok
            assert out["version"] == "-"
            with pytest.raises(RegistryError, match="no version history"):
                server.predict("solo", X[:3], version=3)
        finally:
            server.close()

    def test_empty_batch_returns_empty_predictions(self, live_server):
        # a well-formed `rows: []` is a valid (if pointless) request:
        # answer it with an empty prediction list, not a 500
        client, _ = live_server
        out = client._request("/predict", {"model": "churn", "rows": []})
        assert out["n"] == 0
        assert out["predictions"] == []
        assert out["batched"] is False

    def test_empty_single_row_still_rejected(self, live_server):
        # `row: []` is a malformed *row*, not an empty batch: the
        # feature-count check must still reject it pre-batching
        client, _ = live_server
        with pytest.raises(ServeClientError,
                           match="trained on 5 raw features") as exc:
            client._request("/predict", {"model": "churn", "row": []})
        assert exc.value.status == 400

    def test_missing_rows_is_400(self, live_server):
        client, _ = live_server
        with pytest.raises(ServeClientError, match="'row'") as exc:
            client._request("/predict", {"model": "churn"})
        assert exc.value.status == 400

    def test_unknown_endpoint_is_404(self, live_server):
        client, _ = live_server
        with pytest.raises(ServeClientError) as exc:
            client._request("/nothing")
        assert exc.value.status == 404


class TestServeCommand:
    def test_sigint_stops_server_that_inherited_it_ignored(self, artifact,
                                                           tmp_path):
        """A background job of a non-interactive shell (``cmd &``) starts
        with SIGINT ignored; ``repro serve`` must still stop cleanly on
        it."""
        path = str(tmp_path / "model.json")
        artifact.save(path)
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [
            os.path.dirname(os.path.dirname(repro.__file__)),
            env.get("PYTHONPATH"),
        ]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--artifact", path,
             "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN),
        )
        try:
            line = proc.stdout.readline()
            assert line.startswith("serving ") and "http://" in line, line
            proc.send_signal(signal.SIGINT)
            assert proc.wait(timeout=30) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
