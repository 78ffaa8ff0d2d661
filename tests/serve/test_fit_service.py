"""Multi-tenant fit-as-a-service: submit/status/result/cancel, tenancy.

Direct :class:`FitService` tests cover validation and budget policy;
the live-HTTP tests drive the full ``serve --fit`` path — two tenants
training concurrently over one shared pool, winners landing in the
registry under ``<tenant>.<name>``, and predictions served from them.
"""

import gc
import threading
import time
import weakref

import numpy as np
import pytest

from repro.faults import FaultPlan, install
from repro.serve import (
    FitService,
    FitServiceError,
    ModelRegistry,
    ModelServer,
    ServeClient,
    ServeClientError,
    TenantBudgetExceeded,
    UnknownJobError,
    build_http_server,
)


def _toy_data(n=120, d=4, seed=0):
    r = np.random.default_rng(seed)
    X = r.standard_normal((n, d))
    y = ((X[:, 0] + X[:, 1]) > 0).astype(np.int64)
    return X, y


def _wait_terminal(service, job_id, timeout=90.0):
    deadline = time.monotonic() + timeout
    while True:
        snap = service.status(job_id)
        if snap["status"] in ("done", "failed", "cancelled"):
            return snap
        assert time.monotonic() < deadline, f"job stuck: {snap}"
        time.sleep(0.05)


class TestSubmissionValidation:
    @pytest.fixture()
    def service(self):
        with FitService(n_workers=1, max_searches=1, max_fit_rows=500) as s:
            yield s

    def test_dotted_tenant_and_name_rejected(self, service):
        X, y = _toy_data()
        for tenant, name in (("a.b", "m"), ("a", "m.n"), ("", "m"),
                             ("a/b", "m")):
            with pytest.raises(FitServiceError, match="invalid"):
                service.submit(tenant, name, X, y)

    def test_payload_shape_rejected(self, service):
        X, y = _toy_data()
        with pytest.raises(FitServiceError, match="2-D"):
            service.submit("a", "m", X[:, 0], y)  # 1-D
        with pytest.raises(FitServiceError, match="2-D"):
            service.submit("a", "m", X[:3], y[:3])  # too few rows
        with pytest.raises(FitServiceError, match="2-D"):
            service.submit("a", "m", X, y[:-1])  # label count mismatch
        with pytest.raises(FitServiceError, match="at most 500"):
            service.submit("a", "m", np.zeros((501, 2)), np.zeros(501))

    def test_bad_budget_and_payload_type(self, service):
        X, y = _toy_data()
        with pytest.raises(FitServiceError, match="time_budget"):
            service.submit("a", "m", X, y, time_budget=0)
        with pytest.raises(FitServiceError, match="invalid training payload"):
            service.submit("a", "m", [["x", object()]], [0])

    def test_unknown_job(self, service):
        with pytest.raises(UnknownJobError, match="unknown fit job"):
            service.status("nope")


class TestTenantBudget:
    def test_exhausted_tenant_is_refused_others_fine(self):
        X, y = _toy_data()
        # every trial hangs 0.05 s, so the first one alone outlasts the
        # tenant's 0.01 s budget however fast the learner is
        prev = install(FaultPlan.from_spec({"seed": 0, "rules": [
            {"site": "worker.hang", "probability": 1.0, "param": 0.05},
        ]}))
        try:
            with FitService(n_workers=2, max_searches=1,
                            tenant_time_budget=0.01) as service:
                job = service.submit("alice", "m", X, y,
                                     task="classification", time_budget=10,
                                     max_iters=2, estimators=["rf"])
                snap = _wait_terminal(service, job.job_id)
                assert snap["status"] == "done"
                assert snap["trial_seconds"] >= 0.05  # the job was charged
                assert service.tenant_remaining("alice") == 0.0
                with pytest.raises(TenantBudgetExceeded, match="alice"):
                    service.submit("alice", "m2", X, y)
                # tenancy is per tenant: bob's budget is untouched
                assert service.tenant_remaining("bob") == 0.01
                stats = service.stats()
                assert stats["tenants"]["alice"]["remaining_s"] == 0.0
                assert stats["tenant_time_budget"] == 0.01
        finally:
            install(prev)

    def test_terminal_status_is_published_after_the_charge(
            self, monkeypatch):
        """A poller that sees ``done`` also sees the tenant charged for
        the job, even when charging is slow."""
        charge = FitService._charge

        def slow_charge(service, tenant, seconds):
            time.sleep(0.3)
            charge(service, tenant, seconds)

        monkeypatch.setattr(FitService, "_charge", slow_charge)
        X, y = _toy_data()
        with FitService(n_workers=1, max_searches=1) as service:
            job = service.submit("alice", "m", X, y, task="classification",
                                 time_budget=10, max_iters=2,
                                 estimators=["rf"])
            snap = _wait_terminal(service, job.job_id)
            assert snap["status"] == "done"
            used = service.stats()["tenants"]
            assert used["alice"]["used_s"] == snap["trial_seconds"] > 0

    def test_unmetered_by_default(self):
        with FitService(n_workers=1, max_searches=1) as service:
            assert service.tenant_remaining("anyone") == float("inf")


class TestCancellation:
    def test_cancelled_job_never_registers(self, tmp_path):
        X, y = _toy_data()
        registry = ModelRegistry(str(tmp_path / "reg"))
        with FitService(registry=registry, n_workers=1,
                        max_searches=1) as service:
            # effectively unbounded search: only the cancel can end it soon
            job = service.submit("alice", "m", X, y, task="classification",
                                 time_budget=120, max_iters=100_000,
                                 estimators=["rf"])
            service.cancel(job.job_id)
            snap = _wait_terminal(service, job.job_id)
            assert snap["status"] == "cancelled"
            assert "version" not in snap
            assert registry.models() == []

    def test_cancel_terminal_job_is_a_no_op(self):
        X, y = _toy_data()
        with FitService(n_workers=1, max_searches=1) as service:
            job = service.submit("alice", "m", X, y, task="classification",
                                 time_budget=10, max_iters=2,
                                 estimators=["rf"])
            _wait_terminal(service, job.job_id)
            assert service.cancel(job.job_id)["status"] == "done"


class TestPayloadRelease:
    """Jobs stay listed for the server's lifetime; their training arrays
    must not."""

    def test_finished_job_drops_its_payload(self):
        with FitService(n_workers=1, max_searches=1) as service:
            job = service.submit("alice", "m", *_toy_data(),
                                 task="classification", time_budget=10,
                                 max_iters=2, estimators=["rf"])
            x_ref = weakref.ref(job.params["X"])
            assert _wait_terminal(service, job.job_id)["status"] == "done"
            gc.collect()
            assert x_ref() is None
            assert "X" not in job.params and "y" not in job.params

    def test_job_cancelled_while_queued_drops_its_payload(self):
        with FitService(n_workers=1, max_searches=1) as service:
            # occupies the one search slot until cancelled
            blocker = service.submit("alice", "a", *_toy_data(),
                                     task="classification", time_budget=120,
                                     max_iters=100_000, estimators=["rf"])
            job = service.submit("alice", "b", *_toy_data(seed=1),
                                 task="classification", time_budget=10,
                                 max_iters=2, estimators=["rf"])
            x_ref = weakref.ref(job.params["X"])
            service.cancel(job.job_id)
            service.cancel(blocker.job_id)
            snap = _wait_terminal(service, job.job_id)
            assert snap["status"] == "cancelled"
            assert snap["started_unix"] is None  # never ran
            gc.collect()
            assert x_ref() is None


@pytest.fixture(scope="module")
def live_fit_server(tmp_path_factory):
    registry = ModelRegistry(str(tmp_path_factory.mktemp("fitreg")))
    fit_service = FitService(registry=registry, n_workers=2, max_searches=2)
    model_server = ModelServer(fit_service=fit_service)
    httpd = build_http_server(model_server, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}",
                         timeout=120.0)
    yield client, registry
    httpd.shutdown()
    httpd.server_close()
    model_server.close()  # also closes the fit service
    thread.join(timeout=5)


class TestOverHttp:
    def test_two_tenants_train_and_serve(self, live_fit_server):
        client, registry = live_fit_server
        X, y = _toy_data(seed=1)
        jobs = [
            client.submit_fit(tenant, "churn", X, y, task="classification",
                              time_budget=60, max_iters=3,
                              estimators=["rf"])
            for tenant in ("alice", "bob")
        ]
        assert all(j["status"] in ("queued", "running") for j in jobs)
        final = [client.wait_fit(j["job_id"], timeout=90) for j in jobs]
        for snap in final:
            assert snap["status"] == "done"
            assert snap["version"] == 1
            assert snap["result"]["n_trials"] == 3
            assert snap["result"]["backend"] == "thread"
        assert sorted(registry.models()) == ["alice.churn", "bob.churn"]
        meta = registry.versions("alice.churn")[0]["metadata"]
        assert meta["tenant"] == "alice"
        assert meta["display_name"] == "churn"
        # the winner serves predictions under its per-tenant name
        pred = client.predict(X[:10], model="alice.churn")
        assert set(np.unique(pred)) <= {0, 1}

    def test_job_listing_filters_by_tenant(self, live_fit_server):
        client, _ = live_fit_server
        listed = client.fit_jobs(tenant="alice")
        assert listed and all(j["tenant"] == "alice" for j in listed)
        assert {j["tenant"] for j in client.fit_jobs()} >= {"alice", "bob"}

    def test_health_reports_fit_stats(self, live_fit_server):
        client, _ = live_fit_server
        health = client.health()
        assert health["fit"]["jobs"].get("done", 0) >= 2
        assert health["fit"]["pool"]["n_workers"] == 2

    def test_unknown_job_is_404(self, live_fit_server):
        client, _ = live_fit_server
        with pytest.raises(ServeClientError) as err:
            client.fit_status("deadbeef")
        assert err.value.status == 404

    def test_invalid_submission_is_400(self, live_fit_server):
        client, _ = live_fit_server
        X, y = _toy_data()
        with pytest.raises(ServeClientError) as err:
            client.submit_fit("dotted.tenant", "m", X, y)
        assert err.value.status == 400
        with pytest.raises(ServeClientError) as err:
            client._request("/fit", {"tenant": "a"})  # missing name/X/y
        assert err.value.status == 400

    def test_cancel_over_http(self, live_fit_server):
        client, registry = live_fit_server
        X, y = _toy_data(seed=2)
        job = client.submit_fit("cara", "slow", X, y, task="classification",
                                time_budget=120, max_iters=100_000,
                                estimators=["rf"])
        client.cancel_fit(job["job_id"])
        snap = client.wait_fit(job["job_id"], timeout=90)
        assert snap["status"] == "cancelled"
        assert "cara.slow" not in registry.models()


def test_fit_disabled_is_404(tmp_path, artifact):
    registry = ModelRegistry(str(tmp_path / "reg"))
    registry.register("m", artifact)
    model_server = ModelServer(registry=registry)
    httpd = build_http_server(model_server, port=0)
    thread = threading.Thread(target=httpd.serve_forever, daemon=True)
    thread.start()
    try:
        client = ServeClient(f"http://127.0.0.1:{httpd.server_address[1]}")
        with pytest.raises(ServeClientError) as err:
            client.fit_jobs()
        assert err.value.status == 404
        assert "serve --fit" in str(err.value)
    finally:
        httpd.shutdown()
        httpd.server_close()
        model_server.close()
        thread.join(timeout=5)
