"""SharedWorkerPool scheduling semantics, mostly isolated from training.

The pool's ``run_fn`` is injectable, so most of these tests drive the
dispatcher with sentinel datasets/specs and observe the exact grant
order: weighted round-robin fairness, per-lease concurrency caps,
cancellation, lease release, and pool lifecycle.  The last two run real
searches through leases: a trial cache shared across tenants, and a
degradation that stays inside one search.  Per-search determinism under
multiplexing is the ``lease-mux`` cell of the oracle in
``tests/core/test_schedule_pins.py``.
"""

import threading
import time
from concurrent.futures import CancelledError

import pytest

from repro.core.controller import SearchController
from repro.core.evaluate import TrialOutcome
from repro.core.registry import DEFAULT_LEARNERS
from repro.data import make_classification
from repro.exec import ExecutionEngine, SharedWorkerPool, TrialCache
from repro.exec.base import run_spec
from repro.metrics import get_metric


def _wait_until(predicate, timeout=5.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            raise AssertionError("condition not reached in time")
        time.sleep(0.005)


class TestWeightedRoundRobin:
    def test_weight_2_tenant_gets_consecutive_grants(self):
        """At capacity 1 with weights 2:1 the grant order is A,A,B —
        a naive one-grant-per-visit rotation would give A,B,A,B."""
        order = []
        started = threading.Event()
        gate = threading.Event()

        def run_fn(data, spec):
            order.append(data)
            if spec == "plug":
                started.set()
                gate.wait(10)  # hold the only slot until everything queues
            return spec

        with SharedWorkerPool(n_workers=1, run_fn=run_fn) as pool:
            a = pool.lease("A", tenant="alice", weight=2)
            b = pool.lease("B", tenant="bob", weight=1)
            handles = [a.submit("plug")]
            _wait_until(started.is_set)
            # everything below queues while the plug occupies the slot
            handles += [a.submit(f"a{i}") for i in range(3)]
            handles += [b.submit(f"b{i}") for i in range(2)]
            gate.set()
            for h in handles:
                h.result(timeout=10)
        # plug+a0 is alice's first turn (2 grants), then bob's 1, ...
        assert order == ["A", "A", "B", "A", "A", "B"]

    def test_idle_tenant_forfeits_its_turn(self):
        """A lease with an empty queue never blocks the busy one."""
        order = []

        def run_fn(data, spec):
            order.append(data)
            return spec

        with SharedWorkerPool(n_workers=1, run_fn=run_fn) as pool:
            a = pool.lease("A", tenant="alice", weight=1)
            pool.lease("B", tenant="bob", weight=5)  # never submits
            handles = [a.submit(i) for i in range(4)]
            for h in handles:
                h.result(timeout=10)
        assert order == ["A"] * 4


class TestConcurrencyCaps:
    def test_max_concurrent_caps_a_single_lease(self):
        running = threading.Event()
        gate = threading.Event()

        def run_fn(data, spec):
            running.set()
            gate.wait(10)
            return spec

        with SharedWorkerPool(n_workers=4, run_fn=run_fn) as pool:
            lease = pool.lease("A", tenant="alice", max_concurrent=1)
            handles = [lease.submit(i) for i in range(3)]
            _wait_until(running.is_set)
            stats = pool.stats()
            assert stats["active"] == 1  # 3 free slots, but the cap holds
            (entry,) = stats["leases"]
            assert entry["running"] == 1
            assert entry["queued"] == 2
            assert entry["max_concurrent"] == 1
            gate.set()
            assert [h.result(timeout=10) for h in handles] == [0, 1, 2]

    def test_cap_clamped_to_pool_size(self):
        with SharedWorkerPool(n_workers=2) as pool:
            lease = pool.lease("A", max_concurrent=99)
            assert lease.max_concurrent == 2
            assert lease.n_workers == 2  # what the engine sees


class TestCancellation:
    def test_queued_ticket_cancels_dispatched_does_not(self):
        entered = threading.Event()
        gate = threading.Event()

        def run_fn(data, spec):
            entered.set()
            gate.wait(10)
            return spec

        with SharedWorkerPool(n_workers=1, run_fn=run_fn) as pool:
            lease = pool.lease("A")
            running = lease.submit("running")
            _wait_until(entered.is_set)
            queued = lease.submit("queued")
            assert queued.cancel() is True
            assert running.cancel() is False  # already on a thread
            with pytest.raises(CancelledError):
                queued.result(timeout=1)
            gate.set()
            assert running.result(timeout=10) == "running"

    def test_release_cancels_queued_lets_running_finish(self):
        entered = threading.Event()
        gate = threading.Event()

        def run_fn(data, spec):
            entered.set()
            gate.wait(10)
            return spec

        with SharedWorkerPool(n_workers=1, run_fn=run_fn) as pool:
            doomed = pool.lease("A", tenant="alice")
            survivor = pool.lease("B", tenant="bob")
            running = doomed.submit("running")
            _wait_until(entered.is_set)
            queued = doomed.submit("queued")
            doomed.shutdown()  # = pool.release(doomed)
            with pytest.raises(CancelledError):
                queued.result(timeout=1)
            gate.set()
            # the already-dispatched trial still completes ...
            assert running.result(timeout=10) == "running"
            # ... the pool still serves other tenants ...
            assert survivor.submit("later").result(timeout=10) == "later"
            # ... and the closed lease refuses new work
            with pytest.raises(RuntimeError, match="lease is closed"):
                doomed.submit("nope")
            doomed.shutdown()  # idempotent

    def test_release_accounts_trial_seconds(self):
        def run_fn(data, spec):
            time.sleep(0.02)
            return spec

        with SharedWorkerPool(n_workers=2, run_fn=run_fn) as pool:
            lease = pool.lease("A", tenant="alice")
            for h in [lease.submit(i) for i in range(3)]:
                h.result(timeout=10)
            assert lease.trial_seconds >= 0.06
            lease.shutdown()
            assert lease.trial_seconds >= 0.06  # survives release


class TestLifecycle:
    def test_shutdown_is_idempotent_and_final(self):
        pool = SharedWorkerPool(n_workers=2, run_fn=lambda d, s: s)
        lease = pool.lease("A")
        assert lease.submit(1).result(timeout=10) == 1
        pool.shutdown()
        pool.shutdown()
        with pytest.raises(RuntimeError, match="shut down"):
            lease.submit(2)
        with pytest.raises(RuntimeError, match="shut down"):
            pool.lease("B")

    def test_stats_shape(self):
        with SharedWorkerPool(n_workers=3, run_fn=lambda d, s: s) as pool:
            pool.lease("A", tenant="alice", weight=2, max_concurrent=1)
            stats = pool.stats()
            assert stats["n_workers"] == 3
            assert stats["active"] == 0
            (entry,) = stats["leases"]
            assert entry == {
                "tenant": "alice", "weight": 2, "max_concurrent": 1,
                "queued": 0, "running": 0, "trial_seconds": 0.0,
            }

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError, match="n_workers"):
            SharedWorkerPool(n_workers=0)


@pytest.fixture(scope="module")
def data():
    return make_classification(500, 6, class_sep=1.2, seed=0,
                               name="mux").shuffled(0)


def _det_cost(data, spec):
    """run_spec with a scheduling-independent cost."""
    out = run_spec(data, spec)
    return TrialOutcome(
        error=out.error,
        cost=1e-3 * spec.sample_size * (1 + len(spec.config)),
        model=out.model, failure=out.failure,
    )


def _log_fields(result):
    """The deterministic (timing-free) identity of a trial log."""
    return [
        (t.learner, tuple(sorted(t.config.items())), t.sample_size, t.kind,
         t.error, t.improved_global)
        for t in result.trials
    ]


class TestCrossSearchCache:
    def test_second_tenant_rides_the_first_ones_trials(self, data):
        """Identical dataset + seed through one shared TrialCache: the
        second tenant's search answers every proposal from storage —
        zero additional fits (the headline multi-tenant economy)."""
        cache = TrialCache()

        def search(pool, tenant):
            lease = pool.lease(data, tenant=tenant, max_concurrent=2)
            try:
                # no sampling: the proposal sequence is rng-driven only,
                # immune to the near-zero replay costs a cache hit reports
                return SearchController(
                    data, {"lgbm": DEFAULT_LEARNERS["lgbm"]},
                    get_metric("roc_auc"), time_budget=1e6, n_workers=2,
                    seed=5, init_sample_size=100,
                    resampling_override="holdout", use_sampling=False,
                    trial_cache=cache, max_iters=6, executor=lease,
                ).run()
            finally:
                lease.shutdown()

        with SharedWorkerPool(n_workers=2, run_fn=_det_cost) as pool:
            first = search(pool, "alice")
            hits0, misses0 = cache.hits, cache.misses
            second = search(pool, "bob")
        assert second.cache_hits == second.n_trials  # every trial replayed
        assert cache.hits - hits0 == second.n_trials
        assert cache.misses - misses0 == 0  # zero extra fits for bob
        assert _log_fields(first) == _log_fields(second)


class TestPerSearchDegrade:
    def test_degrade_releases_one_lease_not_the_pool(self, data):
        """A broken-substrate degradation on one tenant's engine swaps in
        a *private* serial executor and releases only that tenant's
        lease; the pool and every other lease keep serving."""
        with SharedWorkerPool(n_workers=2, run_fn=lambda d, s: s) as pool:
            doomed = pool.lease(data, tenant="alice")
            survivor = pool.lease("B", tenant="bob")
            engine = ExecutionEngine(doomed, cache=None)
            engine._degrade("injected: substrate reported broken")
            assert engine.executor.backend == "serial"
            assert engine.executor is not doomed
            assert doomed.closed  # the lease was released ...
            assert engine.degradations == [("thread", "serial")]
            # ... while the pool still serves the other tenant
            assert survivor.submit("x").result(timeout=10) == "x"
            engine.shutdown()
