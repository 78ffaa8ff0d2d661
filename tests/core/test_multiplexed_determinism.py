"""N interleaved searches on one SharedWorkerPool reproduce themselves.

The multi-tenant promise: a search multiplexed with other tenants'
searches over one shared pool produces *bit-identical* per-search trial
logs, attempt counts, and winners versus the same search run alone —
with and without an installed fault plan (degradations and retries stay
per-search, never service-wide).

ECI-based learner selection feeds on measured trial costs, so — exactly
like the serial-vs-parallel equivalence tests — the pool's work function
is wrapped to report a deterministic cost per trial; the *logic* under
test is scheduling, commit order, and fault replay, not the timer.
"""

import threading

import pytest

import repro.exec.serial as serial_mod
from repro.core.controller import SearchController
from repro.core.evaluate import TrialOutcome
from repro.core.registry import DEFAULT_LEARNERS
from repro.data import make_classification
from repro.exec import RetryPolicy, SerialExecutor, SharedWorkerPool, TrialCache
from repro.exec.base import run_spec as real_run_spec
from repro.metrics import get_metric


def _learners(names):
    return {n: DEFAULT_LEARNERS[n] for n in names}


def _det_cost(data, spec):
    """run_spec with a scheduling-independent cost (crashes propagate)."""
    out = real_run_spec(data, spec)
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


@pytest.fixture(scope="module")
def data():
    return make_classification(500, 6, class_sep=1.2, seed=0,
                               name="mux").shuffled(0)


@pytest.fixture(scope="module")
def metric():
    return get_metric("roc_auc")


#: three tenants with distinct learner mixes and seeds
_SEARCHES = [
    ("alice", ("lgbm", "rf"), 3),
    ("bob", ("lgbm", "lrl1"), 7),
    ("cara", ("rf",), 11),
]


def _run_on_pool(data, metric, pool, tenant, names, seed,
                 retry_policy=None, trial_cache=False, max_iters=8,
                 use_sampling=True):
    """One search through a lease on ``pool``; always releases the lease."""
    lease = pool.lease(data, tenant=tenant, max_concurrent=2)
    try:
        return SearchController(
            data, _learners(names), metric,
            time_budget=1e6, n_workers=2, seed=seed,
            init_sample_size=100, resampling_override="holdout",
            use_sampling=use_sampling,
            trial_cache=trial_cache, max_iters=max_iters,
            backend="shared", executor=lease, retry_policy=retry_policy,
        ).run()
    finally:
        lease.shutdown()


def _run_multiplexed(data, metric, pool, **kw):
    """All of _SEARCHES concurrently, sharing ``pool``; results by tenant."""
    results, errors = {}, []

    def go(tenant, names, seed):
        try:
            results[tenant] = _run_on_pool(data, metric, pool, tenant,
                                           names, seed, **kw)
        except BaseException as exc:  # surface in the test, not the log
            errors.append((tenant, exc))

    threads = [threading.Thread(target=go, args=s) for s in _SEARCHES]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not errors, errors
    return results


class TestMultiplexedEquivalence:
    def test_n_searches_match_their_run_alone_logs(self, data, metric):
        """Each tenant's multiplexed log is bit-identical to the log of
        the same search holding a pool of its own."""
        alone = {}
        for tenant, names, seed in _SEARCHES:
            with SharedWorkerPool(n_workers=2, run_fn=_det_cost) as pool:
                alone[tenant] = _run_on_pool(data, metric, pool, tenant,
                                             names, seed)
        # 3 searches x 2 wanted slots on a 3-slot pool: real contention
        with SharedWorkerPool(n_workers=3, run_fn=_det_cost) as pool:
            muxed = _run_multiplexed(data, metric, pool)
        for tenant, _, _ in _SEARCHES:
            assert muxed[tenant].backend == "shared"
            assert muxed[tenant].n_trials == 8
            assert _log_fields(muxed[tenant]) == _log_fields(alone[tenant])
            assert muxed[tenant].best_error == alone[tenant].best_error
            assert muxed[tenant].best_learner == alone[tenant].best_learner

    def test_shared_pool_matches_sequential_controller(self, data, metric,
                                                       monkeypatch):
        """The lease substrate slots into the existing equivalence chain:
        a 1-slot lease reproduces the SerialExecutor-backed controller."""
        monkeypatch.setattr(serial_mod, "run_spec", _det_cost)
        tenant, names, seed = _SEARCHES[0]
        sequential = SearchController(
            data, _learners(names), metric,
            executor=SerialExecutor(data), max_iters=8,
            time_budget=1e6, seed=seed, init_sample_size=100,
            resampling_override="holdout", trial_cache=False,
        ).run()
        with SharedWorkerPool(n_workers=1, run_fn=_det_cost) as pool:
            lease = pool.lease(data, tenant=tenant, max_concurrent=1)
            shared = SearchController(
                data, _learners(names), metric,
                time_budget=1e6, n_workers=1, seed=seed,
                init_sample_size=100, resampling_override="holdout",
                trial_cache=False, max_iters=8,
                backend="shared", executor=lease,
            ).run()
        assert _log_fields(sequential) == _log_fields(shared)
        assert sequential.best_error == shared.best_error

    def test_equivalence_holds_under_installed_fault_plan(self, data,
                                                          metric):
        """PR 9's ladders stay per-search under multiplexing: with a
        crash-injecting plan installed service-wide, every tenant's
        retried log and per-trial attempt counts match its run-alone
        execution (fault decisions are pure functions of trial identity,
        never of scheduling or co-tenancy)."""
        from repro.faults import FaultPlan, install

        retry = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)
        plan = FaultPlan.from_spec({"seed": 0, "rules": [
            {"site": "worker.crash", "probability": 0.3},
        ]})
        prev = install(plan)
        try:
            alone = {}
            for tenant, names, seed in _SEARCHES:
                with SharedWorkerPool(n_workers=2, run_fn=_det_cost) as pool:
                    alone[tenant] = _run_on_pool(
                        data, metric, pool, tenant, names, seed,
                        retry_policy=retry,
                    )
            with SharedWorkerPool(n_workers=3, run_fn=_det_cost) as pool:
                muxed = _run_multiplexed(data, metric, pool,
                                         retry_policy=retry)
        finally:
            install(prev)
        total_attempts = 0
        for tenant, _, _ in _SEARCHES:
            attempts = [t.attempts for t in alone[tenant].trials]
            assert _log_fields(muxed[tenant]) == _log_fields(alone[tenant])
            assert [t.attempts for t in muxed[tenant].trials] == attempts
            assert muxed[tenant].best_error == alone[tenant].best_error
            total_attempts += sum(attempts)
        # the plan really injected crashes somewhere across the tenants
        assert total_attempts > sum(r.n_trials for r in alone.values())


class TestCrossSearchCache:
    def test_second_tenant_rides_the_first_ones_trials(self, data, metric):
        """Identical dataset + seed through one shared TrialCache: the
        second tenant's search answers every proposal from storage —
        zero additional fits (the headline multi-tenant economy)."""
        cache = TrialCache()
        # no sampling: the proposal sequence is rng-driven only, immune
        # to the near-zero replay costs a cache hit reports
        kw = dict(trial_cache=cache, max_iters=6, use_sampling=False)
        with SharedWorkerPool(n_workers=2, run_fn=_det_cost) as pool:
            first = _run_on_pool(data, metric, pool, "alice", ("lgbm",), 5,
                                 **kw)
            hits0, misses0 = cache.hits, cache.misses
            second = _run_on_pool(data, metric, pool, "bob", ("lgbm",), 5,
                                  **kw)
        assert second.cache_hits == second.n_trials  # every trial replayed
        assert cache.hits - hits0 == second.n_trials
        assert cache.misses - misses0 == 0  # zero extra fits for bob
        assert _log_fields(first) == _log_fields(second)


class TestPerSearchDegrade:
    def test_degrade_releases_one_lease_not_the_pool(self, data):
        """A broken-substrate degradation on one tenant's engine swaps in
        a *private* serial executor and releases only that tenant's
        lease; the pool and every other lease keep serving."""
        from repro.exec import ExecutionEngine

        with SharedWorkerPool(n_workers=2, run_fn=lambda d, s: s) as pool:
            doomed = pool.lease(data, tenant="alice")
            survivor = pool.lease("B", tenant="bob")
            engine = ExecutionEngine(doomed, cache=None)
            engine._degrade("injected: substrate reported broken")
            assert engine.executor.backend == "serial"
            assert engine.executor is not doomed
            assert doomed.closed  # the lease was released ...
            assert engine.degradations == [("shared", "serial")]
            # ... while the pool still serves the other tenant
            assert survivor.submit("x").result(timeout=10) == "x"
            engine.shutdown()
