"""The determinism oracle: one pinned trial-log digest per cell.

A search result is a pure function of data, seed and config.  Each cell
of this file runs one search on one point of three axes and pins a
digest of its trial log:

* **substrate** — the one-worker loop driven by ``SearchController``
  directly (``sequential``) and through ``AutoML.fit`` (``serial``); the
  virtual clock at 1, 2 and 4 workers; the thread backend at 1 and 2
  workers; a 2-worker process pool; and three tenants' searches
  multiplexed on one 3-slot :class:`~repro.exec.SharedWorkerPool`, each
  through a 2-slot lease (``lease-mux``);
* **fault plan** — none, or ``worker.crash`` at p=0.3 absorbed by
  ``retries=2`` (id suffix ``-crash``);
* **kernel mode** — the native kernels on or off (id suffix ``-numpy``);
  both modes must reach the same digest.

The search is cost-aware: ECI picks learners and grows sample sizes from
each trial's reported cost, and on the virtual clock that cost also sets
the trial's finish time.  :class:`_PinnedCost` wraps every cell's
executor and rewrites only the reported ``cost`` to :func:`_pinned_cost`,
a pure function of the spec (the cost model of ``perfbench/pinning.py``).
Every decision the controller makes then follows from data, seed and
config alone, so each cell's digest is a constant.  The wall-clock cells
of one worker count share one digest, so the pins are also equivalence
checks: serial ≡ thread-1 ≡ the 1-worker virtual clock's first trials,
and thread-2 ≡ process-2 ≡ each multiplexed tenant ≡ that tenant's
search run alone.  The digest includes every trial's attempt count, so
a fault that lands on another attempt fails too.  Clean virtual cells
also hash every trial's ``automl_time`` and every spec's
``train_time_limit``, pinning the clock.  A change to the trial loop
that alters any schedule — which trial runs next, in which order trials
commit, when a virtual trial finishes, or which attempt a fault hits —
fails here.
"""

import contextlib
import dataclasses
import hashlib
import numbers
import threading

import pytest

from repro import AutoML
from repro.core.controller import SearchController
from repro.core.registry import DEFAULT_LEARNERS
from repro.data import make_classification
from repro.exec import RetryPolicy, SerialExecutor, SharedWorkerPool
from repro.exec.base import TrialExecutor, TrialHandle, make_executor
from repro.faults import FaultPlan, install
from repro.metrics import get_metric
from repro.native import set_native_enabled

#: (fixed, per-size-unit) seconds per 1000 rows per fold
_COST_UNITS = {
    "lgbm": (0.006, 0.0005),
    "rf": (0.010, 0.012),
    "lrl1": (0.020, 0.0),
}

INIT_SAMPLE = 100
#: virtual seconds; small enough that the budget, not max_iters, ends
#: the one-worker virtual search
VIRTUAL_BUDGET = 0.2
VIRTUAL_ITERS = 40
WALL_ITERS = 16
#: extra attempts per trial under a fault plan
RETRIES = 2

FAULTS = {
    "none": None,
    "crash": {"seed": 0, "rules": [
        {"site": "worker.crash", "probability": 0.3},
    ]},
}

#: tenant -> (learners, seed).  Every cell runs alice's search; the
#: lease-mux cell runs all three at once.
TENANTS = {
    "alice": (("lgbm", "rf", "lrl1"), 0),
    "bob": (("lgbm", "lrl1"), 7),
    "cara": (("rf",), 11),
}


def _pinned_cost(spec) -> float:
    fixed, per_unit = _COST_UNITS[spec.learner]
    cfg = spec.config
    size = (float(cfg.get("tree_num", 0))
            * max(float(cfg.get("leaf_num", 4)), 1.0) / 4.0)
    folds = spec.n_splits if spec.resampling == "cv" else 1
    return folds * spec.sample_size / 1000.0 * (fixed + per_unit * size)


class _PinnedHandle(TrialHandle):
    def __init__(self, handle, spec) -> None:
        self._handle = handle
        self._spec = spec

    def result(self, timeout=None):
        out = self._handle.result(timeout=timeout)
        return dataclasses.replace(out, cost=_pinned_cost(self._spec))

    def done(self) -> bool:
        return self._handle.done()

    def cancel(self) -> bool:
        return self._handle.cancel()


class _PinnedCost(TrialExecutor):
    """Run trials on ``inner``; report :func:`_pinned_cost` as their
    cost.  Records each submitted spec's ``train_time_limit``."""

    def __init__(self, inner: TrialExecutor) -> None:
        super().__init__(inner.data, n_workers=inner.n_workers)
        self.inner = inner
        self.backend = inner.backend
        self.limits: list[float] = []

    def submit(self, spec):
        self.limits.append(float(spec.train_time_limit))
        return _PinnedHandle(self.inner.submit(spec), spec)

    def shutdown(self) -> None:
        self.inner.shutdown()


def _plain(value):
    """Python scalar for hashing: the digest must not depend on numpy's
    ``repr`` of its scalar types."""
    if isinstance(value, bool):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    return str(value)


def _digest(trials, limits=None) -> str:
    """Hash of the trial log; with ``limits`` (virtual cells) also of
    every trial's ``automl_time`` and every spec's ``train_time_limit``."""
    rows = []
    for t in trials:
        row = (
            t.learner,
            tuple(sorted((k, _plain(v)) for k, v in t.config.items())),
            int(t.sample_size), t.kind, float(t.error),
            bool(t.improved_global), int(t.attempts),
        )
        if limits is not None:
            row += (float(t.automl_time),)
        rows.append(row)
    payload = (rows, [float(x) for x in limits or ()])
    return hashlib.sha256(repr(payload).encode()).hexdigest()[:16]


@pytest.fixture(scope="module")
def data():
    return make_classification(1200, 6, class_sep=1.0, seed=4,
                               name="pins").shuffled(0)


@contextlib.contextmanager
def _conditions(fault, kernel):
    """Install a cell's fault plan and kernel mode around its run."""
    spec = FAULTS[fault]
    prev_plan = install(FaultPlan.from_spec(spec) if spec else None)
    prev_native = set_native_enabled(kernel == "native")
    try:
        yield
    finally:
        set_native_enabled(prev_native)
        install(prev_plan)


def _retries(fault) -> int:
    return RETRIES if FAULTS[fault] else 0


def _sequential(data, fault):
    executor = _PinnedCost(SerialExecutor(data))
    learners, seed = TENANTS["alice"]
    retries = _retries(fault)
    res = SearchController(
        data, {n: DEFAULT_LEARNERS[n] for n in learners},
        get_metric("roc_auc"),
        time_budget=1e6, seed=seed, init_sample_size=INIT_SAMPLE,
        resampling_override="holdout", trial_cache=False,
        max_iters=WALL_ITERS, executor=executor,
        retry_policy=RetryPolicy(max_attempts=retries + 1)
        if retries else None,
    ).run()
    return res, executor


def _fit(data, make_inner, fault, tenant="alice", **kw):
    made = []

    def factory(d):
        made.append(_PinnedCost(make_inner(d)))
        return made[0]

    learners, seed = TENANTS[tenant]
    am = AutoML(seed=seed, init_sample_size=INIT_SAMPLE)
    try:
        am.fit(data.X, data.y, task="binary", metric="roc_auc",
               estimator_list=list(learners), resampling="holdout",
               trial_cache=False, executor_factory=factory,
               retries=_retries(fault), **kw)
    finally:
        for ex in made:
            ex.shutdown()
    return am.search_result, made[0]


def _virtual(data, fault, n_workers):
    return _fit(data, SerialExecutor, fault, n_workers=n_workers,
                backend="virtual", time_budget=VIRTUAL_BUDGET,
                max_iters=VIRTUAL_ITERS)


def _wall(data, fault, backend, n_workers, tenant="alice"):
    return _fit(data, lambda d: make_executor(backend, d, n_workers),
                fault, tenant=tenant, n_workers=n_workers,
                time_budget=1e6, max_iters=WALL_ITERS)


def _lease_mux(data, fault):
    """Every tenant's search at once, each on a 2-slot lease of one
    3-slot pool, so they contend for slots.  Results by tenant."""
    results, errors = {}, []

    def go(tenant, pool):
        try:
            results[tenant] = _fit(
                data, lambda d: pool.lease(d, tenant=tenant,
                                           max_concurrent=2),
                fault, tenant=tenant, n_workers=2, time_budget=1e6,
                max_iters=WALL_ITERS,
            )
        except Exception as exc:  # surface in the test, not the log
            errors.append((tenant, exc))

    with SharedWorkerPool(n_workers=3) as pool:
        threads = [threading.Thread(target=go, args=(tenant, pool))
                   for tenant in TENANTS]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert not any(t.is_alive() for t in threads)
    assert not errors, errors
    return results


def _solo(run):
    return lambda d, f: {"alice": run(d, f)}


#: cell -> (run(data, fault) -> {tenant: (result, executor)}, whether
#: the digest covers the clock)
CELLS = {
    "sequential": (_solo(_sequential), False),
    "serial": (_solo(lambda d, f: _wall(d, f, "serial", 1)), False),
    "virtual-1": (_solo(lambda d, f: _virtual(d, f, 1)), True),
    "virtual-2": (_solo(lambda d, f: _virtual(d, f, 2)), True),
    "virtual-4": (_solo(lambda d, f: _virtual(d, f, 4)), True),
    "thread-1": (_solo(lambda d, f: _wall(d, f, "thread", 1)), False),
    "thread-2": (_solo(lambda d, f: _wall(d, f, "thread", 2)), False),
    "process-2": (_solo(lambda d, f: _wall(d, f, "process", 2)), False),
    "lease-mux": (_lease_mux, False),
}

#: alice's digest on every wall-clock substrate, per worker count
_ONE_WORKER = {"none": "87d8dbe4746807b8", "crash": "427c4cc3d66627fa"}
_TWO_WORKERS = {"none": "0b0a51d515fa78fa", "crash": "e3735406f3bffbdf"}

#: (cell, fault) -> alice's pinned digest, the same in both kernel
#: modes.  Faulted virtual cells pin their log but not their clock: a
#: trial that crashes on every attempt reports its measured wall time
#: as its cost, which the cost pin cannot rewrite.
PINS = {
    ("sequential", "none"): "7fba462539831571",
    ("sequential", "crash"): "9caa33a8fd874e1d",
    ("virtual-1", "none"): "000e67d705ff2be2",
    ("virtual-1", "crash"): "c70eaca82243cd31",
    ("virtual-2", "none"): "e8c3fc6682627983",
    ("virtual-2", "crash"): "8e9cbb8b92a6dbfb",
    ("virtual-4", "none"): "d790a9c59c18b1f5",
    ("virtual-4", "crash"): "624d6c7ab85f0f68",
    **{(cell, fault): _ONE_WORKER[fault]
       for cell in ("serial", "thread-1") for fault in FAULTS},
    **{(cell, fault): _TWO_WORKERS[fault]
       for cell in ("thread-2", "process-2", "lease-mux")
       for fault in FAULTS},
}

#: (tenant, fault) -> the co-tenants' digests on any 2-worker substrate
CO_TENANT_PINS = {
    ("bob", "none"): "4ea511335f8ffe1d",
    ("bob", "crash"): "8975d22cb96607fe",
    ("cara", "none"): "de212e1f6f0f00bb",
    ("cara", "crash"): "9facb0e1aaa30703",
}


def _cases():
    """Every (cell, fault, kernel); the id omits the default axes, so the
    clean native-kernel cells keep their plain cell names."""
    for cell in CELLS:
        for fault in FAULTS:
            for kernel in ("native", "numpy"):
                extra = [x for x in (fault, kernel)
                         if x not in ("none", "native")]
                yield pytest.param(cell, fault, kernel,
                                   id="-".join([cell, *extra]))


def _check(res, pin, fault, limits=None):
    assert _digest(res.trials, limits) == pin
    # the search's answer is the best trial of the pinned log
    best = min(res.trials, key=lambda t: t.error)
    assert (res.best_learner, res.best_error) == (best.learner, best.error)
    attempts = sum(t.attempts for t in res.trials)
    if FAULTS[fault]:
        assert attempts > res.n_trials  # the plan really injected crashes
    else:
        assert attempts == res.n_trials


@pytest.mark.parametrize("cell,fault,kernel", list(_cases()))
def test_schedule_digest_is_pinned(data, cell, fault, kernel):
    run, clocked = CELLS[cell]
    with _conditions(fault, kernel):
        runs = run(data, fault)
    backend = {"sequential": "serial", "lease-mux": "thread"}.get(
        cell, cell.split("-")[0])
    for tenant, (res, executor) in runs.items():
        assert res.backend == backend
        pin = PINS[cell, fault] if tenant == "alice" \
            else CO_TENANT_PINS[tenant, fault]
        limits = executor.limits if clocked and not FAULTS[fault] else None
        _check(res, pin, fault, limits)
    if cell == "virtual-1":
        # one virtual worker runs the serial loop's trials, attempts
        # included, until its budget ends the search
        assert _digest(res.trials[:WALL_ITERS]) == _ONE_WORKER[fault]


@pytest.mark.parametrize("fault", list(FAULTS))
def test_co_tenants_alone_match_their_pins(data, fault):
    """Run alone, each co-tenant's search reaches the digest its
    multiplexed run must match."""
    with _conditions(fault, "native"):
        for tenant, pin_fault in CO_TENANT_PINS:
            if pin_fault == fault:
                res, _ = _wall(data, fault, "thread", 2, tenant=tenant)
                _check(res, CO_TENANT_PINS[tenant, fault], fault)


def test_budget_ends_the_one_worker_virtual_search(data):
    """The virtual budget, not ``max_iters``, ends the 1-worker search,
    so the pins cover the clock's stopping rule; more virtual workers
    commit more trials within the same budget."""
    one, _ = _virtual(data, "none", 1)
    four, _ = _virtual(data, "none", 4)
    assert one.n_trials < VIRTUAL_ITERS
    assert one.trials[-1].automl_time >= VIRTUAL_BUDGET
    assert four.n_trials > one.n_trials
