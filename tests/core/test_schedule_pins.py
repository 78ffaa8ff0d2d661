"""Pinned search schedules: one trial-log digest per (clock, workers) cell.

The search is cost-aware: ECI picks learners and grows sample sizes from
each trial's reported cost, and on the virtual clock that cost also sets
the trial's finish time.  :class:`_PinnedCost` wraps a real executor and
rewrites only the reported ``cost`` to :func:`_pinned_cost`, a pure
function of the spec (the cost model of ``perfbench/pinning.py``).
Every decision the controller makes then follows from data, seed and
config alone, so each cell's digest is a constant: a change to the trial
loop that alters any schedule — which trial runs next, in which order
trials commit, or when a virtual trial finishes — fails here.

Cells: the one-worker serial loop; the virtual clock at 1, 2 and 4
workers (digest includes every trial's ``automl_time`` and its spec's
``train_time_limit``); a 2-worker thread pool.
"""

import dataclasses
import hashlib
import numbers

import pytest

from repro import AutoML
from repro.core.controller import SearchController
from repro.core.registry import DEFAULT_LEARNERS
from repro.data import make_classification
from repro.exec import SerialExecutor, ThreadExecutor
from repro.exec.base import TrialExecutor, TrialHandle
from repro.metrics import get_metric

#: (fixed, per-size-unit) seconds per 1000 rows per fold
_COST_UNITS = {
    "lgbm": (0.006, 0.0005),
    "rf": (0.010, 0.012),
    "lrl1": (0.020, 0.0),
}

LEARNERS = ("lgbm", "rf", "lrl1")
INIT_SAMPLE = 100
#: virtual seconds; small enough that the budget, not max_iters, ends
#: the one-worker virtual search
VIRTUAL_BUDGET = 0.2
VIRTUAL_ITERS = 40
WALL_ITERS = 16


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


def _sequential(data):
    executor = _PinnedCost(SerialExecutor(data))
    res = SearchController(
        data, {n: DEFAULT_LEARNERS[n] for n in LEARNERS},
        get_metric("roc_auc"),
        time_budget=1e6, seed=0, init_sample_size=INIT_SAMPLE,
        resampling_override="holdout", trial_cache=False,
        max_iters=WALL_ITERS, executor=executor,
    ).run()
    return res, executor


def _fit(data, make_inner, **kw):
    made = []

    def factory(d):
        made.append(_PinnedCost(make_inner(d)))
        return made[0]

    am = AutoML(seed=0, init_sample_size=INIT_SAMPLE)
    try:
        am.fit(data.X, data.y, task="binary", metric="roc_auc",
               estimator_list=list(LEARNERS), resampling="holdout",
               trial_cache=False, executor_factory=factory, **kw)
    finally:
        for ex in made:
            ex.shutdown()
    return am.search_result, made[0]


def _virtual(data, n_workers):
    return _fit(data, SerialExecutor, n_workers=n_workers,
                backend="virtual", time_budget=VIRTUAL_BUDGET,
                max_iters=VIRTUAL_ITERS)


def _thread(data, n_workers):
    return _fit(data, lambda d: ThreadExecutor(d, n_workers=n_workers),
                n_workers=n_workers, time_budget=1e6, max_iters=WALL_ITERS)


#: cell -> (run, pinned digest, whether the digest covers the clock)
CELLS = {
    "sequential": (_sequential, "7fba462539831571", False),
    "virtual-1": (lambda d: _virtual(d, 1), "000e67d705ff2be2", True),
    "virtual-2": (lambda d: _virtual(d, 2), "e8c3fc6682627983", True),
    "virtual-4": (lambda d: _virtual(d, 4), "d790a9c59c18b1f5", True),
    "thread-2": (lambda d: _thread(d, 2), "0b0a51d515fa78fa", False),
}


@pytest.mark.parametrize("cell", list(CELLS))
def test_schedule_digest_is_pinned(data, cell):
    run, pinned, clocked = CELLS[cell]
    res, executor = run(data)
    limits = executor.limits if clocked else None
    assert _digest(res.trials, limits) == pinned


def test_budget_ends_the_one_worker_virtual_search(data):
    """The virtual budget, not ``max_iters``, ends the 1-worker search,
    so the pins cover the clock's stopping rule; more virtual workers
    commit more trials within the same budget."""
    one, _ = _virtual(data, 1)
    four, _ = _virtual(data, 4)
    assert one.n_trials < VIRTUAL_ITERS
    assert one.trials[-1].automl_time >= VIRTUAL_BUDGET
    assert four.n_trials > one.n_trials
