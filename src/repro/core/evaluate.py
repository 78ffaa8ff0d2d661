"""Trial execution: train a configuration, observe (error, cost).

This is step 3 of the control flow (Figure 3): the controller invokes a
trial with χ = (learner, hyperparameters, sample size, resampling
strategy) and observes the validation error ε̃(χ) and cost κ(χ).  Cost is
measured as the wall-clock time of training + validation, exactly the
quantity FLAML's ECI reasons about.
"""

from __future__ import annotations

import inspect
import threading
import time
import traceback
import weakref
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from ..data.binned import BinnedDataset, plane_for
from ..data.dataset import Dataset
from ..metrics.registry import Metric
from ..obs.trace import trace_span

__all__ = ["TrialOutcome", "evaluate_config"]


@dataclass
class TrialOutcome:
    """What one trial produced.

    ``failure`` carries the formatted traceback of a failed
    (inf-error) trial so the search log can say *why*, not just that
    it failed.  ``trace``/``metrics`` are observability buffers a
    process worker ships back with the result (span records and a
    metrics-registry diff); the engine merges and strips them before
    the outcome reaches the controller or the trial cache.
    """

    error: float
    cost: float
    model: object | None
    failure: str | None = None
    trace: list | None = field(default=None, repr=False)
    metrics: dict | None = field(default=None, repr=False)
    #: how many executions this outcome took (1 = no retries); > 1 when
    #: the engine's RetryPolicy re-ran a crashed or timed-out trial
    attempts: int = 1


def _compute_accepted_extras(cls: type) -> frozenset[str] | None:
    try:
        sig = inspect.signature(cls)
    except (TypeError, ValueError):
        return None
    params = sig.parameters.values()
    if any(p.kind is inspect.Parameter.VAR_KEYWORD for p in params):
        return frozenset({"seed", "train_time_limit"})
    return frozenset({"seed", "train_time_limit"} & sig.parameters.keys())


#: bound on the signature-inspection cache below.  Far above the
#: registered-learner count; only pathological streams of dynamically
#: defined classes ever evict.
_ACCEPTED_EXTRAS_LIMIT = 128
#: id(cls) -> (weakref to cls, accepted extras).  Keyed weakly so the
#: cache never pins a class alive: an unbounded ``lru_cache`` here held
#: strong references to every class ever evaluated, which leaked each
#: dynamically defined custom learner (test suites generate thousands).
_accepted_extras_cache: OrderedDict[int, tuple] = OrderedDict()
#: guards the cache against in-process pool worker threads and the
#: weakref eviction callbacks; reentrant because a GC-triggered callback
#: can run on the very thread that already holds the lock
_accepted_extras_lock = threading.RLock()


def _accepted_extras(cls: type) -> frozenset[str] | None:
    """Which of {seed, train_time_limit} ``cls(...)`` accepts, decided by
    signature inspection; None if the signature is unavailable.

    Memoized in a small bounded mapping keyed by a weak reference — a
    collected class evicts its own entry (and frees the id for reuse)
    via the weakref callback.  All cache mutation happens under a lock:
    thread-backend trials call this concurrently, and the GC callback
    can fire between a lookup and its ``move_to_end``.
    """
    key = id(cls)
    with _accepted_extras_lock:
        entry = _accepted_extras_cache.get(key)
        if entry is not None:
            ref, value = entry
            if ref() is cls:
                _accepted_extras_cache.move_to_end(key)
                return value
            del _accepted_extras_cache[key]  # id recycled by a new class
    value = _compute_accepted_extras(cls)
    try:
        ref = weakref.ref(cls, _evict_accepted_extras(key))
    except TypeError:  # un-weakref-able callable: compute, don't cache
        return value
    with _accepted_extras_lock:
        _accepted_extras_cache[key] = (ref, value)
        while len(_accepted_extras_cache) > _ACCEPTED_EXTRAS_LIMIT:
            _accepted_extras_cache.popitem(last=False)
    return value


def _evict_accepted_extras(key: int):
    def _evict(_ref) -> None:
        with _accepted_extras_lock:
            _accepted_extras_cache.pop(key, None)

    return _evict


def _make_estimator(cls: type, config: dict, seed: int,
                    train_time_limit: float | None):
    """Instantiate, forwarding seed/time-limit only if the class accepts them.

    Acceptance is decided by inspecting the constructor signature, not by
    catching TypeError on trial instantiations: a blind retry chain would
    also swallow TypeErrors raised *inside* ``__init__`` (e.g. a genuinely
    bad hyperparameter value) and mask the real bug by silently dropping
    kwargs.  Such errors now propagate to the caller, where
    ``evaluate_config`` records them as a failed (inf-error) trial.
    """
    kwargs = dict(config)
    accepted = _accepted_extras(cls)
    if accepted is None:
        # signature not introspectable (e.g. a C-extension class): fall
        # back to the legacy retry chain — full kwarg set, then
        # seed-only, then the bare config
        try:
            return cls(**kwargs, seed=seed, train_time_limit=train_time_limit)
        except TypeError:
            pass
        try:
            return cls(**kwargs, seed=seed)
        except TypeError:
            return cls(**kwargs)
    if "seed" in accepted:
        kwargs["seed"] = seed
    if "train_time_limit" in accepted:
        kwargs["train_time_limit"] = train_time_limit
    return cls(**kwargs)


def _predict_for_metric(model, X: np.ndarray, metric: Metric, task: str):
    if task != "regression" and metric.needs_proba:
        return model.predict_proba(X)
    return model.predict(X)


def _fold_error(model, Xv, yv, metric: Metric, task: str, labels):
    with trace_span("trial.score"):
        pred = _predict_for_metric(model, Xv, metric, task)
        if task != "regression" and metric.needs_proba and labels is not None:
            # align probability columns with the global label set: a fold's
            # training split may be missing classes entirely
            classes = getattr(model, "classes_", None)
            if classes is not None and len(classes) != len(labels):
                full = np.zeros((pred.shape[0], len(labels)))
                lut = {c: i for i, c in enumerate(labels)}
                for j, c in enumerate(classes):
                    full[:, lut[c]] = pred[:, j]
                pred = full
    with trace_span("trial.metric"):
        if metric.needs_proba:
            return metric.error(yv, pred, labels=labels)
        return metric.error(yv, pred)


def _temporal_error(
    data: Dataset,
    estimator_cls: type,
    config: dict,
    sample_size: int,
    metric: Metric,
    n_splits: int,
    seed: int,
    train_time_limit: float | None,
    horizon: int,
    seasonal_period: int | None,
):
    """Rolling-origin evaluation of one forecast trial.

    The config is split into estimator vs featurization halves
    (``fc_*``); every fold trains a :class:`~repro.data.timeseries.
    ForecastModel` on rows strictly before its validation block and
    scores a recursive ``horizon``-step forecast against the actuals —
    the sample-size prefix takes the *most recent* ``s`` training rows,
    the temporal counterpart of the paper's subsample-of-shuffled-data.
    Returns (mean error, last fold's fitted model).
    """
    from ..data.timeseries import ForecastModel, featurizer_from_config, \
        split_forecast_config
    from .resampling import TemporalSplitter

    base_cfg, fc_cfg = split_forecast_config(config)
    featurizer = featurizer_from_config(fc_cfg, seasonal_period)
    h = max(1, int(horizon))
    y = np.asarray(data.y, dtype=np.float64)
    # a fold must hold enough history for one feature row plus at least
    # two supervised rows; shrink the fold count for short series rather
    # than failing the trial outright
    min_train = featurizer.min_history + 2
    k = max(1, min(int(n_splits), (data.n - min_train) // h))
    splitter = TemporalSplitter(n_splits=k, horizon=h, min_train=min_train)
    per_fold_limit = train_time_limit / k if train_time_limit is not None else None
    errors = []
    model = None
    for tr, va in splitter.split(data.n):
        s = max(int(sample_size), min_train)
        tr_used = tr[-min(s, tr.size):]
        with trace_span("trial.construct"):
            base = _make_estimator(estimator_cls, base_cfg, seed,
                                   per_fold_limit)
            model = ForecastModel(base, featurizer, horizon=h)
        with trace_span("trial.fit"):
            model.fit(y[tr_used])
        with trace_span("trial.score"):
            pred = model.forecast(va.size)
        with trace_span("trial.metric"):
            errors.append(metric.error(y[va], pred, history=y[tr_used]))
    return float(np.mean(errors)), model


def _plane_error(
    plane: BinnedDataset,
    estimator_cls: type,
    config: dict,
    sample_size: int,
    resampling: str,
    metric: Metric,
    n_splits: int,
    holdout_ratio: float,
    seed: int,
    train_time_limit: float | None,
    labels,
):
    """Holdout/CV trial routed through the shared binned plane.

    Split indices are memoized per (kind, n, k/ratio, seed); histogram
    learners get :class:`~repro.learners.histogram.BinnedMatrix` views
    whose codes are memoized per (row-subset, max_bins).  Both
    memoizations are pure reuse — at or below the plane's exact-binning
    limit every array equals what a fresh per-trial split and in-learner
    ``Binner`` would produce, so errors are bit-for-bit identical to
    the pre-refactor fixture (``golden_trial_errors_prerefactor.json``).
    """
    data = plane.data
    binnable = bool(getattr(estimator_cls, "_uses_binned_plane", False))
    if not binnable and getattr(data, "_codes_only", False):
        # a codes-only worker holds a stub feature matrix: running a
        # learner on it would silently fit garbage, so fail the trial
        # loudly instead (the controller records an inf-error outcome
        # with this message as the failure)
        raise RuntimeError(
            f"{estimator_cls.__name__} is not binned-plane aware but this "
            "worker only holds shipped bin codes (no raw features); "
            "construct the executor with ship_codes=False for mixed "
            "learner sets"
        )
    if resampling == "holdout":
        with trace_span("trial.bin"):
            tr, va = plane.holdout_split(holdout_ratio, seed)
        s = min(int(sample_size), tr.size)
        tr_used = tr[:s]
        with trace_span("trial.construct"):
            model = _make_estimator(estimator_cls, config, seed,
                                    train_time_limit)
        with trace_span("trial.bin"):
            if binnable:
                Xtr = plane.view(tr_used, ("ho-tr", float(holdout_ratio),
                                           int(seed), int(s)))
                Xva = plane.view(va, ("ho-va", float(holdout_ratio),
                                      int(seed)))
            else:
                Xtr, Xva = data.X[tr_used], data.X[va]
        with trace_span("trial.fit"):
            model.fit(Xtr, data.y[tr_used])
        error = _fold_error(model, Xva, data.y[va], metric, data.task, labels)
        return float(error), model
    n_sub = min(int(sample_size), data.n)
    k = min(n_splits, n_sub)
    with trace_span("trial.bin"):
        folds = plane.kfold_split(n_sub, k, seed)
    per_fold_limit = (
        train_time_limit / k if train_time_limit is not None else None
    )
    errors = []
    model = None
    for i, (tr, va) in enumerate(folds):
        with trace_span("trial.construct"):
            model = _make_estimator(estimator_cls, config, seed,
                                    per_fold_limit)
        with trace_span("trial.bin"):
            if binnable:
                Xtr = plane.view(tr, ("cv-tr", n_sub, k, int(seed), i))
                Xva = plane.view(va, ("cv-va", n_sub, k, int(seed), i))
            else:
                Xtr, Xva = data.X[tr], data.X[va]
        with trace_span("trial.fit"):
            model.fit(Xtr, data.y[tr])
        errors.append(
            _fold_error(model, Xva, data.y[va], metric, data.task, labels)
        )
    return float(np.mean(errors)), model


def evaluate_config(
    data: Dataset,
    estimator_cls: type,
    config: dict,
    sample_size: int,
    resampling: str,
    metric: Metric,
    n_splits: int = 5,
    holdout_ratio: float = 0.1,
    seed: int = 0,
    train_time_limit: float | None = None,
    labels: np.ndarray | None = None,
    horizon: int = 1,
    seasonal_period: int | None = None,
) -> TrialOutcome:
    """Run one trial of χ = (estimator, config, s, r) and time it.

    ``data`` must already be (stratified-)shuffled; the sample of size
    ``s`` is a prefix (paper §4.2).  Under holdout the validation set is
    carved from the *full* data once (deterministically per seed) and the
    sample-size prefix applies to the training portion only — this keeps
    validation errors comparable across fidelities, which is what lets the
    controller track a single global best over trials of different sample
    sizes (FLAML does the same).  Under CV the folds are taken within the
    sample.  Under ``temporal`` (forecast tasks; data stays in time
    order, never shuffled) the trial is scored by rolling-origin CV —
    see :func:`_temporal_error`; ``horizon``/``seasonal_period`` only
    apply there.  Returns the validation error, the wall-clock cost, and
    a fitted model (the final deployment model is retrained by the
    caller).

    Holdout/CV trials route through the shared binned-data plane
    (:mod:`repro.data.binned`, see :func:`_plane_error`): split indices
    and histogram bin codes are memoized per dataset and reused across
    trials.  The golden tests pin the resulting errors against fixtures
    captured before the plane existed.
    """
    if resampling not in ("cv", "holdout", "temporal"):
        raise ValueError(
            f"resampling must be cv|holdout|temporal, got {resampling!r}"
        )
    start = time.perf_counter()
    model = None
    failure = None
    span = trace_span(
        "trial",
        learner=estimator_cls.__name__,
        resampling=resampling,
        sample_size=int(sample_size),
    )
    try:
        with span:
            if resampling == "temporal":
                error, model = _temporal_error(
                    data, estimator_cls, config, sample_size, metric,
                    n_splits, seed, train_time_limit, horizon,
                    seasonal_period,
                )
            else:
                error, model = _plane_error(
                    plane_for(data), estimator_cls, config, sample_size,
                    resampling, metric, n_splits, holdout_ratio, seed,
                    train_time_limit, labels,
                )
    except KeyboardInterrupt:
        raise
    except Exception:
        # a failed trial (degenerate sample, or a buggy custom learner)
        # must not kill the search: report error=inf and move on — the
        # proposers will deprioritise the offender via ECI.  The full
        # formatted traceback travels on the outcome so the trial log
        # can explain the failure instead of silently recording inf.
        error = np.inf
        model = None
        failure = traceback.format_exc()
    cost = time.perf_counter() - start
    return TrialOutcome(error=float(error), cost=float(cost), model=model,
                        failure=failure)
