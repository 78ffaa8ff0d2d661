"""The public scikit-learn-style API (paper §3):

    from repro import AutoML
    automl = AutoML()
    automl.fit(X_train, y_train, task="classification", time_budget=60)
    prediction = automl.predict(X_test)

``fit`` runs the full FLAML search (steps 0-3 of Figure 3) and then
retrains the best configuration on all training data.  Custom learners
and custom metrics plug in exactly as in the paper's listing:

    automl.add_learner(learner_name="mylearner", learner_class=MyLearner)
    automl.fit(X, y, metric=my_metric, time_budget=60,
               estimator_list=["mylearner", "xgboost"])
"""

from __future__ import annotations

import time

import numpy as np

from ..data.binned import plane_for
from ..data.dataset import Dataset
from ..learners.histogram import BinnedMatrix
from ..metrics.registry import Metric, get_metric
from ..obs.trace import trace_span
from .controller import SearchController, SearchResult
from .evaluate import _make_estimator
from .registry import (
    DEFAULT_LEARNERS,
    EXTRA_LEARNERS,
    LearnerSpec,
    make_spec_from_class,
)

__all__ = ["AutoML", "infer_task"]


def infer_task(y: np.ndarray, task: str | None) -> str:
    """Resolve the user-facing task string to
    binary|multiclass|regression|forecast."""
    if task in ("binary", "multiclass", "regression"):
        return task
    y = np.asarray(y)
    if task == "forecast":
        if y.dtype.kind not in "fiu":
            raise ValueError(
                "task='forecast' requires a numeric series as y, got dtype "
                f"{y.dtype}; pass the observed values in time order"
            )
        return "forecast"
    if task == "classification":
        return "binary" if np.unique(y).size == 2 else "multiclass"
    if task is None or task == "auto":
        if y.dtype.kind in "mM":
            raise ValueError(
                f"cannot infer a task from datetime-like labels (dtype "
                f"{y.dtype}): timestamps are not a prediction target. For "
                "time-series forecasting pass the observed *values* as y "
                "with task='forecast'; otherwise encode the timestamps "
                "numerically and pass task='regression'"
            )
        if y.dtype.kind == "O":
            raise ValueError(
                "cannot infer a task from object-dtype labels: mixed or "
                "arbitrary Python objects are ambiguous. Convert y to a "
                "numeric array (regression/forecast) or to homogeneous "
                "string/int class labels (classification), or pass task= "
                "explicitly"
            )
        if y.dtype.kind in "USb":
            return "binary" if np.unique(y).size == 2 else "multiclass"
        uniq = np.unique(y)
        if uniq.size <= max(20, int(0.05 * y.size)) and np.allclose(
            uniq, np.round(uniq)
        ):
            return "binary" if uniq.size == 2 else "multiclass"
        return "regression"
    raise ValueError(f"unknown task {task!r}")


def _starting_points_from(source) -> dict[str, dict]:
    """Best config per learner out of a prior run (``fit(resume_from=...)``).

    ``source`` may be a SearchResult, a fitted AutoML instance, or the
    path of a trial-log JSON written via ``fit(log_file=...)``.
    """
    if isinstance(source, str):
        from .serialize import load_result

        source = load_result(source)
    if isinstance(source, AutoML):
        source = source.search_result
    if not isinstance(source, SearchResult):
        raise TypeError(
            "resume_from must be a SearchResult, a fitted AutoML, or a "
            f"trial-log path; got {type(source).__name__}"
        )
    best: dict[str, tuple[float, dict]] = {}
    for t in source.trials:
        if not np.isfinite(t.error):
            continue
        cur = best.get(t.learner)
        if cur is None or t.error < cur[0]:
            best[t.learner] = (t.error, dict(t.config))
    return {name: cfg for name, (_, cfg) in best.items()}


def _retrain_input(data: Dataset, est_cls: type):
    """What the winner's final fit reads: the plane's view of every row
    when the learner bins through the plane (see :meth:`AutoML.fit`),
    else the raw feature matrix."""
    if not getattr(est_cls, "_uses_binned_plane", False):
        return data.X
    return plane_for(data).view(np.arange(data.n), ("all", data.n))


class AutoML:
    """Fast and lightweight AutoML: economical learner/hyperparameter search.

    Parameters of interest (all overridable per-``fit``):

    seed:
        Seed for every stochastic component.
    init_sample_size:
        Starting sample size per learner (paper: 10K).
    sample_growth:
        Multiplicative sample-size factor c (paper: 2).
    """

    def __init__(self, seed: int = 0, init_sample_size: int = 10_000,
                 sample_growth: float = 2.0) -> None:
        self.seed = int(seed)
        self.init_sample_size = int(init_sample_size)
        self.sample_growth = float(sample_growth)
        self._custom_learners: dict[str, LearnerSpec] = {}
        self._result: SearchResult | None = None
        self._model = None
        self._task: str | None = None

    # ------------------------------------------------------------------
    def add_learner(self, learner_name: str, learner_class: type) -> None:
        """Register a custom estimator class for use in ``estimator_list``.

        The class must implement fit/predict (and predict_proba for
        classification), plus a classmethod
        ``search_space(data_size, task) -> SearchSpace``; an optional
        ``cost_relative2lgbm`` attribute seeds its ECI (default 1.0).
        """
        self._custom_learners[learner_name] = make_spec_from_class(
            learner_name, learner_class
        )

    def _resolve_learners(self, estimator_list, task: str) -> dict[str, LearnerSpec]:
        available = {**EXTRA_LEARNERS, **DEFAULT_LEARNERS, **self._custom_learners}
        if estimator_list in (None, "auto"):
            # the default list is exactly the paper's learners (plus any
            # user-registered customs); EXTRA_LEARNERS need explicit mention
            defaults = {**DEFAULT_LEARNERS, **self._custom_learners}
            names = [n for n, s in defaults.items() if s.supports(task)]
        else:
            names = list(estimator_list)
        out = {}
        for n in names:
            if n not in available:
                raise ValueError(
                    f"unknown estimator {n!r}; known: {sorted(available)}"
                )
            if not available[n].supports(task):
                raise ValueError(f"estimator {n!r} does not support task {task!r}")
            out[n] = available[n]
        if not out:
            raise ValueError("estimator_list resolved to no learners")
        return out

    # ------------------------------------------------------------------
    def fit(
        self,
        X_train: np.ndarray,
        y_train: np.ndarray,
        task: str | None = None,
        time_budget: float = 60.0,
        metric: str | Metric = "auto",
        estimator_list=None,
        seed: int | None = None,
        n_splits: int = 5,
        holdout_ratio: float = 0.1,
        resampling: str | None = None,
        learner_selection: str = "eci",
        use_sampling: bool = True,
        retrain_full: bool = True,
        cv_instance_threshold: int = 100_000,
        cv_rate_threshold: float = 10e6 / 3600.0,
        max_iters: int | None = None,
        ensemble: bool = False,
        ensemble_members: int = 4,
        stop_at_error: float | None = None,
        starting_points: dict | None = None,
        resume_from=None,
        fitted_cost_model: bool = False,
        preprocessor=None,
        log_file: str | None = None,
        n_workers: int = 1,
        backend: str | None = None,
        trial_cache=True,
        trial_time_limit: float | None = None,
        horizon: int = 1,
        seasonal_period: int | None = None,
        retries: int = 0,
        retry_budget: int | None = None,
        executor_factory=None,
        stop_event=None,
        tenant: str | None = None,
    ) -> "AutoML":
        """Search for an accurate model within ``time_budget`` seconds.

        ``resampling`` forces 'cv' or 'holdout' (default: the paper's
        thresholding rule).  ``learner_selection``/``use_sampling`` expose
        the §5.2 ablations.  ``ensemble=True`` enables the appendix's
        stacked-ensemble post-processing (extra cost after the search);
        ``stop_at_error`` stops the search once the validation error
        reaches the target ("cheapest model below a threshold").
        ``preprocessor`` is one object — or a list applied in order — with
        the fit_transform/transform contract (footnote 2: e.g. the
        classes in :mod:`repro.data.preprocessing`); it is fitted on the
        training data here and re-applied inside predict/predict_proba.
        ``resume_from`` warm-resumes from an earlier run — a
        ``SearchResult``, a trial-log JSON path (``log_file`` output), or
        a previously fitted ``AutoML`` — by seeding each learner's FLOW2
        with that run's best config (the §1 scenario of re-tuning on
        refreshed data); explicit ``starting_points`` win on conflicts.

        ``n_workers``/``backend`` choose how the one search loop runs
        (:class:`~repro.core.controller.SearchController`): it keeps up
        to ``n_workers`` trials in flight on the chosen
        :mod:`repro.exec` substrate — ``"serial"`` (the default for one
        worker), ``"thread"`` (the default for more: a private
        ``SharedWorkerPool`` of ``n_workers`` threads, the same pool the
        fit service multiplexes) or ``"process"``, which gives true
        multi-core parallelism but requires picklable learners/metrics
        — and commits them in launch order, so racy completion order
        never changes the trial log.
        ``backend="virtual"`` is opt-in: it simulates ``n_workers``
        workers on a virtual clock, running each trial inline and
        committing it at its virtual finish time.  Only the one-worker
        serial substrate without ``executor_factory`` hands back the
        evaluated models, so ``retrain_full=False`` takes effect only
        there; everywhere else the winner is retrained on the full data.
        A winner that bins through the shared plane is retrained on the
        plane's view of every row (an ``automl.retrain`` span covers the
        final fit): byte-identical to a raw fit at or below
        ``BinnedDataset.EXACT_ROW_LIMIT`` rows, and above it binned on
        the sketch grid and bundles its config was validated on, reusing
        the search's base codes.  Other learners, forecasting and
        ensembles retrain on the raw features.
        ``executor_factory`` hands trial execution to an external
        substrate: it is called with the prepared (shuffled,
        preprocessed) :class:`~repro.data.dataset.Dataset` and must
        return a :class:`~repro.exec.TrialExecutor` — e.g. a
        ``SharedWorkerPool.lease(...)`` so many concurrent ``fit`` calls
        multiplex one pool (the multi-tenant fit service; a lease names
        itself ``"thread"``).  The executor names the backend, and
        ``search_result.backend`` reports the
        substrate the search finished on (after any degradation down the
        process → thread → serial ladder); ``stop_event`` (a
        ``threading.Event``) cancels the search cooperatively between
        trials; ``tenant`` labels this search's ``repro_tenant_*``
        metrics.
        ``trial_cache`` enables the LRU trial cache (repeated proposals
        are free; see ``search_result.cache_hits``) — pass a
        :class:`~repro.exec.TrialCache` *instance* to share one store
        across searches (keys are dataset-fingerprint-scoped, so equal
        datasets hit across tenants and different datasets never
        collide) — and
        ``trial_time_limit`` bounds any single trial in seconds — a hard
        limit on thread/process backends (an overdue trial is abandoned
        as inf-error), advisory on serial/virtual ones, where trials run
        inline and stop early only if the learner honours its
        ``train_time_limit``.

        ``retries`` re-runs a trial that *crashed* (worker death,
        infrastructure error) or *timed out* up to that many extra times
        with exponential backoff before committing an inf-error — a
        deterministic learner exception is never retried.
        ``retry_budget`` caps the total retries spent across the whole
        search (default: unlimited).  Retried trials record their
        attempt count in the trial log (``SearchResult.failures`` /
        ``fit --verbose``).

        ``task="forecast"`` treats ``y_train`` as an ordered univariate
        series (``X_train`` may be ``None``; exogenous columns are
        carried but the reduction is autoregressive): trials are scored
        by rolling-origin temporal CV at the given ``horizon`` (never on
        the future), the lag featurization is searched jointly with each
        learner's hyperparameters, and ``seasonal_period`` adds a
        seasonal lag feature and sets the MASE scale.  Predict with
        ``predict(horizon=...)``.  Returns ``self``.
        """
        seed = self.seed if seed is None else int(seed)
        t0 = time.perf_counter()
        y_train = np.asarray(y_train)
        self._task = infer_task(y_train, task)
        if self._task != "forecast" and (horizon != 1 or seasonal_period):
            raise ValueError(
                "horizon/seasonal_period only apply to task='forecast', "
                f"but the task resolved to {self._task!r}"
            )
        self._horizon = max(1, int(horizon))
        self._seasonal_period = int(seasonal_period) if seasonal_period else None
        if self._task == "forecast":
            if preprocessor is not None:
                raise ValueError(
                    "preprocessor is not supported for task='forecast': "
                    "featurization (lags/windows/differencing) is part of "
                    "the searched trial config"
                )
            if resampling not in (None, "temporal"):
                raise ValueError(
                    f"task='forecast' requires resampling='temporal', got "
                    f"{resampling!r} — random splits would train on the "
                    "future"
                )
            if ensemble:
                raise ValueError(
                    "stacked ensembles are not supported for task='forecast'"
                )
            y_train = y_train.astype(np.float64)
            if X_train is None:
                X_train = np.arange(y_train.size,
                                    dtype=np.float64).reshape(-1, 1)
            X_train = np.asarray(X_train, dtype=np.float64)
            self._preprocessor = []
            self._n_features_in = (
                int(X_train.shape[1]) if X_train.ndim == 2 else None
            )
            # time order is the whole point: never shuffle a series
            data = Dataset("train", X_train, y_train, "forecast")
        else:
            if X_train is None:
                raise TypeError(
                    "X_train is required (it is optional only for "
                    "task='forecast')"
                )
            X_train = np.asarray(X_train, dtype=np.float64)
            self._n_features_in = (
                int(X_train.shape[1]) if X_train.ndim == 2 else None
            )
            self._preprocessor = (
                list(preprocessor)
                if isinstance(preprocessor, (list, tuple))
                else ([preprocessor] if preprocessor is not None else [])
            )
            for step in self._preprocessor:
                X_train = step.fit_transform(X_train)
            data = Dataset("train", X_train, y_train, self._task).shuffled(seed)
        from ..exec.engine import dataset_token

        fp = dataset_token(data)
        self._data_fingerprint = {
            "name": fp[0], "task": fp[1], "n": fp[2], "d": fp[3],
            "crc32": fp[4],
        }
        metric_obj = get_metric(metric, task=self._task)
        if (
            self._task == "forecast"
            and self._seasonal_period
            and metric in ("auto", "mase")
        ):
            # seasonal MASE: scale by the in-sample seasonal-naive error
            from ..metrics.forecast import mase_metric

            metric_obj = mase_metric(self._seasonal_period)
        learners = self._resolve_learners(estimator_list, self._task)
        if self._task == "forecast":
            from .registry import forecast_spec

            # lag structure becomes part of every learner's search space
            learners = {n: forecast_spec(s) for n, s in learners.items()}
        if resume_from is not None:
            resumed = _starting_points_from(resume_from)
            starting_points = {**resumed, **(starting_points or {})}
        if n_workers < 1:
            raise ValueError(f"n_workers must be >= 1, got {n_workers}")
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        retry_policy = None
        if retries > 0:
            from ..exec import RetryPolicy

            retry_policy = RetryPolicy(
                max_attempts=int(retries) + 1, retry_budget=retry_budget
            )
        executor = None
        if executor_factory is not None:
            # the lease must bind to the *prepared* dataset (shuffled /
            # preprocessed above) — hence a factory, not an instance
            executor = executor_factory(data)
        self._result = SearchController(
            data,
            learners,
            metric_obj,
            time_budget=time_budget,
            n_workers=n_workers,
            seed=seed,
            init_sample_size=self.init_sample_size,
            sample_growth=self.sample_growth,
            n_splits=n_splits,
            holdout_ratio=holdout_ratio,
            learner_selection=learner_selection,
            use_sampling=use_sampling,
            resampling_override=resampling,
            cv_instance_threshold=cv_instance_threshold,
            cv_rate_threshold=cv_rate_threshold,
            max_iters=max_iters,
            # only the inline serial substrate hands back fitted models
            keep_models=(not retrain_full and n_workers == 1
                         and executor is None and backend in (None, "serial")),
            stop_at_error=stop_at_error,
            starting_points=starting_points,
            fitted_cost_model=fitted_cost_model,
            backend=backend,
            executor=executor,
            trial_cache=trial_cache,
            trial_time_limit=trial_time_limit,
            horizon=self._horizon,
            seasonal_period=self._seasonal_period,
            retry_policy=retry_policy,
            stop_event=stop_event,
            tenant=tenant,
        ).run()
        if log_file:
            from .serialize import save_result

            save_result(self._result, log_file)
        self._metric = metric_obj
        if self._result.best_learner is None:
            raise RuntimeError(
                "search produced no successful trial within the budget; "
                "increase time_budget"
            )
        if ensemble:
            from .ensemble import build_ensemble, select_ensemble_members

            members = select_ensemble_members(
                self._result, max_members=ensemble_members
            )
            self._model = build_ensemble(
                data, members, learners, n_splits=n_splits, seed=seed,
                train_time_limit=time_budget,
            )
            return self
        if retrain_full or self._result.best_model is None:
            spec = learners[self._result.best_learner]
            est_cls = spec.estimator_cls(self._task)
            # bound the retrain so fit() does not blow far past the budget
            retrain_limit = max(time_budget, 3 * (time.perf_counter() - t0) / 10)
            if self._task == "forecast":
                from ..data.timeseries import ForecastModel, \
                    featurizer_from_config, split_forecast_config

                base_cfg, fc_cfg = split_forecast_config(
                    self._result.best_config
                )
                featurizer = featurizer_from_config(
                    fc_cfg, self._seasonal_period
                )
                base = _make_estimator(est_cls, base_cfg, seed, retrain_limit)
                self._model = ForecastModel(
                    base, featurizer, horizon=self._horizon
                )
                fit_args = (data.y,)
            else:
                self._model = _make_estimator(
                    est_cls, self._result.best_config, seed, retrain_limit
                )
                fit_args = (_retrain_input(data, est_cls), data.y)
            with trace_span("automl.retrain",
                            learner=self._result.best_learner,
                            rows=int(data.n),
                            plane=isinstance(fit_args[0], BinnedMatrix)):
                self._model.fit(*fit_args)
        else:
            self._model = self._result.best_model
        return self

    # ------------------------------------------------------------------
    def _require_fitted(self):
        if self._model is None:
            raise RuntimeError(
                "this AutoML instance is not fitted: no final model exists "
                "yet. Call fit(X_train, y_train, task=..., time_budget=...) "
                "before predict/predict_proba/score/save_model/"
                "export_artifact"
                + (
                    ""
                    if self._result is None
                    else "; the previous fit() ended without a successful "
                         "trial - increase time_budget or max_iters"
                )
            )

    def _apply_preprocessor(self, X: np.ndarray) -> np.ndarray:
        X = np.asarray(X, dtype=np.float64)
        for step in getattr(self, "_preprocessor", []):
            X = step.transform(X)
        return X

    def predict(self, X: np.ndarray | None = None,
                horizon: int | None = None) -> np.ndarray:
        """Predict labels/values with the best model found.

        For ``task="forecast"``, returns the next ``horizon`` values
        (default: the horizon given to ``fit``); ``X``, if given, is the
        recent raw history to forecast from (default: the training
        series' tail).
        """
        self._require_fitted()
        if self._task == "forecast":
            history = (
                None if X is None
                else np.asarray(X, dtype=np.float64).ravel()
            )
            return self._model.forecast(
                horizon if horizon is not None else self._horizon,
                history=history,
            )
        if X is None:
            raise TypeError(
                "predict() requires X (it is optional only for "
                "task='forecast')"
            )
        if horizon is not None:
            raise ValueError(
                "horizon only applies to task='forecast', but this AutoML "
                f"was fitted with task={self._task!r}"
            )
        return self._model.predict(self._apply_preprocessor(X))

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Class probabilities of the best model (classification only)."""
        self._require_fitted()
        if self._task in ("regression", "forecast"):
            raise RuntimeError(
                "predict_proba is only defined for classification, but this "
                f"AutoML was fitted with task={self._task!r} (best learner: "
                f"{self._result.best_learner}); use predict() for point "
                "estimates"
            )
        return self._model.predict_proba(self._apply_preprocessor(X))

    def score(self, X: np.ndarray, y: np.ndarray,
              metric: str | Metric | None = None) -> float:
        """Error of the fitted model on (X, y) under ``metric`` (default:
        the metric used during fit).  Lower is better.

        For ``task="forecast"``, ``X`` is the raw history preceding the
        actuals ``y`` (pass the training series, or ``None`` for its
        stored tail) and the error scores a ``len(y)``-step forecast.
        """
        self._require_fitted()
        m = self._metric if metric is None else get_metric(metric, task=self._task)
        y = np.asarray(y)
        if self._task == "forecast":
            pred = self.predict(X, horizon=int(y.size))
            history = (None if X is None
                       else np.asarray(X, dtype=np.float64).ravel())
            return m.error(y, pred, history=history)
        if self._task != "regression" and m.needs_proba:
            pred = self.predict_proba(X)
        else:
            pred = self.predict(X)
        return m.error(y, pred)

    # -- introspection ---------------------------------------------------
    @property
    def best_estimator(self) -> str:
        """Name of the winning learner."""
        self._require_fitted()
        return self._result.best_learner

    @property
    def best_config(self) -> dict:
        """Hyperparameters of the winning configuration."""
        self._require_fitted()
        return dict(self._result.best_config)

    @property
    def best_loss(self) -> float:
        """Best validation error ε̃ observed during search."""
        self._require_fitted()
        return self._result.best_error

    @property
    def model(self):
        """The final fitted estimator object."""
        self._require_fitted()
        return self._model

    @property
    def best_config_per_estimator(self) -> dict:
        """Best (lowest validation error) config found for each learner."""
        self._require_fitted()
        best: dict[str, tuple[float, dict]] = {}
        for t in self._result.trials:
            cur = best.get(t.learner)
            if cur is None or t.error < cur[0]:
                best[t.learner] = (t.error, dict(t.config))
        return {k: cfg for k, (_, cfg) in best.items()}

    @property
    def search_result(self) -> SearchResult:
        """Full trial log and summary (used by the benchmark harness)."""
        if self._result is None:
            raise RuntimeError("AutoML instance is not fitted; call fit() first")
        return self._result

    # -- model persistence ------------------------------------------------
    def export_artifact(self, metadata: dict | None = None):
        """Bundle the fitted pipeline into a deployable artifact.

        Returns a :class:`repro.serve.PipelineArtifact` — preprocessor
        chain + final model (single estimator or stacked ensemble) +
        task/metric/feature metadata and the training-data fingerprint —
        which predicts on **raw** rows, saves to JSON, and registers
        into a :class:`repro.serve.ModelRegistry`.
        """
        from ..serve.artifact import export_artifact as _export

        return _export(self, metadata=metadata)

    def save_model(self, path: str) -> None:
        """Write the fitted pipeline as a pickle-free JSON artifact.

        The file embeds the preprocessor chain alongside the model
        (:meth:`export_artifact`), so a reloaded pipeline scores raw,
        un-preprocessed rows exactly like this instance.  Supported for
        every built-in learner family and for stacked ensembles
        (:mod:`repro.learners.model_io`); custom learner classes raise —
        pickle those, or store the config and retrain.
        """
        self._require_fitted()
        self.export_artifact().save(path)

    @staticmethod
    def load_model(path: str):
        """Load a pipeline written by :meth:`save_model` or ``repro fit``
        (no pickle).

        Returns a :class:`repro.serve.PipelineArtifact` whose
        ``predict``/``predict_proba`` take raw rows.  A file that is not
        a pipeline artifact raises ``ValueError``.
        """
        from ..serve.artifact import PipelineArtifact

        return PipelineArtifact.load(path)
