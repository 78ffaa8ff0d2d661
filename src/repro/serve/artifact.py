"""Self-contained pipeline artifacts: the unit of deployment.

``AutoML.fit`` produces two things a deployment needs — a fitted
preprocessor chain and a fitted model — plus metadata that operators
need (task, metric, feature count, a fingerprint of the data it was
trained on).  A :class:`PipelineArtifact` bundles all of it into one
JSON document, so the object that crosses the train/serve boundary is a
*pipeline*, not a bare estimator: ``predict`` accepts raw,
un-preprocessed rows and applies the embedded featurization first.

Artifacts are what the :class:`~repro.serve.registry.ModelRegistry`
versions and what the prediction server loads; they contain no pickled
code (everything routes through :mod:`repro.learners.model_io` and
:func:`repro.data.preprocessing.dump_preprocessor`).
"""

from __future__ import annotations

import json
import time

import numpy as np

from ..data.preprocessing import dump_preprocessor, load_preprocessor
from ..learners.model_io import dump_model, load_model

__all__ = ["PipelineArtifact", "export_artifact", "ARTIFACT_FORMAT"]

#: top-level ``format`` marker: a JSON file without it (a bare model_io
#: estimator dump, which carries ``kind`` instead) is not an artifact
ARTIFACT_FORMAT = "repro.pipeline"
_ARTIFACT_VERSION = 1


def _warm_model(model) -> None:
    """Recursively pre-build packed inference arrays on a model tree.

    Tree learners expose ``warm_inference()`` (build the flattened
    ensembles their predict kernels traverse); stacked ensembles and
    forecast wrappers are walked into so every constituent gets warmed.
    Duck-typed: models without the hook are left alone.
    """
    warm = getattr(model, "warm_inference", None)
    if callable(warm):
        warm()
    for sub in getattr(model, "base_models", None) or ():
        _warm_model(sub)
    for attr in ("meta_model", "base"):
        sub = getattr(model, attr, None)
        if sub is not None:
            _warm_model(sub)


class PipelineArtifact:
    """A deployable prediction pipeline: preprocessors + model + metadata.

    ``predict``/``predict_proba`` accept raw rows — a single feature
    vector, a list of rows, or a 2-D array — exactly as a client would
    POST them, and run them through the embedded preprocessor chain
    before the model.
    """

    def __init__(self, model, preprocessors: list | None = None,
                 task: str = "binary", metadata: dict | None = None) -> None:
        self.model = model
        self.preprocessors = list(preprocessors or [])
        self.task = task
        self.metadata = dict(metadata or {})

    # -- prediction ----------------------------------------------------
    def check_n_features(self, n_cols: int) -> None:
        """Raise if ``n_cols`` differs from the trained raw feature count.

        The server calls this *before* enqueueing a row into the
        micro-batcher, so one malformed request cannot poison the model
        call shared by a whole coalesced batch.
        """
        expected = self.metadata.get("n_features_in")
        if expected is not None and n_cols != expected:
            raise ValueError(
                f"this pipeline was trained on {expected} raw features but "
                f"received rows with {n_cols}; send un-preprocessed "
                "feature vectors in the training column order"
            )

    def _prepare(self, rows) -> np.ndarray:
        X = np.asarray(rows, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(1, -1)
        if X.ndim != 2:
            raise ValueError(
                f"rows must be a feature vector or a 2-D batch, got shape "
                f"{X.shape}"
            )
        self.check_n_features(X.shape[1])
        for step in self.preprocessors:
            X = step.transform(X)
        return X

    def predict(self, rows, horizon: int | None = None) -> np.ndarray:
        """Predict labels/values for raw (un-preprocessed) rows.

        For a ``task="forecast"`` artifact, ``rows`` is the recent raw
        *history* of the series (any length >= the model's lag context)
        and the result is the next ``horizon`` values (default: the
        horizon the model was fitted for).
        """
        if self.task == "forecast":
            return self.model.predict(
                np.asarray(rows, dtype=np.float64).ravel(), horizon=horizon
            )
        if horizon is not None:
            raise ValueError(
                "horizon only applies to forecast artifacts, but this "
                f"pipeline was trained with task={self.task!r}"
            )
        return self.model.predict(self._prepare(rows))

    def predict_proba(self, rows) -> np.ndarray:
        """Class probabilities for raw rows (classification only)."""
        if self.task in ("regression", "forecast"):
            raise RuntimeError(
                "predict_proba is only defined for classification, but this "
                f"pipeline was trained with task={self.task!r}; use "
                "predict() for point estimates"
            )
        return self.model.predict_proba(self._prepare(rows))

    # -- serialisation -------------------------------------------------
    def to_dict(self) -> dict:
        """Serialise the whole pipeline to a JSON-safe dict."""
        return {
            "format": ARTIFACT_FORMAT,
            "format_version": _ARTIFACT_VERSION,
            "task": self.task,
            "metadata": self.metadata,
            "preprocessors": [dump_preprocessor(p) for p in self.preprocessors],
            "model": dump_model(self.model),
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PipelineArtifact":
        """Reconstruct an artifact serialised by :meth:`to_dict`."""
        if not isinstance(obj, dict) or obj.get("format") != ARTIFACT_FORMAT:
            raise ValueError(
                "not a pipeline artifact (missing "
                f"format={ARTIFACT_FORMAT!r} marker)"
            )
        version = obj.get("format_version")
        if version != _ARTIFACT_VERSION:
            raise ValueError(f"unsupported artifact version {version!r}")
        return cls(
            model=load_model(obj["model"]),
            preprocessors=[load_preprocessor(p) for p in obj["preprocessors"]],
            task=obj["task"],
            metadata=dict(obj.get("metadata", {})),
        ).warm()

    def warm(self) -> "PipelineArtifact":
        """Pre-build the model's packed inference arrays (flattened tree
        ensembles) so the first request doesn't pay the packing cost;
        returns self.  Called automatically on deserialisation."""
        _warm_model(self.model)
        return self

    def save(self, path: str) -> None:
        """Write the artifact as a JSON file."""
        with open(path, "w") as f:
            json.dump(self.to_dict(), f)

    @classmethod
    def load(cls, path: str) -> "PipelineArtifact":
        """Load an artifact written by :meth:`save`."""
        with open(path) as f:
            return cls.from_dict(json.load(f))

    # -- introspection -------------------------------------------------
    @property
    def learner(self) -> str | None:
        """Name of the learner that won the search (if recorded)."""
        return self.metadata.get("learner")

    def describe(self) -> dict:
        """Operator-facing summary (what ``/models`` reports per version)."""
        return {
            "task": self.task,
            "model_class": type(self.model).__name__,
            "n_preprocessors": len(self.preprocessors),
            **{k: self.metadata[k]
               for k in ("learner", "metric", "n_features_in", "best_error",
                         "created_unix", "horizon", "seasonal_period",
                         "lag_config")
               if k in self.metadata},
        }


def export_artifact(automl, metadata: dict | None = None) -> PipelineArtifact:
    """Bundle a fitted :class:`~repro.core.automl.AutoML` into an artifact.

    Captures the fitted preprocessor chain, the final model (single
    estimator or stacked ensemble), and search metadata: winning learner
    and config, metric, validation error, raw feature count, and the
    training-data fingerprint recorded during ``fit``.  User ``metadata``
    keys win over the derived ones.
    """
    automl._require_fitted()
    result = automl.search_result
    meta = {
        "created_unix": time.time(),
        "task": automl._task,
        "learner": result.best_learner,
        "config": dict(result.best_config),
        "metric": automl._metric.name,
        "best_error": float(result.best_error),
        "n_features_in": getattr(automl, "_n_features_in", None),
        "dataset_fingerprint": getattr(automl, "_data_fingerprint", None),
        "is_ensemble": type(automl._model).__name__ == "StackedEnsemble",
    }
    if automl._task == "forecast":
        meta["horizon"] = int(getattr(automl, "_horizon", 1))
        meta["seasonal_period"] = getattr(automl, "_seasonal_period", None)
        meta["lag_config"] = automl._model.featurizer.to_dict()
    meta.update(metadata or {})
    return PipelineArtifact(
        model=automl._model,
        preprocessors=list(getattr(automl, "_preprocessor", [])),
        task=automl._task,
        metadata=meta,
    )
