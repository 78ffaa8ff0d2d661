"""PipelineArtifact: export, raw-row prediction, JSON round-trip, and
the save_model/load_model path (artifacts only)."""

import json

import numpy as np
import pytest

from repro import AutoML
from repro.data.preprocessing import (
    Imputer,
    OneHotEncoder,
    StandardScaler,
    dump_preprocessor,
    load_preprocessor,
)
from repro.learners.model_io import dump_model
from repro.serve import PipelineArtifact, export_artifact


class TestExport:
    def test_predicts_raw_rows_like_automl(self, fitted_automl, artifact,
                                           served_data):
        X, _ = served_data
        assert np.array_equal(artifact.predict(X), fitted_automl.predict(X))
        assert np.array_equal(
            artifact.predict_proba(X), fitted_automl.predict_proba(X)
        )

    def test_single_row_accepted(self, fitted_automl, artifact, served_data):
        X, _ = served_data
        out = artifact.predict(X[3])
        assert out.shape == (1,)
        assert out[0] == fitted_automl.predict(X[3:4])[0]

    def test_metadata_captured(self, artifact):
        meta = artifact.metadata
        assert meta["learner"] == "lgbm"
        assert meta["metric"] == "roc_auc"
        assert meta["n_features_in"] == 5
        assert meta["task"] == "binary"
        fp = meta["dataset_fingerprint"]
        assert fp["n"] == 300 and fp["d"] == 5 and "crc32" in fp
        assert isinstance(meta["config"], dict)

    def test_module_level_export_matches_method(self, fitted_automl):
        via_method = fitted_automl.export_artifact()
        via_fn = export_artifact(fitted_automl)
        assert via_fn.task == via_method.task
        assert type(via_fn.model) is type(via_method.model)
        # the standalone function derives the full metadata itself
        for key in ("learner", "config", "metric", "n_features_in",
                    "dataset_fingerprint"):
            assert via_fn.metadata[key] == via_method.metadata[key]

    def test_user_metadata_wins_and_merges(self, fitted_automl):
        art = fitted_automl.export_artifact(metadata={"owner": "t",
                                                      "learner": "custom"})
        assert art.metadata["owner"] == "t"
        assert art.metadata["learner"] == "custom"
        assert art.metadata["metric"] == "roc_auc"

    def test_export_requires_fit(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            AutoML().export_artifact()


class TestRoundTrip:
    def test_dict_round_trip_bitwise(self, artifact, served_data):
        X, _ = served_data
        back = PipelineArtifact.from_dict(
            json.loads(json.dumps(artifact.to_dict()))
        )
        assert np.array_equal(back.predict(X), artifact.predict(X))
        assert np.array_equal(
            back.predict_proba(X), artifact.predict_proba(X)
        )

    def test_save_model_embeds_preprocessing(self, fitted_automl, served_data,
                                             tmp_path):
        X, _ = served_data
        path = str(tmp_path / "pipeline.json")
        fitted_automl.save_model(path)
        revived = AutoML.load_model(path)
        # raw rows (with NaNs) score identically: the preprocessor chain
        # travelled inside the file
        assert np.isnan(X).any()
        assert np.array_equal(revived.predict(X), fitted_automl.predict(X))

    def test_bare_estimator_dump_is_rejected(self, fitted_automl, tmp_path):
        """``load_model`` reads pipeline artifacts only: a bare
        model_io estimator dump (no preprocessing) is refused."""
        path = str(tmp_path / "bare.json")
        with open(path, "w") as f:
            json.dump(dump_model(fitted_automl.model), f)
        with pytest.raises(ValueError, match="not a pipeline artifact"):
            AutoML.load_model(path)

    def test_rejects_wrong_format(self):
        with pytest.raises(ValueError, match="not a pipeline artifact"):
            PipelineArtifact.from_dict({"format": "something-else"})


class TestValidation:
    def test_feature_count_mismatch_is_actionable(self, artifact):
        with pytest.raises(ValueError, match="trained on 5 raw features"):
            artifact.predict(np.zeros((2, 9)))

    def test_proba_on_regression_is_actionable(self, served_data):
        X, _ = served_data
        y = X[:, 0] * 2.0 + 1.0
        automl = AutoML(seed=0, init_sample_size=100)
        automl.fit(X[:, :2], y[:], task="regression", time_budget=3,
                   max_iters=4, estimator_list=["lgbm"])
        with pytest.raises(RuntimeError, match="task='regression'"):
            automl.predict_proba(X[:, :2])
        with pytest.raises(RuntimeError, match="use predict"):
            automl.export_artifact().predict_proba(X[:5, :2])

    def test_unfitted_error_names_the_fix(self):
        with pytest.raises(RuntimeError, match=r"fit\(X_train, y_train"):
            AutoML().predict(np.zeros((1, 2)))


class TestPreprocessorSerialisation:
    def test_each_builtin_round_trips(self):
        r = np.random.default_rng(3)
        X = r.standard_normal((50, 4))
        X[::7, 1] = np.nan
        X[:, 3] = r.integers(0, 3, 50)
        for step in (Imputer("median"), StandardScaler(),
                     OneHotEncoder(columns=(3,))):
            Xt = step.fit_transform(X)
            back = load_preprocessor(
                json.loads(json.dumps(dump_preprocessor(step)))
            )
            assert np.array_equal(
                back.transform(X), Xt, equal_nan=True
            ), type(step).__name__

    def test_unfitted_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            dump_preprocessor(StandardScaler())

    def test_unknown_class_raises(self):
        class Custom:
            pass

        with pytest.raises(TypeError, match="built-in preprocessors"):
            dump_preprocessor(Custom())
        with pytest.raises(ValueError, match="unknown preprocessor"):
            load_preprocessor({"class": "Custom"})
