"""Tests for pickle-free model serialisation (repro.learners.model_io)."""

import json

import numpy as np
import pytest

from repro.learners import (
    CatBoostLikeClassifier,
    CatBoostLikeRegressor,
    ExtraTreesRegressor,
    GaussianNB,
    KNeighborsClassifier,
    KNeighborsRegressor,
    LassoRegressor,
    LGBMLikeClassifier,
    LGBMLikeRegressor,
    LogisticRegressionL1,
    LogisticRegressionL2,
    RandomForestClassifier,
    RidgeRegressor,
    XGBLikeClassifier,
    XGBLimitDepthRegressor,
    dump_model,
    load_model,
)

CLS_FACTORIES = [
    lambda: LGBMLikeClassifier(tree_num=8, leaf_num=6),
    lambda: XGBLikeClassifier(tree_num=8, leaf_num=6),
    lambda: LogisticRegressionL1(C=1.0),
    lambda: LogisticRegressionL2(C=1.0),
    lambda: GaussianNB(),
    lambda: KNeighborsClassifier(n_neighbors=5),
    lambda: RandomForestClassifier(tree_num=5),
    lambda: CatBoostLikeClassifier(early_stop_rounds=10, learning_rate=0.1),
]

REG_FACTORIES = [
    lambda: LGBMLikeRegressor(tree_num=8, leaf_num=6),
    lambda: XGBLimitDepthRegressor(tree_num=8, max_depth=3),
    lambda: RidgeRegressor(C=1.0),
    lambda: LassoRegressor(C=1.0),
    lambda: KNeighborsRegressor(n_neighbors=5, weights="distance"),
    lambda: ExtraTreesRegressor(tree_num=5),
    lambda: CatBoostLikeRegressor(early_stop_rounds=10, learning_rate=0.1),
]


@pytest.mark.parametrize("factory", CLS_FACTORIES)
class TestClassifierRoundtrip:
    def test_binary_predictions_identical(self, factory, binary_split):
        Xtr, ytr, Xte, _ = binary_split
        m = factory().fit(Xtr, ytr)
        back = load_model(dump_model(m))
        assert np.array_equal(m.predict(Xte), back.predict(Xte))
        assert np.allclose(m.predict_proba(Xte), back.predict_proba(Xte))

    def test_multiclass_predictions_identical(self, factory, multiclass_split):
        Xtr, ytr, Xte, _ = multiclass_split
        m = factory().fit(Xtr, ytr)
        back = load_model(dump_model(m))
        assert np.allclose(m.predict_proba(Xte), back.predict_proba(Xte))

    def test_dump_is_json_safe(self, factory, binary_split):
        import json

        Xtr, ytr, _, _ = binary_split
        obj = dump_model(factory().fit(Xtr, ytr))
        json.dumps(obj)  # must not raise

    def test_string_labels_roundtrip(self, factory, binary_split):
        Xtr, ytr, Xte, _ = binary_split
        labels = np.array(["no", "yes"])[ytr]
        m = factory().fit(Xtr, labels)
        back = load_model(dump_model(m))
        assert set(back.predict(Xte)) <= {"no", "yes"}
        assert np.array_equal(m.predict(Xte), back.predict(Xte))


@pytest.mark.parametrize("factory", REG_FACTORIES)
class TestRegressorRoundtrip:
    def test_predictions_identical(self, factory, regression_split):
        Xtr, ytr, Xte, _ = regression_split
        m = factory().fit(Xtr, ytr)
        back = load_model(dump_model(m))
        assert np.allclose(m.predict(Xte), back.predict(Xte))

    def test_file_roundtrip(self, factory, regression_split, tmp_path):
        Xtr, ytr, Xte, _ = regression_split
        m = factory().fit(Xtr, ytr)
        path = tmp_path / "model.json"
        path.write_text(json.dumps(dump_model(m)))
        back = load_model(json.loads(path.read_text()))
        assert np.allclose(m.predict(Xte), back.predict(Xte))


class TestErrors:
    def test_unsupported_object_raises(self):
        with pytest.raises(TypeError, match="serialisation"):
            dump_model(object())

    def test_bad_version_rejected(self, binary_split):
        Xtr, ytr, _, _ = binary_split
        obj = dump_model(LogisticRegressionL2().fit(Xtr, ytr))
        obj["format_version"] = 999
        with pytest.raises(ValueError, match="format version"):
            load_model(obj)


class TestAutoMLIntegration:
    def test_save_and_load_final_model(self, tmp_path):
        from repro import AutoML

        r = np.random.default_rng(8)
        X = r.standard_normal((300, 4))
        y = (X[:, 0] > 0).astype(int)
        automl = AutoML(init_sample_size=100)
        automl.fit(X, y, task="classification", time_budget=1.0,
                   max_iters=8, estimator_list=["lgbm"])
        path = str(tmp_path / "m.json")
        automl.save_model(path)
        back = AutoML.load_model(path)
        assert np.array_equal(automl.predict(X[:30]), back.predict(X[:30]))

    def test_save_unfitted_raises(self):
        from repro import AutoML

        with pytest.raises(RuntimeError, match="not fitted"):
            AutoML().save_model("/tmp/nope.json")
