"""The winner's final fit on the shared binned plane.

``AutoML.fit`` retrains a plane-aware winner on the plane's view of
every training row instead of re-binning raw ``X``:

* at or below ``BinnedDataset.EXACT_ROW_LIMIT`` the plane bins exactly
  as the learner would, so the final model is byte-identical to a raw
  fit — for every plane-aware learner, task and ``max_bin``;
* above the limit the final model carries the sketch grid and its
  bundles, so a saved artifact must round-trip that binner, and
  importances must still name the input columns;
* the retrain is one ``automl.retrain`` span, and the fit's plane and
  dataset are still freed by reference counting alone.
"""

from __future__ import annotations

import gc
import json
import weakref

import numpy as np
import pytest

from repro import AutoML
from repro.core.registry import DEFAULT_LEARNERS, EXTRA_LEARNERS
from repro.data import plane_for
from repro.data.binned import BinnedDataset
from repro.data.bundling import BundledBinner
from repro.data.dataset import Dataset
from repro.learners import (
    CatBoostLikeRegressor,
    ExtraTreesRegressor,
    LGBMLikeRegressor,
    RandomForestRegressor,
    XGBLikeRegressor,
)
from repro.learners.model_io import dump_model, load_model
from repro.obs.trace import clear_spans, drain_spans, set_tracing

N_ONEHOT = 6


def _onehot_data(n: int, task: str, seed: int = 0):
    """Four dense features plus a one-hot block the sketch grid bundles."""
    rng = np.random.default_rng(seed)
    dense = rng.standard_normal((n, 4))
    cat = rng.integers(0, N_ONEHOT, size=n)
    X = np.column_stack([dense, np.eye(N_ONEHOT)[cat]])
    signal = dense[:, 0] - 0.5 * dense[:, 1] + 0.3 * cat
    if task == "regression":
        return X, signal + 0.1 * rng.standard_normal(n)
    return X, (signal > np.median(signal)).astype(np.int64)


def _fit(X, y, task, **kw):
    return AutoML(seed=0, init_sample_size=kw.pop("init", 500)).fit(
        X, y, task=task, time_budget=60, resampling="holdout",
        estimator_list=["lgbm"], **kw)


# -- above the exact limit: the sketch grid reaches the artifact ---------
@pytest.fixture()
def sketch_path(monkeypatch):
    monkeypatch.setattr(BinnedDataset, "EXACT_ROW_LIMIT", 500)


@pytest.mark.parametrize("retrain_full", [True, False])
def test_saved_sketch_model_predicts_bit_for_bit(sketch_path, tmp_path,
                                                 retrain_full):
    X, y = _onehot_data(3000, "regression")
    automl = _fit(X, y, "regression", max_iters=4, retrain_full=retrain_full)
    binner = automl.model.engine_.binner_
    assert isinstance(binner, BundledBinner)  # the bundled grid, not raw X
    path = tmp_path / "model.json"
    automl.save_model(str(path))
    loaded = AutoML.load_model(str(path))
    assert loaded.predict(X).tobytes() == automl.predict(X).tobytes()


def _fit_on_sketch_view(cls, **config):
    X, y = _onehot_data(3000, "regression")
    data = Dataset("sketch", X, y, "regression")
    view = plane_for(data).view(np.arange(data.n), ("all", data.n))
    return X, cls(seed=0, **config).fit(view, y)


@pytest.mark.parametrize("cls,config", [
    (LGBMLikeRegressor, {"tree_num": 6}),  # the base sketch grid
    (LGBMLikeRegressor, {"tree_num": 6, "max_bin": 31}),  # a derived grid
    (RandomForestRegressor, {"tree_num": 4}),
    (CatBoostLikeRegressor, {"n_estimators": 8, "depth": 3}),
], ids=["gbdt", "gbdt-derived", "forest", "catboost"])
def test_bundled_model_dump_round_trips(sketch_path, cls, config):
    X, model = _fit_on_sketch_view(cls, **config)
    engine = getattr(model, "engine_", model)
    assert isinstance(engine.binner_, BundledBinner)
    loaded = load_model(json.loads(json.dumps(dump_model(model))))
    assert loaded.predict(X).tobytes() == model.predict(X).tobytes()


@pytest.mark.parametrize("cls", [LGBMLikeRegressor, XGBLikeRegressor,
                                 RandomForestRegressor, ExtraTreesRegressor])
def test_bundled_importances_name_every_input_column(sketch_path, cls):
    X, model = _fit_on_sketch_view(cls, tree_num=6)
    assert isinstance(getattr(model, "engine_", model).binner_, BundledBinner)
    imp = model.feature_importances_
    assert imp.shape == (X.shape[1],)
    assert imp.sum() == pytest.approx(1.0)
    assert (imp[4:] > 0).any()  # the bundle's splits reach its members


# -- at or below the exact limit: byte-identical final models -----------
_CONFIGS = {
    "lgbm": {"tree_num": 8, "leaf_num": 8},
    "xgboost": {"tree_num": 8, "leaf_num": 8},
    "xgb_limitdepth": {"tree_num": 8, "max_depth": 3},
    "rf": {"tree_num": 5},
    "extra_tree": {"tree_num": 5},
    "catboost": {"n_estimators": 12, "depth": 3},
}
_CASES = [(name, task, {}) for name in _CONFIGS
          for task in ("binary", "regression")]
_CASES += [("lgbm", task, {"max_bin": 31}) for task in ("binary", "regression")]


@pytest.mark.parametrize("name,task,extra", _CASES,
                         ids=[f"{n}-{t}{'-mb31' if e else ''}"
                              for n, t, e in _CASES])
def test_exact_view_fit_is_byte_identical_to_raw_fit(name, task, extra):
    spec = {**EXTRA_LEARNERS, **DEFAULT_LEARNERS}[name]
    cls = spec.estimator_cls(task)
    assert cls._uses_binned_plane
    X, y = _onehot_data(400, task, seed=1)
    data = Dataset("exact", X, y, task)
    plane = plane_for(data)
    assert plane.exact
    config = {**_CONFIGS[name], **extra, "seed": 0}
    raw = cls(**config).fit(X, y)
    on_plane = cls(**config).fit(plane.view(np.arange(data.n),
                                            ("all", data.n)), y)
    assert json.dumps(dump_model(on_plane)) == json.dumps(dump_model(raw))
    assert on_plane.predict(X).tobytes() == raw.predict(X).tobytes()
    if task == "binary":
        assert (on_plane.predict_proba(X).tobytes()
                == raw.predict_proba(X).tobytes())


def test_automl_retrain_matches_raw_fit_of_winner():
    X, y = _onehot_data(400, "binary", seed=2)
    automl = _fit(X, y, "classification", init=200, max_iters=4)
    data = Dataset("train", X, y, "binary").shuffled(0)
    cls = DEFAULT_LEARNERS["lgbm"].estimator_cls("binary")
    raw = cls(**automl.best_config, seed=0,
              train_time_limit=automl.model.train_time_limit)
    raw.fit(data.X, data.y)
    assert json.dumps(dump_model(automl.model)) == json.dumps(dump_model(raw))


# -- observability and lifetime ------------------------------------------
def test_traced_fit_emits_one_retrain_span():
    X, y = _onehot_data(400, "binary")
    prev = set_tracing(True)
    clear_spans()
    try:
        _fit(X, y, "classification", init=200, max_iters=3)
        spans = [s for s in drain_spans() if s["name"] == "automl.retrain"]
    finally:
        set_tracing(prev)
        clear_spans()
    assert len(spans) == 1
    assert spans[0]["attrs"] == {"learner": "lgbm", "rows": 400,
                                 "plane": True}


def test_fit_retrained_on_view_frees_plane_and_dataset(monkeypatch):
    import repro.core.automl as automl_mod

    refs = []
    real_plane_for = automl_mod.plane_for

    def spy(data):
        plane = real_plane_for(data)
        refs.append((weakref.ref(plane), weakref.ref(data)))
        return plane

    monkeypatch.setattr(automl_mod, "plane_for", spy)
    X, y = _onehot_data(400, "binary")
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        automl = _fit(X, y, "classification", init=200, max_iters=3)
        assert len(refs) == 1  # the retrain asked for the plane
        # no cycle holds them: reference counting alone freed both
        assert [r() for r in refs[0]] == [None, None]
    finally:
        if was_enabled:
            gc.enable()
    assert automl.predict(X).shape == (400,)
