"""Tests for the top-level CLI (python -m repro)."""

import json

import numpy as np
import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def train_csv(tmp_path_factory):
    r = np.random.default_rng(0)
    X = r.standard_normal((200, 3))
    y = (X[:, 0] + X[:, 1] > 0).astype(int)
    lines = ["f0,f1,f2,label"] + [
        f"{a},{b},{c},{t}" for (a, b, c), t in zip(X, y)
    ]
    p = tmp_path_factory.mktemp("cli") / "train.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


@pytest.fixture(scope="module")
def test_csv(tmp_path_factory):
    r = np.random.default_rng(1)
    X = r.standard_normal((20, 3))
    lines = ["f0,f1,f2"] + [f"{a},{b},{c}" for a, b, c in X]
    p = tmp_path_factory.mktemp("cli") / "test.csv"
    p.write_text("\n".join(lines) + "\n")
    return str(p)


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_fit_defaults(self):
        args = build_parser().parse_args(["fit", "x.csv"])
        assert args.budget == 60.0
        assert args.out == "model.json"

    def test_datasets_task_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["datasets", "--task", "nope"])


class TestDatasets:
    def test_lists_suite(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "adult" in out and "bng_pbc" in out

    def test_task_filter(self, capsys):
        assert main(["datasets", "--task", "regression"]) == 0
        out = capsys.readouterr().out
        assert "houses" in out and "adult" not in out

    def test_describe(self, capsys):
        assert main(["datasets", "--describe", "phoneme"]) == 0
        out = capsys.readouterr().out
        assert "binary" in out and "minority_frac" in out

    def test_describe_unknown(self, capsys):
        assert main(["datasets", "--describe", "nope"]) == 2
        assert "unknown dataset" in capsys.readouterr().err


def _fit(train_csv, model_path, *extra):
    return main(["fit", train_csv, "--budget", "1.0", "--max-iters", "8",
                 "--out", model_path, "--estimators", "lgbm", *extra])


def _csv_rows(path):
    with open(path) as f:
        return [[float(c) for c in line.split(",")]
                for line in f.read().splitlines()[1:]]


class TestFitPredict:
    def test_fit_writes_model(self, train_csv, tmp_path, capsys):
        from repro.serve import PipelineArtifact

        model_path = str(tmp_path / "m.json")
        rc = _fit(train_csv, model_path, "--label", "label")
        assert rc == 0
        artifact = PipelineArtifact.load(model_path)
        assert artifact.task == "binary"
        assert artifact.metadata["label"] == "label"
        assert artifact.metadata["learner"] == "lgbm"
        assert 0.0 <= artifact.metadata["best_error"] <= 1.0
        assert artifact.metadata["train_csv"] == train_csv
        out = capsys.readouterr().out
        assert "best learner : lgbm" in out
        assert f"model        : {model_path}" in out

    def test_predict_from_artifact(self, train_csv, test_csv, tmp_path,
                                   capsys):
        model_path = str(tmp_path / "m.json")
        _fit(train_csv, model_path, "--label", "label")
        pred_path = str(tmp_path / "preds.csv")
        rc = main(["predict", model_path, test_csv, "--out", pred_path])
        assert rc == 0
        preds = open(pred_path).read().strip().splitlines()
        assert len(preds) == 20
        assert set(preds) <= {"0", "1"}

    def test_predict_proba_stdout(self, train_csv, test_csv, tmp_path, capsys):
        model_path = str(tmp_path / "m.json")
        _fit(train_csv, model_path, "--label", "label")
        capsys.readouterr()
        rc = main(["predict", model_path, test_csv, "--proba"])
        assert rc == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 20
        p = np.array([[float(c) for c in r.split(",")] for r in rows])
        assert np.allclose(p.sum(axis=1), 1.0)

    def test_predict_reads_save_model_artifact(self, train_csv, tmp_path,
                                               capsys):
        """An artifact from ``AutoML.save_model`` carries no label
        metadata; ``predict`` takes the last column as the label, as
        ``fit`` does by default."""
        from repro import AutoML

        train = np.array(_csv_rows(train_csv))
        X, y = train[:, :-1], train[:, -1].astype(int)
        automl = AutoML(seed=0, init_sample_size=100)
        automl.fit(X, y, task="classification", time_budget=1.0,
                   max_iters=8, estimator_list=["lgbm"])
        model_path = str(tmp_path / "saved.json")
        automl.save_model(model_path)
        capsys.readouterr()
        rc = main(["predict", model_path, train_csv])
        assert rc == 0
        preds = capsys.readouterr().out.strip().splitlines()
        assert preds == [str(v) for v in automl.predict(X)]

    def test_predict_rejects_recipe_json(self, train_csv, test_csv,
                                         tmp_path, capsys):
        """The configuration-recipe JSON that ``fit`` wrote before the
        artifact became its one model file, a bare estimator dump and a
        JSON list are not pipeline artifacts: exit 2, no retrain, no
        traceback."""
        from repro.learners import LGBMLikeClassifier, dump_model

        recipe = str(tmp_path / "recipe.json")
        with open(recipe, "w") as f:
            json.dump({"task": "binary", "label": "label", "n_features": 3,
                       "learner": "lgbm", "config": {"tree_num": 4},
                       "best_error": 0.1, "metric": "auto", "seed": 0,
                       "train_csv": train_csv, "n_trials": 8}, f)
        train = np.array(_csv_rows(train_csv))
        bare = str(tmp_path / "bare.json")
        with open(bare, "w") as f:
            json.dump(dump_model(LGBMLikeClassifier(tree_num=4).fit(
                train[:, :-1], train[:, -1].astype(int))), f)
        not_a_dict = str(tmp_path / "list.json")
        with open(not_a_dict, "w") as f:
            json.dump([1, 2], f)
        for path in (recipe, bare, not_a_dict):
            capsys.readouterr()
            assert main(["predict", path, test_csv]) == 2
            err = capsys.readouterr().err
            assert "not a pipeline artifact" in err
            assert "Traceback" not in err

    def test_out_file_serves_like_predict(self, train_csv, test_csv,
                                          tmp_path, capsys):
        """The one file ``fit --out`` writes is what ``serve --artifact``
        serves: ``/predict`` answers the test rows exactly as
        ``predict`` does."""
        import threading

        from repro.serve import ModelServer, PipelineArtifact, ServeClient, \
            build_http_server

        model_path = str(tmp_path / "m.json")
        _fit(train_csv, model_path, "--label", "label")
        pred_path = str(tmp_path / "preds.csv")
        assert main(["predict", model_path, test_csv,
                     "--out", pred_path]) == 0
        expected = open(pred_path).read().split()
        server = ModelServer(
            artifacts={"model": PipelineArtifact.load(model_path)})
        httpd = build_http_server(server, port=0)
        thread = threading.Thread(target=httpd.serve_forever, daemon=True)
        thread.start()
        try:
            client = ServeClient(
                f"http://127.0.0.1:{httpd.server_address[1]}")
            served = client.predict(_csv_rows(test_csv), model="model")
        finally:
            httpd.shutdown()
            httpd.server_close()
            server.close()
            thread.join(timeout=5)
        assert [str(v) for v in served] == expected

    def test_fit_missing_file_is_error(self, capsys):
        assert main(["fit", "/nonexistent.csv"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_fit_bad_label_is_error(self, train_csv, capsys):
        assert main(["fit", train_csv, "--label", "nope"]) == 2
        assert "not in header" in capsys.readouterr().err

    def test_predict_positional_label_featureonly_csv(self, train_csv,
                                                      test_csv, tmp_path,
                                                      capsys):
        """With a positional label (default -1), a feature-only test CSV is
        recognised by its width rather than misparsed."""
        model_path = str(tmp_path / "m.json")
        _fit(train_csv, model_path)
        capsys.readouterr()
        rc = main(["predict", model_path, test_csv])
        assert rc == 0
        preds = capsys.readouterr().out.strip().splitlines()
        assert len(preds) == 20  # all 3 columns used as features


class TestPortfolioCommand:
    def test_build_portfolio(self, train_csv, tmp_path, capsys):
        out = str(tmp_path / "pf.json")
        rc = main(["portfolio", "build", train_csv, "--label", "label",
                   "--budget", "1.0", "--out", out])
        assert rc == 0
        pf = json.loads(open(out).read())
        assert len(pf["entries"]) == 1
        assert "best_configs" in pf["entries"][0]


class TestModuleEntry:
    def test_python_dash_m(self, tmp_path):
        import subprocess
        import sys

        r = subprocess.run(
            [sys.executable, "-m", "repro", "datasets"],
            capture_output=True, text=True, timeout=120,
        )
        assert r.returncode == 0
        assert "adult" in r.stdout
