"""The no-code forecasting loop: datasets --export -> fit --task forecast
-> predict, all through ``python -m repro``'s main()."""

import numpy as np
import pytest

from repro.cli import main
from repro.data.io import from_csv


@pytest.fixture(scope="module")
def series_csv(tmp_path_factory):
    path = str(tmp_path_factory.mktemp("fc") / "series.csv")
    assert main(["datasets", "--export", "ts-seasonal", "--out", path]) == 0
    return path


@pytest.fixture(scope="module")
def model_file(series_csv, tmp_path_factory):
    model = str(tmp_path_factory.mktemp("fc-model") / "fc.json")
    code = main([
        "fit", series_csv, "--task", "forecast", "--horizon", "12",
        "--seasonal-period", "12", "--budget", "10", "--max-iters", "10",
        "--estimators", "lgbm", "--out", model,
    ])
    assert code == 0
    return model


def test_datasets_lists_forecast_regimes(capsys):
    assert main(["datasets", "--task", "forecast"]) == 0
    out = capsys.readouterr().out
    assert "ts-seasonal" in out and "forecast" in out


def test_exported_series_round_trips(series_csv):
    ds = from_csv(series_csv, task="forecast")
    assert ds.task == "forecast"
    assert ds.n == 400
    assert ds.y.dtype == np.float64


def test_fit_reports_baseline_comparison(series_csv, model_file, capsys):
    from repro.serve import PipelineArtifact

    artifact = PipelineArtifact.load(model_file)
    assert artifact.task == "forecast"
    assert artifact.metadata["horizon"] == 12
    assert artifact.metadata["seasonal_period"] == 12
    assert np.isfinite(artifact.metadata["best_error"])


def test_cli_predict_emits_h_forecasts(series_csv, model_file, tmp_path,
                                       capsys):
    model = model_file
    # history file: the last 60 observations of the series
    ds = from_csv(series_csv, task="forecast")
    hist_csv = str(tmp_path / "history.csv")
    with open(series_csv) as f:
        lines = f.read().splitlines()
    with open(hist_csv, "w") as f:
        f.write("\n".join([lines[0]] + lines[-60:]) + "\n")
    out_csv = str(tmp_path / "preds.csv")
    code = main(["predict", model, hist_csv, "--horizon", "8",
                 "--out", out_csv])
    assert code == 0
    preds = [float(v) for v in open(out_csv).read().split()]
    assert len(preds) == 8
    assert all(np.isfinite(preds))


def test_cli_predict_proba_refused_for_forecast(series_csv, model_file,
                                                capsys):
    model = model_file
    assert main(["predict", model, series_csv, "--proba"]) == 2
    assert "proba" in capsys.readouterr().err


def test_datasets_export_requires_out(capsys):
    assert main(["datasets", "--export", "ts-seasonal"]) == 2
    assert "--out" in capsys.readouterr().err


def test_forgotten_task_forecast_fails_loudly(series_csv, tmp_path, capsys):
    # --horizon without --task forecast must not silently train a
    # shuffled regression on the series
    code = main(["fit", series_csv, "--horizon", "12", "--budget", "2",
                 "--max-iters", "2",
                 "--out", str(tmp_path / "oops.json")])
    assert code == 2
    assert "task='forecast'" in capsys.readouterr().err
