"""Top-level command-line interface: fit / predict / datasets / portfolio.

The library's whole point is "AutoML as a cheap subroutine"; this CLI is
the no-code form of that loop::

    python -m repro fit train.csv --label y --budget 30 --out model.json
    python -m repro predict model.json test.csv --out preds.csv
    python -m repro serve --artifact model.json --port 8000
    python -m repro fit series.csv --task forecast --horizon 12 \
        --seasonal-period 12 --out fc.json
    python -m repro datasets --task binary
    python -m repro portfolio build corpus1.csv corpus2.csv --out pf.json
    python -m repro fit train.csv --register models/ --name churn
    python -m repro serve --registry models/ --port 8000
    python -m repro registry list models/

``fit`` writes one file, the self-contained pipeline artifact
(:class:`repro.serve.PipelineArtifact`: preprocessors, the fitted model,
the task and the search metadata, plus the label column it was trained
on), and ``predict``, ``serve --artifact`` and ``registry add`` all read
that file.  It contains no pickled code.

(Benchmark sweeps live under ``python -m repro.bench``.)
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .core.automl import AutoML
from .data.io import from_csv
from .data.suite import SUITE, suite_names
from .exec.base import BACKENDS

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    """Build the ``python -m repro`` argument parser."""
    p = argparse.ArgumentParser(
        prog="python -m repro",
        description="Fast and lightweight AutoML (FLAML reproduction).",
    )
    sub = p.add_subparsers(dest="command", required=True)

    fit = sub.add_parser("fit", help="search for a model on a CSV dataset")
    fit.add_argument("train_csv", help="headered CSV with features + label")
    fit.add_argument("--label", default="-1",
                     help="label column name or index (default: last)")
    fit.add_argument("--task", default=None,
                     choices=["classification", "binary", "multiclass",
                              "regression", "forecast"],
                     help="default: inferred from the label column")
    fit.add_argument("--horizon", type=int, default=1,
                     help="forecast horizon H (task=forecast; default 1)")
    fit.add_argument("--seasonal-period", type=int, default=None,
                     help="seasonal period m of the series (task=forecast): "
                          "adds a seasonal lag feature and sets the MASE "
                          "scale and naive baseline")
    fit.add_argument("--budget", type=float, default=60.0,
                     help="time budget in seconds (default 60)")
    fit.add_argument("--metric", default="auto",
                     help="metric name (default: auto per task)")
    fit.add_argument("--estimators", nargs="*", default=None,
                     help="estimator subset, e.g. lgbm xgboost")
    fit.add_argument("--seed", type=int, default=0)
    fit.add_argument("--max-iters", type=int, default=None)
    fit.add_argument("--n-workers", type=int, default=1,
                     help="concurrent trials (default 1: sequential search)")
    fit.add_argument("--backend", default=None,
                     choices=[*BACKENDS, "virtual"],
                     help="trial-execution backend (default: serial, or "
                          "thread when --n-workers > 1)")
    fit.add_argument("--retries", type=int, default=0,
                     help="retry crashed/timed-out trials up to this many "
                          "times each, with exponential backoff "
                          "(default 0: no retries)")
    fit.add_argument("--retry-budget", type=int, default=None,
                     help="cap on total retries across the whole search "
                          "(default: unlimited when --retries > 0)")
    fit.add_argument("--out", default="model.json",
                     help="pipeline artifact to write (preprocessing + "
                          "model; read by `predict`, `serve --artifact` "
                          "and `registry add`; default model.json)")
    fit.add_argument("--log", default=None,
                     help="optional trial-log JSON path")
    fit.add_argument("--register", default=None, metavar="REGISTRY_DIR",
                     help="register the fitted pipeline into this model "
                          "registry directory")
    fit.add_argument("--name", default=None,
                     help="model name used with --register "
                          "(default: the training CSV's stem)")
    fit.add_argument("--trace", default=None, metavar="JSONL",
                     help="enable span tracing for the search and write "
                          "the spans to this JSONL file (summarize with "
                          "`python -m repro trace summarize`)")
    fit.add_argument("--verbose", action="store_true",
                     help="print extra diagnostics (native-kernel status, "
                          "failed trials)")

    pred = sub.add_parser("predict", help="predict with a fitted model file")
    pred.add_argument("model", help="pipeline artifact written by `fit`")
    pred.add_argument("test_csv", help="CSV with the same feature columns")
    pred.add_argument("--out", default=None,
                      help="write predictions to this CSV (default: stdout)")
    pred.add_argument("--proba", action="store_true",
                      help="class probabilities instead of labels")
    pred.add_argument("--horizon", type=int, default=None,
                      help="forecast horizon (forecast models; default: the "
                           "horizon the model was fitted with)")

    ds = sub.add_parser("datasets", help="list the benchmark suite")
    ds.add_argument("--task", default=None,
                    choices=["binary", "multiclass", "regression",
                             "forecast"])
    ds.add_argument("--describe", default=None, metavar="NAME",
                    help="load one suite dataset and print its statistics")
    ds.add_argument("--export", default=None, metavar="NAME",
                    help="generate one suite/forecast dataset and write it "
                         "as CSV (requires --out)")
    ds.add_argument("--out", default=None,
                    help="CSV path for --export")

    srv = sub.add_parser(
        "serve", help="serve registered models over HTTP with micro-batching"
    )
    srv.add_argument("--registry", default=None, metavar="DIR",
                     help="model registry directory to serve")
    srv.add_argument("--artifact", default=None, metavar="PATH",
                     help="serve a single artifact file instead of a registry")
    srv.add_argument("--name", default="model",
                     help="model name for --artifact mode (default: model)")
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8000,
                     help="listen port; 0 picks a free one (default 8000)")
    srv.add_argument("--max-batch", type=int, default=32,
                     help="micro-batch size cap (default 32)")
    srv.add_argument("--max-delay-ms", type=float, default=2.0,
                     help="micro-batch coalescing window (default 2ms)")
    srv.add_argument("--no-batching", action="store_true",
                     help="predict every request directly (for comparison)")
    srv.add_argument("--max-horizon", type=int, default=1000,
                     help="cap on per-request forecast horizons "
                          "(default 1000)")
    srv.add_argument("--slow-ms", type=float, default=500.0,
                     help="log requests slower than this many milliseconds "
                          "with their request id; 0 disables (default 500)")
    srv.add_argument("--max-inflight", type=int, default=None,
                     help="admission control: cap on concurrently accepted "
                          "predict requests; excess requests get 429 "
                          "Retry-After (default: unbounded)")
    srv.add_argument("--deadline-ms", type=float, default=None,
                     help="per-request deadline; requests whose prediction "
                          "finishes after it get 503 (default: none)")
    srv.add_argument("--max-queue", type=int, default=None,
                     help="cap on rows queued in each model's micro-batcher; "
                          "a full queue sheds with 503 Retry-After "
                          "(default: unbounded)")
    srv.add_argument("--fit", action="store_true",
                     help="mount the multi-tenant fit service under /fit: "
                          "tenants POST training payloads, searches "
                          "multiplex one shared worker pool, winners "
                          "register as <tenant>.<name> (requires "
                          "--registry)")
    srv.add_argument("--fit-workers", type=int, default=4,
                     help="worker slots in the shared fit pool (default 4)")
    srv.add_argument("--fit-max-searches", type=int, default=4,
                     help="searches in progress at once; more queue "
                          "(default 4)")
    srv.add_argument("--fit-cache-size", type=int, default=16384,
                     help="entries in the cross-search trial cache; 0 "
                          "disables sharing (default 16384)")
    srv.add_argument("--fit-tenant-budget", type=float, default=None,
                     help="per-tenant cumulative trial-compute budget in "
                          "seconds; exhausted tenants are refused "
                          "(default: unmetered)")
    srv.add_argument("--fit-max-concurrent", type=int, default=None,
                     help="default cap on one search's concurrently running "
                          "trials (default: the pool size)")
    srv.add_argument("--fit-max-rows", type=int, default=200_000,
                     help="largest training payload accepted per fit "
                          "(default 200000 rows)")
    srv.add_argument("--fit-budget-cap", type=float, default=300.0,
                     help="hard cap on any single job's time_budget in "
                          "seconds (default 300)")

    tr = sub.add_parser(
        "trace", help="work with span traces (see fit --trace)"
    )
    tr_sub = tr.add_subparsers(dest="trace_command", required=True)
    tr_sum = tr_sub.add_parser(
        "summarize",
        help="per-phase time attribution table from a JSONL trace",
    )
    tr_sum.add_argument("trace_file", help="JSONL span trace (fit --trace, "
                                           "bench_hotpath.py --trace)")
    tr_sum.add_argument("--json", action="store_true",
                        help="print the raw attribution dict as JSON "
                             "instead of the table")

    reg = sub.add_parser("registry", help="inspect / manage a model registry")
    reg_sub = reg.add_subparsers(dest="reg_command", required=True)
    reg_add = reg_sub.add_parser("add", help="register an artifact file")
    reg_add.add_argument("registry_dir")
    reg_add.add_argument("name")
    reg_add.add_argument("artifact", help="artifact JSON written by "
                                          "fit / save_model")
    reg_list = reg_sub.add_parser("list", help="list models and versions")
    reg_list.add_argument("registry_dir")
    reg_list.add_argument("name", nargs="?", default=None)
    reg_promote = reg_sub.add_parser(
        "promote", help="point a stage alias (e.g. production) at a version"
    )
    reg_promote.add_argument("registry_dir")
    reg_promote.add_argument("name")
    reg_promote.add_argument("version", type=int)
    reg_promote.add_argument("stage")
    reg_rollback = reg_sub.add_parser(
        "rollback", help="undo the last promote of a stage alias"
    )
    reg_rollback.add_argument("registry_dir")
    reg_rollback.add_argument("name")
    reg_rollback.add_argument("stage")

    chaos = sub.add_parser(
        "chaos",
        help="deterministic chaos drill: run a small search + serving "
             "session under seeded fault injection and verify recovery",
    )
    chaos.add_argument("--seed", type=int, default=0,
                       help="fault-plan seed; same seed => same faults, "
                            "same retries, same best config (default 0)")
    chaos.add_argument("--budget", default="30s",
                       help="wall-clock budget for the drill, e.g. 30s, "
                            "2m (default 30s)")
    chaos.add_argument("--backend", default="process",
                       choices=BACKENDS,
                       help="trial-execution backend to stress "
                            "(default process)")
    chaos.add_argument("--skip-serving", action="store_true",
                       help="skip the serving overload/quarantine phase")
    chaos.add_argument("--json", action="store_true",
                       help="print the drill report as JSON")

    pf = sub.add_parser("portfolio", help="meta-learning portfolio tools")
    pf_sub = pf.add_subparsers(dest="pf_command", required=True)
    pf_build = pf_sub.add_parser("build", help="build a portfolio from CSVs")
    pf_build.add_argument("corpus_csvs", nargs="+")
    pf_build.add_argument("--label", default="-1")
    pf_build.add_argument("--budget", type=float, default=5.0,
                          help="per-corpus-task budget (default 5s)")
    pf_build.add_argument("--out", default="portfolio.json")
    return p


def _label_arg(raw: str) -> str | int:
    try:
        return int(raw)
    except ValueError:
        return raw


def _cmd_fit(args) -> int:
    data = from_csv(args.train_csv, label=_label_arg(args.label),
                    task=args.task)
    automl = AutoML(seed=args.seed)
    forecast_kw = {}
    if data.task == "forecast" or args.horizon != 1 or args.seasonal_period:
        # pass through even when the task is not forecast, so AutoML.fit
        # raises its clear error instead of a forgotten `--task forecast`
        # silently training a shuffled regression on the series
        forecast_kw = dict(horizon=args.horizon,
                           seasonal_period=args.seasonal_period)
    trace_cleanup = None
    if args.trace:
        from .obs.trace import set_trace_sink, set_tracing

        prev_sink = set_trace_sink(args.trace)
        prev_on = set_tracing(True)

        def trace_cleanup() -> None:
            set_tracing(prev_on)
            set_trace_sink(prev_sink)

    try:
        automl.fit(
            data.X, data.y,
            task=data.task,
            time_budget=args.budget,
            metric=args.metric,
            estimator_list=args.estimators,
            max_iters=args.max_iters,
            n_workers=args.n_workers,
            backend=args.backend,
            log_file=args.log,
            retries=args.retries,
            retry_budget=args.retry_budget,
            **forecast_kw,
        )
    finally:
        if trace_cleanup is not None:
            trace_cleanup()
    artifact = automl.export_artifact(
        metadata={"label": args.label, "train_csv": args.train_csv},
    )
    artifact.save(args.out)
    if args.register:
        import os as _os

        from .serve import ModelRegistry

        name = args.name or _os.path.splitext(
            _os.path.basename(args.train_csv))[0]
        version = ModelRegistry(args.register).register(
            name, artifact, metadata={"train_csv": args.train_csv},
        )
        print(f"registered   : {name} v{version} -> {args.register}")
    result = automl.search_result
    print(f"best learner : {automl.best_estimator}")
    print(f"best error   : {automl.best_loss:.4f}")
    if data.task == "forecast" and args.metric in ("auto", "mase"):
        from .data.timeseries import seasonal_naive_cv_error

        baseline = seasonal_naive_cv_error(
            data.y, horizon=args.horizon, m=args.seasonal_period or 1,
        )
        verdict = "beats" if automl.best_loss < baseline else "DOES NOT beat"
        print(f"seasonal-naive MASE under the same rolling-origin CV: "
              f"{baseline:.4f} ({verdict} the baseline)")
    print(f"trials       : {result.n_trials} "
          f"({result.cache_hits} cache hits, backend={result.backend} "
          f"x{result.n_workers})")
    if args.verbose:
        from .native import native_status

        ns = native_status()
        reason = f" ({ns['reason']})" if ns["reason"] else ""
        print(f"native       : {ns['mode']}{reason}")
        retried = sum(
            max(0, getattr(t, "attempts", 1) - 1) for t in result.trials
        )
        if retried:
            print(f"retries      : {retried}")
        failures = result.failures
        if failures:
            print(f"failed trials: {len(failures)}")
            for t in failures[:5]:
                last_line = t.failure.strip().splitlines()[-1]
                attempts = getattr(t, "attempts", 1)
                tries = f" ({attempts} attempts)" if attempts > 1 else ""
                print(f"  iter {t.iteration} {t.learner}{tries}: "
                      f"{last_line}")
    if args.trace:
        print(f"trace        : {args.trace} "
              "(python -m repro trace summarize)")
    print(f"model        : {args.out}")
    return 0


def _cmd_predict(args) -> int:
    artifact = AutoML.load_model(args.model)
    # an artifact without label metadata (AutoML.save_model) takes
    # fit's default label, the last column
    label = _label_arg(str(artifact.metadata.get("label", "-1")))
    if artifact.task == "forecast":
        # the test CSV is the recent raw history of the series; answer
        # with the next --horizon values
        if args.proba:
            raise ValueError("--proba is not defined for forecast models")
        history = from_csv(args.test_csv, label=label, task="forecast").y
        out = artifact.predict(history, horizon=args.horizon)
        return _emit_predictions(out, args.out)
    if _has_label(args.test_csv, label, artifact.metadata["n_features_in"]):
        X = from_csv(args.test_csv, label=label, task=artifact.task).X
    else:
        # label column absent: all columns are features
        import csv as _csv

        with open(args.test_csv, newline="") as f:
            rows = list(_csv.reader(f))
        X = np.array([[float(c or "nan") for c in r] for r in rows[1:]])
    out = (artifact.predict_proba(X) if args.proba else
           artifact.predict(X))
    return _emit_predictions(out, args.out)


def _emit_predictions(out, path: str | None) -> int:
    """Write predictions (one row per line) to ``path`` or stdout."""
    lines = [",".join(map(str, np.atleast_1d(row))) for row in out]
    text = "\n".join(lines)
    if path:
        with open(path, "w") as f:
            f.write(text + "\n")
        print(f"wrote {len(lines)} predictions to {path}")
    else:
        print(text)
    return 0


def _has_label(path: str, label: str | int, n_features: int) -> bool:
    """Whether the prediction CSV still carries the training label column.

    Named labels are matched against the header; positional labels are
    resolved by width (train had n_features + 1 columns; a feature-only
    file has exactly n_features).
    """
    with open(path) as f:
        header = f.readline().strip().split(",")
    if isinstance(label, str):
        return label in header
    return len(header) > n_features


def _load_any_dataset(name: str):
    """A suite dataset or a synthetic forecasting regime, by name."""
    from .data.timeseries import TIMESERIES_REGIMES, load_forecast_dataset

    if name in TIMESERIES_REGIMES:
        return load_forecast_dataset(name)
    if name in SUITE:
        return SUITE[name].load()
    raise ValueError(
        f"unknown dataset {name!r}; see `datasets` for names"
    )


def _cmd_datasets(args) -> int:
    from .data.io import to_csv
    from .data.timeseries import TIMESERIES_REGIMES, forecast_suite_names

    if args.describe is not None:
        for k, v in _load_any_dataset(args.describe).describe().items():
            print(f"{k:<15} {v}")
        return 0
    if args.export is not None:
        if not args.out:
            raise ValueError("--export requires --out PATH")
        data = _load_any_dataset(args.export)
        to_csv(data, args.out)
        print(f"wrote {data.name} ({data.n} rows, task={data.task}) "
              f"to {args.out}")
        return 0
    if args.task != "forecast":
        for name in suite_names(args.task):
            s = SUITE[name]
            print(f"{name:<24} {s.task:<11} n={s.n:<7} d={s.d:<4} "
                  f"(paper: {s.orig_n} x {s.orig_d})")
    if args.task in (None, "forecast"):
        for name in forecast_suite_names():
            p = TIMESERIES_REGIMES[name]
            parts = [f"n={p['n']:<7}"]
            if p.get("seasonal_period"):
                parts.append(f"m={p['seasonal_period']}")
            if p.get("trend"):
                parts.append(f"trend={p['trend']}")
            if p.get("ar"):
                parts.append(f"ar={p['ar']}")
            print(f"{name:<24} {'forecast':<11} {' '.join(parts)}")
    return 0


def _cmd_serve(args) -> int:
    from .serve import (
        FitService,
        ModelRegistry,
        ModelServer,
        PipelineArtifact,
        serve,
    )

    if (args.registry is None) == (args.artifact is None):
        raise ValueError("serve needs exactly one of --registry / --artifact")
    if args.fit and args.registry is None:
        raise ValueError(
            "serve --fit needs --registry: fitted winners must land "
            "somewhere durable"
        )
    common = dict(
        max_batch=args.max_batch, max_delay_ms=args.max_delay_ms,
        batching=not args.no_batching, max_horizon=args.max_horizon,
        slow_request_ms=args.slow_ms, max_inflight=args.max_inflight,
        deadline_ms=args.deadline_ms, max_queue=args.max_queue,
    )
    if args.registry is not None:
        registry = ModelRegistry(args.registry)
        fit_service = None
        if args.fit:
            fit_service = FitService(
                registry=registry,
                n_workers=args.fit_workers,
                max_searches=args.fit_max_searches,
                cache_size=args.fit_cache_size,
                tenant_time_budget=args.fit_tenant_budget,
                default_max_concurrent=args.fit_max_concurrent,
                max_fit_rows=args.fit_max_rows,
                time_budget_cap=args.fit_budget_cap,
            )
        model_server = ModelServer(
            registry=registry, fit_service=fit_service, **common
        )
    else:
        model_server = ModelServer(
            artifacts={args.name: PipelineArtifact.load(args.artifact)},
            **common,
        )
    serve(model_server, host=args.host, port=args.port)
    return 0


def _cmd_trace(args) -> int:
    from .obs.summarize import summarize_file

    att, table = summarize_file(args.trace_file)
    if args.json:
        print(json.dumps(att, indent=1))
    else:
        print(table)
    return 0


def _cmd_registry(args) -> int:
    from .serve import ModelRegistry, PipelineArtifact

    registry = ModelRegistry(args.registry_dir)
    if args.reg_command == "add":
        version = registry.register(
            args.name, PipelineArtifact.load(args.artifact)
        )
        print(f"registered {args.name} v{version}")
        return 0
    if args.reg_command == "promote":
        registry.promote(args.name, args.version, args.stage)
        print(f"{args.name}: {args.stage} -> v{args.version}")
        return 0
    if args.reg_command == "rollback":
        version = registry.rollback(args.name, args.stage)
        print(f"{args.name}: {args.stage} rolled back to v{version}")
        return 0
    # list
    names = [args.name] if args.name else registry.models()
    for name in names:
        aliases = registry.aliases(name)
        by_version = {}
        for alias, v in aliases.items():
            by_version.setdefault(v, []).append(alias)
        print(name)
        for entry in registry.versions(name):
            marks = ",".join(sorted(by_version.get(entry["version"], [])))
            quarantined = (" QUARANTINED"
                           if entry.get("quarantined") else "")
            print(f"  v{entry['version']:<3} task={entry['task']:<11} "
                  f"sha256={entry['sha256'][:12]} "
                  f"{('[' + marks + ']') if marks else ''}{quarantined}")
    return 0


def _cmd_portfolio(args) -> int:
    from .core.metalearning import build_portfolio

    corpus = []
    for path in args.corpus_csvs:
        ds = from_csv(path, label=_label_arg(args.label))
        corpus.append((path, ds.shuffled(0)))
    portfolio = build_portfolio(corpus, time_budget=args.budget)
    portfolio.save(args.out)
    print(f"portfolio with {len(portfolio)} entries -> {args.out}")
    for e in portfolio.entries:
        print(f"  {e.dataset:<30} best={e.best_learner:<10} "
              f"error={e.best_error:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    try:
        if args.command == "fit":
            return _cmd_fit(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "datasets":
            return _cmd_datasets(args)
        if args.command == "serve":
            return _cmd_serve(args)
        if args.command == "trace":
            return _cmd_trace(args)
        if args.command == "registry":
            return _cmd_registry(args)
        if args.command == "chaos":
            from .faults.chaos import run_drill

            return run_drill(args)
        if args.command == "portfolio":
            return _cmd_portfolio(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        # registry/serving errors (RegistryError et al.) exit cleanly too
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 1  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
