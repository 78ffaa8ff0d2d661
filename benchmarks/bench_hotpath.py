"""Hot-path benchmark: trials/sec with the native kernels off vs on.

Measures the **trial-execution** hot path on a fixed, realistic trial
workload.  Per dataset:

1. one fixed-iteration FLAML search runs on the serial backend purely
   to *record* the TrialSpecs it proposes — the representative mix of
   learners, configs, sample sizes and resampling a real search
   executes;
2. that exact spec list is replayed twice through the binned-data
   plane — ``plane`` (native kernels off: the numpy fallback) and
   ``native`` (compiled kernels on: the default path) — and trials/sec
   is reported for each.

The replays must produce **identical per-trial error sequences**
(asserted): the kernels are bitwise-equal rewrites, so the only thing
allowed to change is wall-clock.

Why replay rather than time the search loop itself?  FLAML's proposer
is cost-aware by design (ECI steers learner choice and the sample-size
schedule by observed trial *cost*), so making trials faster changes
what a live search proposes — two live runs would execute different
trials and their wall-clocks would not be comparable.  Replaying pins
the workload.

Methodology notes:

* each replay runs against a fresh copy of the dataset, so every
  replay starts with a cold plane and fills its caches inside the
  measured window;
* the kernels-off replay goes first, so OS/CPU warm-up favours the
  *baseline*;
* trial time limits in the recorded specs are effectively infinite
  (the recording search gets an unbounded budget), so no trial is
  clock-truncated in either replay.

Results are printed and written to ``BENCH_hotpath.json`` at the repo
root (committed — the perf record future PRs compare against).  The CI
perf-smoke job runs a tiny-budget version and fails only on gross
slowdowns (``--fail-below``).
"""

from __future__ import annotations

import argparse
import json
import platform
import time
from pathlib import Path

import numpy as np

from repro.core.controller import SearchController
from repro.core.registry import DEFAULT_LEARNERS
from repro.data import Dataset, load_dataset
from repro.exec.serial import SerialExecutor
from repro.exec.base import run_spec
from repro.metrics.registry import default_metric_name, get_metric
from repro.native import native_available, native_enabled, set_native_enabled

#: one small suite dataset per task type plus one large-n regression
#: set — large enough that trials do real work, small enough for a
#: 1-core run of 3 x max_iters trials each
DEFAULT_DATASETS = ["blood-transfusion", "vehicle", "houses", "bng_pbc"]

OUT_PATH = Path(__file__).resolve().parent.parent / "BENCH_hotpath.json"


class RecordingExecutor(SerialExecutor):
    """Serial executor that records every spec it actually executes."""

    def __init__(self, data):
        super().__init__(data)
        self.specs = []

    def submit(self, spec):
        self.specs.append(spec)
        return super().submit(spec)


def collect_specs(data, max_iters: int, seed: int):
    """Record the trial specs a real fixed-iteration search executes."""
    learners = {
        n: s for n, s in DEFAULT_LEARNERS.items() if s.supports(data.task)
    }
    metric = get_metric(default_metric_name(data.task))
    recorder = RecordingExecutor(data)
    SearchController(
        data,
        learners,
        metric,
        time_budget=1e9,  # never the binding constraint: max_iters is
        max_iters=max_iters,
        seed=seed,
        init_sample_size=128,
        executor=recorder,
    ).run()
    return recorder.specs


#: replay modes: whether the native kernels are on; ``native`` is the
#: system default path, ``plane`` its numpy fallback
MODES = {"plane": False, "native": True}


def replay(data, specs, native: bool):
    """Execute ``specs`` against a fresh dataset copy; (wall, errors).

    The copy guarantees a cold plane (planes are keyed by dataset
    object identity), so cache-build cost lands inside the timing.
    """
    clone = Dataset(data.name, data.X.copy(), data.y.copy(), data.task,
                    data.categorical)
    prev_native = set_native_enabled(native)
    try:
        start = time.perf_counter()
        errors = [run_spec(clone, spec).error for spec in specs]
        wall = time.perf_counter() - start
    finally:
        set_native_enabled(prev_native)
    return wall, errors


def bench_dataset(name: str, max_iters: int, seed: int, repeats: int = 1,
                  modes=tuple(MODES)) -> dict:
    """Record a search's specs, then time one replay per mode.

    With ``repeats > 1`` each mode keeps its best (minimum) wall — the
    standard defence against scheduler noise on a shared 1-core box.
    The least-optimised mode replays first, so OS/CPU warm-up favours
    the *baseline*.
    """
    data = load_dataset(name).shuffled(seed)
    specs = collect_specs(data, max_iters, seed)
    walls, errors = {}, {}
    for mode in modes:
        walls[mode], errors[mode] = replay(data, specs, MODES[mode])
    for _ in range(repeats - 1):
        for mode in modes:
            walls[mode] = min(walls[mode],
                              replay(data, specs, MODES[mode])[0])
    base = errors[modes[0]]
    identical = all(errors[m] == base for m in modes)
    out = {
        "task": data.task,
        "n": data.n,
        "d": data.d,
        "trials": len(specs),
        "errors_identical": identical,
    }
    for mode in modes:
        out[f"wall_{mode}_s"] = round(walls[mode], 4)
        out[f"trials_per_sec_{mode}"] = round(len(specs) / walls[mode], 3)
    if "native" in walls:
        # the kernels' contribution on top of the numpy plane
        out["speedup"] = round(walls["plane"] / walls["native"], 3)
    return out


def traced_replay(name: str, max_iters: int, seed: int, repeats: int,
                  mode: str, trace_path: str):
    """Replay one dataset's workload untraced, then with span tracing on.

    The first traced replay tees its spans to ``trace_path`` (JSONL);
    later repeats keep tracing on but ring-only, so the min-wall
    comparison measures the tracing overhead itself, not sink I/O.
    Returns ``(wall_off, wall_on, errors_identical, n_trials)``.
    """
    from repro.obs.trace import clear_spans, set_trace_sink, set_tracing

    data = load_dataset(name).shuffled(seed)
    specs = collect_specs(data, max_iters, seed)
    native = MODES[mode]
    wall_off, base_errors = replay(data, specs, native)
    for _ in range(repeats - 1):
        wall_off = min(wall_off, replay(data, specs, native)[0])
    prev_on = set_tracing(True)
    prev_sink = set_trace_sink(trace_path)
    try:
        wall_on, traced_errors = replay(data, specs, native)
        set_trace_sink(prev_sink)
        for _ in range(repeats - 1):
            wall_on = min(wall_on, replay(data, specs, native)[0])
    finally:
        set_tracing(prev_on)
        set_trace_sink(prev_sink)
        clear_spans()
    return wall_off, wall_on, traced_errors == base_errors, len(specs)


# ------------------------------------------------------------- large-n --
#: default row counts of the million-row tier (``--large-n``)
LARGE_N_DEFAULT_ROWS = (100_000, 1_000_000)


def make_large_n_dataset(n: int, seed: int = 0) -> Dataset:
    """Synthetic regression at ``n`` rows: 8 dense Friedman features plus
    a 10-category one-hot block, so the tier exercises both the sketch
    grid and exclusive feature bundling.  Generated directly — the
    curated suite caps rows at 8000 by design."""
    from repro.data import OneHotEncoder, make_regression

    base = make_regression(n, 8, seed=seed, name=f"large-{n}")
    rng = np.random.default_rng(seed + 1)
    cat = rng.integers(0, 10, size=n).astype(np.float64)
    y = base.y + 0.5 * cat
    raw = np.column_stack([base.X, cat])
    X = OneHotEncoder(columns=(8,)).fit_transform(raw)
    return Dataset(f"large-{n}", X, y, "regression")


def large_n_specs(data: Dataset, seed: int = 0) -> list:
    """A hand-built trial ladder standing in for a recorded search.

    Recording a real search at 10^6 rows would take longer than the
    bench itself, so the tier replays the shape the controller actually
    produces: a geometric sample-size schedule (s, 4s, 16s, ..., 0.9n)
    across two histogram-learner families at their default ``max_bin``.
    """
    from repro.exec.base import TrialSpec

    metric = get_metric(default_metric_name(data.task))
    cap = int(data.n * 0.9)
    ladder, s = [], 16_384
    while s < cap:
        ladder.append(s)
        s *= 4
    ladder.append(cap)
    families = [
        ("lgbm", {"tree_num": 8, "leaf_num": 16, "learning_rate": 0.2}),
        ("rf", {"tree_num": 6, "max_depth": 8, "min_samples_leaf": 16}),
    ]
    specs = []
    for size in ladder:
        for lname, config in families:
            specs.append(TrialSpec(
                learner=lname,
                estimator_cls=DEFAULT_LEARNERS[lname].estimator_cls(data.task),
                config=config,
                sample_size=size,
                resampling="holdout",
                metric=metric,
                seed=seed,
            ))
    return specs


def _counter_total(snap: dict, name: str) -> float:
    fam = snap.get(name)
    if not fam:
        return 0.0
    return float(sum(row["value"] for row in fam["series"]))


def _peak_rss_bytes() -> int:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def bench_large_n_rows(n: int, seed: int, modes) -> dict:
    """One row-count of the large-n tier.

    Per mode (``plane``/``native``; both serve the sketch grid, since
    the data is above the exact-binning limit):

    * rows/s — training rows consumed per second over the replay
      (sum of trial sample sizes / wall);
    * plane_bytes — the shared plane's cached-code footprint after the
      replay (codes caches + prefix buffers);
    * base_rows_binned — the schedule-proof counter: rows actually
      pushed through the base binner.  A geometric schedule must bin
      O(max sample) rows per grid, not O(sum of samples).

    Then the worker-shipping comparison: the same dataset exported to a
    process worker as pre-binned codes vs float64, with one identical
    trial run against each.  The codes plane must cut shipped bytes by
    >= 3x and leave the trial error untouched — both asserted.
    """
    from repro.data import plane_for
    from repro.exec.process import ProcessExecutor
    from repro.obs.metrics import REGISTRY

    data = make_large_n_dataset(n, seed)
    specs = large_n_specs(data, seed)
    rows_requested = sum(int(s.sample_size) for s in specs)
    out = {
        "n": data.n,
        "d": data.d,
        "trials": len(specs),
        "rows_requested": rows_requested,
        "modes": {},
    }
    errors = {}
    for mode in modes:
        clone = Dataset(data.name, data.X.copy(), data.y.copy(), data.task,
                        data.categorical)
        prev_native = set_native_enabled(MODES[mode])
        before = REGISTRY.snapshot()
        try:
            start = time.perf_counter()
            errors[mode] = [run_spec(clone, spec).error for spec in specs]
            wall = time.perf_counter() - start
        finally:
            set_native_enabled(prev_native)
        after = REGISTRY.snapshot()
        stats = plane_for(clone).stats()
        base_rows = _counter_total(
            after, "repro_plane_base_rows_binned_total"
        ) - _counter_total(before, "repro_plane_base_rows_binned_total")
        out["modes"][mode] = {
            "wall_s": round(wall, 4),
            "rows_per_sec": round(rows_requested / wall, 1),
            "plane_bytes": int(stats["plane_bytes"]),
            "plane_mb": round(stats["plane_bytes"] / 2**20, 2),
            "base_rows_binned": int(base_rows),
            "bundles": int(stats["bundles"]),
            "peak_rss_mb": round(_peak_rss_bytes() / 2**20, 1),
        }
        assert np.isfinite(errors[mode]).all(), f"{mode}: non-finite errors"
    base_mode = modes[0]
    out["errors_identical"] = all(
        errors[m] == errors[base_mode] for m in modes
    )
    assert out["errors_identical"], (
        f"sketch-path modes disagree at n={n}: "
        + ", ".join(f"{m}={errors[m]}" for m in modes)
    )

    # worker-shipping comparison: codes vs float64 over shm, same trial
    ship_spec = specs[min(2, len(specs) - 1)]
    ship = {}
    for label, ship_codes in (("codes", True), ("float", False)):
        ex = ProcessExecutor(data, n_workers=1, ship_codes=ship_codes)
        try:
            trial = ex.submit(ship_spec).result(timeout=600)
            assert trial.failure is None, f"{label} worker: {trial.failure}"
            ship[label] = {
                "shipped_bytes": int(ex.shipped_bytes),
                "shipped_mb": round(ex.shipped_bytes / 2**20, 2),
                "error": float(trial.error),
            }
        finally:
            ex.shutdown()
    cut = ship["float"]["shipped_bytes"] / ship["codes"]["shipped_bytes"]
    out["ship"] = {
        "codes_mb": ship["codes"]["shipped_mb"],
        "float_mb": ship["float"]["shipped_mb"],
        "cut": round(cut, 2),
        "errors_equal": ship["codes"]["error"] == ship["float"]["error"],
    }
    assert cut >= 3.0, f"code shipping cut {cut:.2f}x < 3x at n={n}"
    assert out["ship"]["errors_equal"], (
        f"codes vs float worker errors differ at n={n}: "
        f"{ship['codes']['error']} != {ship['float']['error']}"
    )
    return out


def run_large_n(args, modes) -> dict:
    """The ``--large-n`` tier: bench each row count, print the table,
    merge the results into the existing BENCH JSON under ``large_n``."""
    tier = {
        "methodology": (
            "synthetic regression (8 dense features + 10-category "
            "one-hot block), hand-built geometric sample-size ladder "
            "replayed serially per mode. Modes share the sketch grid "
            "and must produce identical per-trial errors (asserted). "
            "rows/s = sum of trial sample sizes / wall. The ship "
            "comparison exports the dataset to one process worker as "
            "pre-binned codes vs float64 and runs the same trial "
            "against each; 'cut' is float/codes shipped bytes "
            "(>= 3x asserted, errors equal asserted)."
        ),
        "modes": list(modes),
        "rows": {},
    }
    header = (f"{'n':>9}  {'trials':>6}  "
              + "  ".join(f"{m + ' rows/s':>14}" for m in modes)
              + f"  {'plane MB':>9}  {'ship cut':>8}  {'peak RSS MB':>11}")
    print("\nlarge-n tier")
    print(header)
    for n in args.large_rows:
        r = bench_large_n_rows(int(n), args.seed, modes)
        tier["rows"][str(n)] = r
        rates = "  ".join(
            f"{r['modes'][m]['rows_per_sec']:>14,.0f}" for m in modes
        )
        last = r["modes"][modes[-1]]
        print(f"{r['n']:>9}  {r['trials']:>6}  {rates}  "
              f"{last['plane_mb']:>9.1f}  {r['ship']['cut']:>7.2f}x  "
              f"{last['peak_rss_mb']:>11.1f}")
    tier["peak_rss_mb"] = round(_peak_rss_bytes() / 2**20, 1)
    if args.large_mem_limit_mb is not None:
        if tier["peak_rss_mb"] > args.large_mem_limit_mb:
            raise SystemExit(
                f"FAIL: peak RSS {tier['peak_rss_mb']} MB > "
                f"--large-mem-limit-mb {args.large_mem_limit_mb}"
            )
        print(f"peak RSS {tier['peak_rss_mb']} MB <= "
              f"{args.large_mem_limit_mb} MB ceiling")
    return tier


def main(argv=None) -> int:
    p = argparse.ArgumentParser(
        prog="python benchmarks/bench_hotpath.py",
        description="Measure trials/sec with the native kernels off vs on.",
    )
    p.add_argument("--datasets", nargs="*", default=DEFAULT_DATASETS)
    p.add_argument("--max-iters", type=int, default=40,
                   help="trials per search (default 40)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--repeats", type=int, default=2,
                   help="replays per mode, best wall kept (default 2)")
    p.add_argument("--out", type=Path, default=OUT_PATH,
                   help=f"output JSON (default {OUT_PATH})")
    p.add_argument("--fail-below", type=float, default=None, metavar="X",
                   help="exit 1 if the aggregate plane->native speedup "
                        "< X (CI smoke uses 0.33: fail only on gross "
                        "slowdowns); needs the native kernels")
    p.add_argument("--trace", default=None, metavar="JSONL",
                   help="also run a traced replay of the default mode, "
                        "writing its spans to this JSONL file and printing "
                        "the per-phase attribution table")
    p.add_argument("--trace-overhead", type=float, default=None, metavar="X",
                   help="exit 1 if the traced replay is more than X "
                        "(fraction, e.g. 0.05) slower than untraced "
                        "(requires --trace)")
    p.add_argument("--large-n", action="store_true",
                   help="run the million-row tier instead of the suite "
                        "replay: rows/s + memory footprint at --large-rows, "
                        "plus the codes-vs-float worker shipping "
                        "comparison; merges into the BENCH JSON under "
                        "'large_n'")
    p.add_argument("--large-rows", nargs="*", type=int,
                   default=list(LARGE_N_DEFAULT_ROWS),
                   help="row counts for --large-n "
                        f"(default {list(LARGE_N_DEFAULT_ROWS)})")
    p.add_argument("--large-mem-limit-mb", type=float, default=None,
                   metavar="MB",
                   help="with --large-n: exit 1 if process peak RSS "
                        "exceeds this many MB (the CI memory ceiling)")
    args = p.parse_args(argv)
    if args.trace_overhead is not None and args.trace is None:
        p.error("--trace-overhead requires --trace")

    # compile the kernels before any timed window (build is cached; a
    # box without a compiler — or REPRO_NATIVE=0 — honestly benches the
    # numpy-only mode)
    modes = tuple(MODES) if native_enabled() else ("plane",)
    if args.large_n:
        tier = run_large_n(args, modes)
        record = {}
        if args.out.exists():
            record = json.loads(args.out.read_text())
        record["large_n"] = tier
        args.out.write_text(json.dumps(record, indent=2) + "\n")
        print(f"[saved to {args.out}]")
        return 0

    if "native" not in modes:
        if args.fail_below is not None:
            print("FAIL: --fail-below compares plane against native, but "
                  "the native kernels are disabled or unavailable")
            return 1
        print("note: native kernels disabled or unavailable; "
              "benching plane only")

    per_dataset = {}
    for name in args.datasets:
        per_dataset[name] = bench_dataset(
            name, args.max_iters, args.seed, repeats=max(1, args.repeats),
            modes=modes,
        )
        r = per_dataset[name]
        rates = "  ".join(
            f"{m} {r[f'trials_per_sec_{m}']:>7.2f}/s" for m in modes
        )
        speedup = (f"speedup {r['speedup']:.2f}x  " if "speedup" in r
                   else "")
        print(f"{name:<20} {r['trials']:>3} trials  {rates}  {speedup}"
              f"errors_identical={r['errors_identical']}")

    total_trials = sum(r["trials"] for r in per_dataset.values())
    wall = {
        m: sum(r[f"wall_{m}_s"] for r in per_dataset.values())
        for m in modes
    }
    aggregate = {
        "trials": total_trials,
        "errors_identical": all(
            r["errors_identical"] for r in per_dataset.values()
        ),
    }
    for m in modes:
        aggregate[f"trials_per_sec_{m}"] = round(total_trials / wall[m], 3)
    if "native" in modes:
        aggregate["speedup"] = round(wall["plane"] / wall["native"], 3)

    trace_record = None
    if args.trace:
        from repro.obs.summarize import summarize_file

        mode = "native" if "native" in modes else "plane"
        Path(args.trace).write_text("")  # one run per trace file
        t_off = t_on = 0.0
        t_identical = True
        t_trials = 0
        for name in args.datasets:
            off, on, same, n = traced_replay(
                name, args.max_iters, args.seed, max(1, args.repeats),
                mode, args.trace,
            )
            t_off += off
            t_on += on
            t_identical = t_identical and same
            t_trials += n
        overhead = (t_on / t_off - 1.0) if t_off else 0.0
        att, table = summarize_file(args.trace)
        print(f"\ntraced replay ({mode}, {t_trials} trials): tracing "
              f"overhead {100 * overhead:+.1f}% (untraced {t_off:.3f}s -> "
              f"traced {t_on:.3f}s), errors_identical={t_identical}, "
              f"phase coverage {100 * att['coverage']:.1f}%")
        print(table)
        trace_record = {
            "mode": mode,
            "trace_file": str(args.trace),
            "trials": t_trials,
            "wall_untraced_s": round(t_off, 4),
            "wall_traced_s": round(t_on, 4),
            "overhead": round(overhead, 4),
            "errors_identical": t_identical,
            "coverage": round(att["coverage"], 4),
            "phases": {
                phase: round(row["seconds"], 4)
                for phase, row in att["phases"].items()
            },
        }

    record = {
        "benchmark": "hotpath",
        "created_unix": int(time.time()),
        "methodology": (
            "fixed spec workload recorded from a real search, replayed "
            "against a cold dataset copy per mode; both modes run the "
            "binned-data plane; plane = native kernels off (the numpy "
            "fallback); native = compiled kernels (the default path). "
            "'speedup' is plane->native (the C kernels' own "
            "contribution). All modes must produce identical per-trial "
            "error sequences - the kernels are bitwise-equal rewrites, "
            "not approximations."
        ),
        "config": {
            "datasets": list(args.datasets),
            "max_iters": args.max_iters,
            "seed": args.seed,
            "repeats": max(1, args.repeats),
            "backend": "serial",
            "modes": list(modes),
            "native_available": native_available(),
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
        "datasets": per_dataset,
        "aggregate": aggregate,
    }
    if trace_record is not None:
        record["trace"] = trace_record
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    rates = " -> ".join(
        f"{aggregate[f'trials_per_sec_{m}']:.2f}" for m in modes
    )
    speedup = (f"speedup {aggregate['speedup']:.2f}x "
               if "speedup" in aggregate else "")
    print(f"aggregate {speedup}({rates} trials/s), "
          f"errors_identical={aggregate['errors_identical']}")
    print(f"[saved to {args.out}]")
    if not aggregate["errors_identical"]:
        print("FAIL: an optimised mode changed trial errors")
        return 1
    if args.fail_below is not None and aggregate["speedup"] < args.fail_below:
        print(f"FAIL: speedup {aggregate['speedup']} < {args.fail_below}")
        return 1
    if trace_record is not None and not trace_record["errors_identical"]:
        print("FAIL: the traced replay changed trial errors")
        return 1
    if (args.trace_overhead is not None
            and trace_record["overhead"] > args.trace_overhead):
        print(f"FAIL: tracing overhead {trace_record['overhead']:.4f} > "
              f"{args.trace_overhead}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
