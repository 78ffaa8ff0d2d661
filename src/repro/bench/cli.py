"""Command-line entry point: run suite comparisons without pytest.

Examples::

    python -m repro.bench --datasets phoneme adult --budgets 1 3
    python -m repro.bench --task regression --systems FLAML HpBandSter
    python -m repro.bench --list
"""

from __future__ import annotations

import argparse
import sys

from ..data.suite import SUITE, suite_names
from ..exec.base import BACKENDS
from .harness import ComparisonHarness, default_systems
from .reporting import format_radar_table


def build_parser() -> argparse.ArgumentParser:
    """Build the argument parser for ``python -m repro.bench``."""
    p = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Run AutoML systems over the benchmark suite and print "
        "scaled scores (constant predictor=0, tuned random forest=1).",
    )
    p.add_argument("--datasets", nargs="*", default=None,
                   help="suite dataset names (default: 3 per task type)")
    p.add_argument("--task", choices=["binary", "multiclass", "regression"],
                   default=None, help="restrict to one task type")
    p.add_argument("--systems", nargs="*", default=None,
                   help="subset of: " + " ".join(default_systems()))
    p.add_argument("--budgets", nargs="*", type=float, default=[1.0, 3.0],
                   help="time budgets in seconds (default: 1 3)")
    p.add_argument("--folds", type=int, default=1,
                   help="outer folds to average (default 1, paper uses 10)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--n-workers", type=int, default=1,
                   help="concurrent trials for FLAML's executor (default 1)")
    p.add_argument("--backend", default=None,
                   choices=[*BACKENDS, "virtual"],
                   help="FLAML trial-execution backend (default: serial, "
                        "or thread when --n-workers > 1)")
    p.add_argument("--list", action="store_true",
                   help="list suite datasets and exit")
    p.add_argument("--profile", action="store_true",
                   help="run the suite under cProfile and print the "
                        "top-15 cumulative-time hotspots (perf PRs start "
                        "from this table)")
    return p


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.list:
        for name in suite_names(args.task):
            s = SUITE[name]
            print(f"{name:<24} {s.task:<11} n={s.n:<6} d={s.d:<3} "
                  f"(paper: {s.orig_n} x {s.orig_d})")
        return 0
    if args.datasets:
        unknown = [d for d in args.datasets if d not in SUITE]
        if unknown:
            print(f"unknown datasets: {unknown}", file=sys.stderr)
            return 2
        names = args.datasets
    elif args.task:
        all_names = suite_names(args.task)
        names = [all_names[0], all_names[len(all_names) // 2], all_names[-1]]
    else:
        names = ["blood-transfusion", "phoneme", "adult",
                 "vehicle", "segment", "connect-4",
                 "houses", "fried", "bng_pbc"]
    systems = default_systems(
        include=tuple(args.systems) if args.systems else None,
        n_workers=args.n_workers, backend=args.backend,
    )
    if not systems:
        print("no matching systems", file=sys.stderr)
        return 2
    harness = ComparisonHarness(
        systems=systems, budgets=tuple(args.budgets), n_folds=args.folds,
        seed=args.seed,
    )
    profiler = None
    if args.profile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    records = harness.run(names)
    if profiler is not None:
        profiler.disable()
    print(format_radar_table(records, task=args.task))
    if profiler is not None:
        import pstats

        print("\n== top-15 hotspots (cumulative time) ==")
        pstats.Stats(profiler).strip_dirs().sort_stats(
            "cumulative"
        ).print_stats(15)
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
