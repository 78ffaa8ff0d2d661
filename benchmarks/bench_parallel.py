"""Appendix extension bench: parallel search threads (virtual workers).

The appendix sketches FLAML's parallel mode: whenever a resource is free,
sample another learner by ECI (possibly a second thread of the same
learner from a different starting point); feedback becomes visible when a
trial finishes.  ``SearchController(backend="virtual")`` simulates this
with virtual workers (DESIGN.md §2 substitution: multi-core hardware →
virtual-time scheduler over the identical proposer logic).

This bench runs the same search with 1 / 2 / 4 virtual workers on a
paper-scale task and reports anytime curves in *virtual wall-clock* time.
Shape claims:

* more workers reach any fixed error level no later (virtual speedup);
* the anytime average error over the virtual budget does not degrade;
* worker count never changes the *kind* of configs searched (the spaces
  and proposers are shared logic), only their timing.
"""

from __future__ import annotations

from _common import SCALE, make_case_study_dataset, save_text
from repro.bench import (
    SCALED_THRESHOLDS,
    anytime_average_error,
    best_so_far,
    format_ablation_curves,
    time_to_error,
)
from repro.core.controller import SearchController
from repro.core.registry import DEFAULT_LEARNERS
from repro.metrics import get_metric

VIRTUAL_BUDGET = 6.0 * SCALE
WORKERS = (1, 2, 4)


def run_parallel_sweep():
    data = make_case_study_dataset("adult-large").shuffled(0)
    metric = get_metric("auto", task=data.task)
    learners = {
        n: DEFAULT_LEARNERS[n] for n in ("lgbm", "xgboost", "rf")
    }
    out = {}
    for w in WORKERS:
        controller = SearchController(
            data, learners, metric,
            time_budget=VIRTUAL_BUDGET, n_workers=w, seed=0,
            init_sample_size=1000, max_iters=200, backend="virtual",
            **SCALED_THRESHOLDS,
        )
        out[w] = controller.run()
    return out


def test_parallel_workers(benchmark):
    results = benchmark.pedantic(run_parallel_sweep, rounds=1, iterations=1)
    curves = {f"{w} worker(s)": best_so_far(r.trials)
              for w, r in results.items()}
    lines = [format_ablation_curves(curves, "adult-large (virtual time)",
                                    "error"), ""]
    # pick the serial run's final error as the common target
    target = results[1].best_error * 1.02
    lines.append(f"time to reach error <= {target:.4f} (virtual seconds):")
    for w, r in results.items():
        t = time_to_error(r.trials, target)
        avg = anytime_average_error(r.trials, VIRTUAL_BUDGET)
        lines.append(
            f"  workers={w}:  time_to_target={t:7.2f}s  "
            f"anytime_avg={avg:.4f}  trials={r.n_trials}  "
            f"final={r.best_error:.4f}"
        )
    save_text("parallel_workers.txt", "\n".join(lines))

    # shape: 4 workers never reach the serial target later than 1 worker
    # does, within noise (ECI feedback is delayed under parallelism, so a
    # small overshoot is tolerated; a large one means the scheduler is
    # broken)
    t1 = time_to_error(results[1].trials, target)
    t4 = time_to_error(results[4].trials, target)
    assert t4 <= t1 * 1.5 + 0.5, f"4 workers slower than serial: {t4} vs {t1}"
    # every run produced a usable model and trial counts grow with workers
    for w, r in results.items():
        assert r.best_learner is not None
    assert results[4].n_trials >= results[1].n_trials


if __name__ == "__main__":  # pragma: no cover
    class _Noop:
        def pedantic(self, fn, rounds=1, iterations=1):
            return fn()

    test_parallel_workers(_Noop())
