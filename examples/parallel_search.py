"""Parallel search threads (paper appendix) — virtual and real workers.

"When abundant cores are available ... we can sample another learner by
ECI, and so on."  SearchController keeps up to n_workers trials in
flight through the pluggable execution engine (repro.exec):

* backend="serial"/"thread"/"process" runs trials on the wall clock —
  thread and process pools genuinely overlap them — and commits
  completions in launch order, so logs stay reproducible;
* backend="virtual" (opt-in) simulates n_workers on a virtual clock:
  each trial runs inline and commits at its virtual finish time, so more
  workers complete more trials within the same virtual budget;
* every backend shares the LRU trial cache, so duplicate proposals
  (frequent on integer-valued search spaces) cost nothing.

Run:  python examples/parallel_search.py
"""

from repro.bench import best_so_far
from repro.core.controller import SearchController
from repro.core.registry import DEFAULT_LEARNERS
from repro.data import make_classification
from repro.metrics import get_metric

data = make_classification(6000, 10, structure="nonlinear", seed=5,
                           name="parallel-demo").shuffled(0)
metric = get_metric("auto", task=data.task)
learners = {n: DEFAULT_LEARNERS[n] for n in ("lgbm", "xgboost", "rf", "lrl1")}

print("virtual workers (simulated clock):")
print(f"{'workers':>8}{'trials':>8}{'cache hits':>12}{'best error':>12}"
      f"{'virtual time':>14}")
for n_workers in (1, 2, 4):
    ctl = SearchController(
        data, learners, metric,
        time_budget=3.0, n_workers=n_workers, seed=0,
        init_sample_size=500, cv_instance_threshold=2500,
        backend="virtual",
    )
    res = ctl.run()
    print(f"{n_workers:>8}{res.n_trials:>8}{res.cache_hits:>12}"
          f"{res.best_error:>12.4f}{res.wall_time:>13.2f}s")

print("\nreal execution backends (same budget, wall clock):")
print(f"{'backend':>8}{'workers':>8}{'trials':>8}{'best error':>12}"
      f"{'wall time':>12}")
for backend, n_workers in (("serial", 1), ("thread", 2), ("process", 2)):
    ctl = SearchController(
        data, learners, metric,
        time_budget=3.0, n_workers=n_workers, seed=0,
        init_sample_size=500, cv_instance_threshold=2500,
        backend=backend,
    )
    res = ctl.run()
    print(f"{backend:>8}{n_workers:>8}{res.n_trials:>8}"
          f"{res.best_error:>12.4f}{res.wall_time:>11.2f}s")

print("\nanytime curve with 4 virtual workers (virtual time, best error):")
ctl = SearchController(
    data, learners, metric, time_budget=3.0, n_workers=4, seed=0,
    init_sample_size=500, cv_instance_threshold=2500, backend="virtual",
)
res = ctl.run()
last = None
for t, e in best_so_far(res.trials):
    if e != last:
        print(f"  t={t:5.2f}s  error={e:.4f}")
        last = e
