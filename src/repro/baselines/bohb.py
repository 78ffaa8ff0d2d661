"""HpBandSter-like baseline: BOHB = Bayesian optimisation + Hyperband.

As in the paper's comparison (§5), this system shares **FLAML's exact
search space and resampling strategy** — it differs only in search order:

* learner choice + hyperparameters are proposed jointly (a TPE model per
  learner, learner picked round-robin weighted by its observation count
  like BOHB's multi-KDE), with *no* cost-aware start — configs anywhere in
  the space can be proposed at any time, which is exactly the behaviour
  Figure 1/Table 3 contrast against FLAML;
* Hyperband runs over the sample-size fidelity: brackets of successive
  halving with factor ``eta`` starting from ``n / eta^s_max``.
"""

from __future__ import annotations

import numpy as np

from ..core.controller import SearchResult
from ..data.dataset import Dataset
from ..metrics.registry import Metric
from .base import AutoMLSystem
from .tpe import TPESampler

__all__ = ["BOHB"]


class BOHB(AutoMLSystem):
    """BOHB over FLAML's joint (learner, hyperparameter, sample-size) space."""

    name = "HpBandSter"

    def __init__(self, eta: int = 3, s_max: int = 3, min_sample: int = 100,
                 **kw) -> None:
        super().__init__(**kw)
        self.eta = int(eta)
        self.s_max = int(s_max)
        self.min_sample = int(min_sample)

    def search(self, data: Dataset, metric: Metric, time_budget: float,
               seed: int = 0) -> SearchResult:
        """Run BOHB (TPE + Hyperband brackets) within the budget."""
        rng = np.random.default_rng(seed)
        runner = self._runner(data, metric, time_budget, seed)
        samplers = {
            name: TPESampler(spec.space_fn(data.n, data.task), rng)
            for name, spec in runner.learners.items()
        }
        names = list(samplers)

        # Hyperband brackets, cycled until the budget is exhausted.
        bracket = self.s_max
        while not runner.out_of_budget:
            s = bracket
            n_configs = max(1, int(np.ceil((self.s_max + 1) / (s + 1) * self.eta**s)))
            size = max(self.min_sample, int(data.n / self.eta**s))
            # sample initial rung configs (joint learner choice uniform —
            # BOHB's model has no notion of learner cost)
            rung = []
            for _ in range(n_configs):
                lname = names[int(rng.integers(0, len(names)))]
                rung.append((lname, samplers[lname].propose()))
            while rung and not runner.out_of_budget:
                scored = []
                for lname, cfg in rung:
                    if runner.out_of_budget:
                        break
                    err = runner.run_trial(lname, cfg, sample_size=min(size, data.n))
                    samplers[lname].observe(cfg, err)
                    scored.append((err, lname, cfg))
                # successive halving: keep the top 1/eta at eta x the size
                size *= self.eta
                if size >= data.n and rung and scored:
                    # top configs get one full-size evaluation, then the rung ends
                    scored.sort(key=lambda t: t[0])
                    keep = scored[: max(1, len(scored) // self.eta)]
                    for err, lname, cfg in keep:
                        if runner.out_of_budget:
                            break
                        e = runner.run_trial(lname, cfg, sample_size=data.n)
                        samplers[lname].observe(cfg, e)
                    break
                scored.sort(key=lambda t: t[0])
                rung = [(l, c) for _, l, c in scored[: max(1, len(scored) // self.eta)]]
            bracket = bracket - 1 if bracket > 0 else self.s_max
        return runner.result()
