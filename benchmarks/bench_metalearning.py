"""Future-work extension bench: meta-learning portfolio warm starts (§6).

The paper names meta-learning in FLAML's cost-optimising framework as
future work.  DESIGN.md's extension implements it as per-learner FLOW2
starting points retrieved by nearest-neighbour search over dataset
meta-features (``repro.core.metalearning``).  This bench quantifies the
effect the way the paper's own ablations do — anytime error curves on
held-out tasks — and checks the robustness claim that motivated leaving
meta-learning out: the warm start must *help or tie*, never wreck the
cold-start behaviour, because it only moves the search's initial point.
"""

from __future__ import annotations

import numpy as np

from _common import SCALE, save_text
from repro.baselines import FLAMLSystem
from repro.bench import SCALED_THRESHOLDS, best_so_far, format_ablation_curves
from repro.core.metalearning import build_portfolio
from repro.data import load_dataset, suite_names
from repro.metrics import get_metric

BUDGET = 4.0 * SCALE
CORPUS_BUDGET = 3.0 * SCALE
KW = dict(init_sample_size=1000, **SCALED_THRESHOLDS)

#: offline corpus / held-out split: small+mid binary tasks train the
#: portfolio, different binary tasks evaluate it
CORPUS = ["blood-transfusion", "phoneme", "kc1", "sylvine"]
HELD_OUT = ["credit-g", "kr-vs-kp", "adult"]


class WarmFLAML(FLAMLSystem):
    """FLAML with portfolio starting points injected per dataset."""

    name = "FLAML+meta"

    def __init__(self, portfolio, **kw):
        super().__init__(name="FLAML+meta", **kw)
        self.portfolio = portfolio

    def search(self, data, metric, time_budget, seed=0):
        from repro.core.controller import SearchController

        controller = SearchController(
            data,
            self._learners(data.task),
            metric,
            time_budget=time_budget,
            seed=seed,
            init_sample_size=self.init_sample_size,
            sample_growth=self.sample_growth,
            cv_instance_threshold=self.cv_instance_threshold,
            cv_rate_threshold=self.cv_rate_threshold,
            starting_points=self.portfolio.suggest(data, k=3),
        )
        return controller.run()


def run_metalearning():
    corpus = [(n, load_dataset(n).shuffled(0)) for n in CORPUS]
    portfolio = build_portfolio(
        corpus, time_budget=CORPUS_BUDGET, init_sample_size=1000
    )
    out = {}
    for name in HELD_OUT:
        data = load_dataset(name).shuffled(0)
        metric = get_metric("auto", task=data.task)
        cold = FLAMLSystem(**KW).search(data, metric, BUDGET, seed=0)
        warm = WarmFLAML(portfolio, **KW).search(data, metric, BUDGET, seed=0)
        out[name] = {"cold": cold, "warm": warm}
    return out


def test_metalearning_warm_start(benchmark):
    results = benchmark.pedantic(run_metalearning, rounds=1, iterations=1)
    lines = []
    wins, ties, losses = 0, 0, 0
    for name, r in results.items():
        curves = {k: best_so_far(v.trials) for k, v in r.items()}
        lines.append(format_ablation_curves(curves, name, "error"))
        cold, warm = r["cold"].best_error, r["warm"].best_error
        rel = (cold - warm) / max(cold, 1e-12)
        verdict = "warm" if rel > 0.01 else ("tie" if rel > -0.05 else "cold")
        wins += verdict == "warm"
        ties += verdict == "tie"
        losses += verdict == "cold"
        lines.append(
            f"  {name:<14} cold {cold:.4f}  warm {warm:.4f}  -> {verdict}"
        )
        # anytime view: error of the best model at 1/4 of the budget
        for k, v in r.items():
            early = [t.error for t in v.trials if t.automl_time <= BUDGET / 4]
            if early:
                lines.append(f"    {k:>5} @ budget/4: {np.min(early):.4f}")
    lines.append(f"\nsummary over {len(results)} held-out tasks: "
                 f"{wins} warm wins, {ties} ties, {losses} regressions")
    save_text("metalearning_warm_start.txt", "\n".join(lines))

    # Shape claim: warm starts never wreck robustness — at most a mild
    # regression on a minority of tasks (the §6 concern this design answers).
    assert losses <= len(results) // 2, (
        f"warm start regressed on {losses}/{len(results)} tasks"
    )


if __name__ == "__main__":  # pragma: no cover
    class _Noop:
        def pedantic(self, fn, rounds=1, iterations=1):
            return fn()

    test_metalearning_warm_start(_Noop())
