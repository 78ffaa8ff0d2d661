"""Suite runner: execute AutoML systems over datasets, budgets and folds,
and score the resulting models the way the benchmark does (§5).

Scaling note (DESIGN.md §2): the suite datasets are ~50x smaller (rows capped to the 1k-8k range) than the
originals and budgets are seconds rather than minutes, so the resampling
thresholds default to scaled values (2 500 instances instead of 100 000;
the rate threshold keeps the paper's 10M/hour because both numerator and
denominator shrink together).
"""

from __future__ import annotations

import time
import zlib
from dataclasses import dataclass, field

import numpy as np

from ..baselines import (
    BOHB,
    AutoMLSystem,
    AutoSklearnLike,
    CloudAutoMLLike,
    FLAMLSystem,
    H2OLike,
    TPOTLike,
)
from ..core.controller import SearchResult
from ..core.evaluate import _make_estimator
from ..core.registry import all_learners
from ..data.dataset import Dataset
from ..data.suite import SUITE
from ..metrics.registry import get_metric
from .scaled_score import (
    constant_predictor_score,
    raw_score,
    rf_reference_score,
    scale_score,
)

__all__ = ["RunRecord", "ComparisonHarness", "default_systems", "SCALED_THRESHOLDS"]

#: resampling thresholds matched to the suite's ~50x downscaling
SCALED_THRESHOLDS = dict(
    cv_instance_threshold=2_500,
    cv_rate_threshold=10e6 / 3600.0,
)


def default_systems(
    flaml_init_sample: int = 250, include: tuple[str, ...] | None = None,
    n_workers: int = 1, backend: str | None = None,
) -> dict[str, AutoMLSystem]:
    """The paper's §5.1 roster, configured for the scaled suite.

    ``n_workers``/``backend`` configure FLAML's trial-execution engine
    (the baselines run one trial at a time on the serial executor — they
    have no parallel story to reproduce), e.g. ``n_workers=4,
    backend="process"`` benchmarks the multi-core search.
    """
    roster: dict[str, AutoMLSystem] = {
        "FLAML": FLAMLSystem(init_sample_size=flaml_init_sample,
                             n_workers=n_workers, backend=backend,
                             **SCALED_THRESHOLDS),
        "Auto-sklearn": AutoSklearnLike(**SCALED_THRESHOLDS),
        "Cloud-automl": CloudAutoMLLike(startup_overhead=0.5, **SCALED_THRESHOLDS),
        "HpBandSter": BOHB(min_sample=flaml_init_sample, **SCALED_THRESHOLDS),
        "H2OAutoML": H2OLike(**SCALED_THRESHOLDS),
        "TPOT": TPOTLike(**SCALED_THRESHOLDS),
    }
    if include is not None:
        roster = {k: v for k, v in roster.items() if k in include}
    return roster


@dataclass
class RunRecord:
    """One (dataset, system, budget, fold) experiment outcome."""

    dataset: str
    task: str
    system: str
    budget: float
    fold: int
    raw_score: float
    scaled_score: float
    best_error: float
    n_trials: int
    wall_time: float
    result: SearchResult | None = field(default=None, repr=False)


def fit_final_model(train: Dataset, result: SearchResult, seed: int = 0,
                    time_limit: float | None = None):
    """Retrain a SearchResult's best configuration on the full train fold."""
    if result.best_learner is None:
        return None
    spec = all_learners()[result.best_learner]
    model = _make_estimator(
        spec.estimator_cls(train.task), result.best_config, seed, time_limit
    )
    model.fit(train.X, train.y)
    return model


class ComparisonHarness:
    """Run many systems over suite datasets and produce scored records."""

    def __init__(
        self,
        systems: dict[str, AutoMLSystem] | None = None,
        budgets: tuple[float, ...] = (1.0, 3.0),
        n_folds: int = 1,
        seed: int = 0,
        rf_time_limit: float = 15.0,
        keep_results: bool = False,
    ) -> None:
        self.systems = systems or default_systems()
        self.budgets = tuple(budgets)
        self.n_folds = int(n_folds)
        self.seed = int(seed)
        self.rf_time_limit = float(rf_time_limit)
        self.keep_results = bool(keep_results)

    # ------------------------------------------------------------------
    def run_dataset(self, name: str, dataset: Dataset | None = None) -> list[RunRecord]:
        """All (system, budget, fold) runs for one dataset."""
        data = dataset if dataset is not None else SUITE[name].load()
        metric = get_metric("auto", task=data.task)
        records: list[RunRecord] = []
        # 10 outer folds like the benchmark's OpenML splits (train = 90%);
        # quick mode just evaluates the first fold(s)
        folds = data.outer_folds(max(self.n_folds, 10), seed=self.seed)[: self.n_folds]
        for fold_id, (train, test) in enumerate(folds):
            const = constant_predictor_score(train, test)
            rf = rf_reference_score(
                train, test, seed=self.seed, train_time_limit=self.rf_time_limit
            )
            train_sh = train.shuffled(self.seed)
            for budget in self.budgets:
                for sys_name, system in self.systems.items():
                    t0 = time.perf_counter()
                    # per-system seed offset (stable across processes):
                    # otherwise systems that start with uniform random
                    # sampling draw identical configs
                    sys_seed = self.seed + fold_id + (
                        zlib.crc32(sys_name.encode()) & 0xFFFF
                    )
                    result = system.search(
                        train_sh, metric, time_budget=budget, seed=sys_seed,
                    )
                    model = fit_final_model(
                        train_sh, result, seed=self.seed,
                        time_limit=max(budget, 1.0),
                    )
                    if model is None:
                        raw = const
                    else:
                        raw = raw_score(train, test, model)
                    records.append(
                        RunRecord(
                            dataset=name,
                            task=data.task,
                            system=sys_name,
                            budget=budget,
                            fold=fold_id,
                            raw_score=raw,
                            scaled_score=scale_score(raw, const, rf),
                            best_error=result.best_error,
                            n_trials=result.n_trials,
                            wall_time=time.perf_counter() - t0,
                            result=result if self.keep_results else None,
                        )
                    )
        return records

    def run(self, names: list[str]) -> list[RunRecord]:
        """Run every configured system over the named datasets."""
        out: list[RunRecord] = []
        for name in names:
            out.extend(self.run_dataset(name))
        return out


def score_table(records: list[RunRecord]) -> dict[float, dict[str, dict[str, float]]]:
    """records -> {budget: {dataset: {system: mean scaled score}}}."""
    table: dict[float, dict[str, dict[str, list[float]]]] = {}
    for r in records:
        table.setdefault(r.budget, {}).setdefault(r.dataset, {}).setdefault(
            r.system, []
        ).append(r.scaled_score)
    return {
        b: {d: {s: float(np.mean(v)) for s, v in sys.items()} for d, sys in ds.items()}
        for b, ds in table.items()
    }
