"""Step 0: the resampling-strategy proposer (paper §4.2).

A simple thresholding rule implementing Property 2 (Resample):
cross-validation when the data is small or the budget generous, holdout
otherwise.  The paper's thresholds are "fewer than 100K instances" and
"#instances x #features / budget < 10M per hour"; both are exposed as
parameters so the scaled-down benchmark suite can scale them too
(DESIGN.md §2).

Forecasting tasks get a third strategy, ``"temporal"``: rolling-origin
cross-validation via :class:`TemporalSplitter`, whose folds train
strictly on the past and validate strictly on the future — random
k-fold or holdout splits would leak future values into training.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = [
    "choose_resampling",
    "resolve_resampling",
    "TemporalSplitter",
    "PAPER_INSTANCE_THRESHOLD",
    "PAPER_RATE_THRESHOLD",
]

PAPER_INSTANCE_THRESHOLD = 100_000
#: 10M per hour, expressed per second
PAPER_RATE_THRESHOLD = 10e6 / 3600.0


def choose_resampling(
    n_instances: int,
    n_features: int,
    budget: float,
    instance_threshold: int = PAPER_INSTANCE_THRESHOLD,
    rate_threshold: float = PAPER_RATE_THRESHOLD,
) -> str:
    """Return ``"cv"`` or ``"holdout"`` via the paper's thresholding rule."""
    if budget <= 0:
        raise ValueError(f"budget must be positive, got {budget}")
    if n_instances < instance_threshold and (
        n_instances * n_features / budget < rate_threshold
    ):
        return "cv"
    return "holdout"


def resolve_resampling(
    n_instances: int,
    n_features: int,
    task: str,
    budget: float,
    override: str | None = None,
    instance_threshold: int = PAPER_INSTANCE_THRESHOLD,
    rate_threshold: float = PAPER_RATE_THRESHOLD,
    horizon: int = 1,
) -> tuple[str, int]:
    """Step 0 as the controller runs it: ``(strategy, full_size)``.

    An explicit ``override`` wins; forecast tasks always use
    rolling-origin temporal CV (random splits would train on the
    future); everything else goes through the paper's thresholding rule.
    ``full_size`` is the sample-size ceiling the search threads grow
    toward — under temporal CV the largest fold trains on at most
    ``n - horizon`` rows, so growing past that would only re-run
    identical trials and burn budget on cache hits.
    """
    if override is not None:
        strategy = override
    elif task == "forecast":
        strategy = "temporal"
    else:
        strategy = choose_resampling(
            n_instances, n_features, budget,
            instance_threshold=instance_threshold,
            rate_threshold=rate_threshold,
        )
    full_size = (
        max(1, n_instances - max(1, int(horizon)))
        if strategy == "temporal" else n_instances
    )
    return strategy, full_size


@dataclass(frozen=True)
class TemporalSplitter:
    """Rolling-origin (expanding-window) CV for ordered series.

    ``split(n)`` yields ``n_splits`` folds over row indices ``0..n-1``.
    The validation windows are the last ``n_splits * horizon`` indices in
    consecutive blocks of ``horizon``; each fold trains on *every* index
    before its validation block.  Two invariants hold by construction
    (and are property-tested):

    * **no leakage** — ``max(train) < min(test)`` in every fold;
    * **tail coverage** — the fold validation blocks tile the series
      tail exactly, ending at index ``n - 1``.
    """

    n_splits: int = 5
    horizon: int = 1
    min_train: int = 1

    def __post_init__(self) -> None:
        if self.n_splits < 1:
            raise ValueError(f"n_splits must be >= 1, got {self.n_splits}")
        if self.horizon < 1:
            raise ValueError(f"horizon must be >= 1, got {self.horizon}")
        if self.min_train < 1:
            raise ValueError(f"min_train must be >= 1, got {self.min_train}")

    def split(self, n: int) -> list[tuple[np.ndarray, np.ndarray]]:
        """(train, validation) index arrays for a series of length ``n``.

        Memoized per (n_splits, horizon, min_train, n): a 500-trial
        forecast search re-splits the same series once per trial, so the
        index arrays are computed exactly once and shared read-only.
        """
        n = int(n)
        needed = self.n_splits * self.horizon + self.min_train
        if n < needed:
            raise ValueError(
                f"series of length {n} cannot support {self.n_splits} "
                f"rolling-origin folds of horizon {self.horizon} with at "
                f"least {self.min_train} training rows (needs >= {needed})"
            )
        return list(_temporal_folds(self.n_splits, self.horizon, n))


@lru_cache(maxsize=256)
def _temporal_folds(n_splits: int, horizon: int, n: int):
    """Shared (train, validation) arrays behind TemporalSplitter.split."""
    out = []
    for i in range(n_splits):
        test_start = n - (n_splits - i) * horizon
        tr = np.arange(0, test_start)
        va = np.arange(test_start, test_start + horizon)
        tr.flags.writeable = False
        va.flags.writeable = False
        out.append((tr, va))
    return tuple(out)
