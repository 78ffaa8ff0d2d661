"""Gaussian-process Bayesian optimisation with EI and EIperSec acquisition.

The paper (§4.2, step 1) discusses Snoek et al.'s *Expected Improvement
per Second* — a cost-aware acquisition for BO — and argues it is designed
for a different context (within-model hyperparameter tuning) and "not
applicable to our goal of learner selection".  This baseline makes that
comparison concrete: a GP surrogate over each learner's unit cube with

* ``acquisition='ei'``       — classic expected improvement, and
* ``acquisition='ei_per_sec'`` — EI divided by a predicted cost (a second
  GP fitted to log trial cost),

with learners picked by the best acquisition value across models.  Exact
GP regression (RBF kernel, Cholesky) is used; trial counts in FLAML-scale
budgets are small enough that O(n^3) is irrelevant.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import cho_factor, cho_solve
from scipy.stats import norm

from ..core.controller import SearchResult
from ..core.space import SearchSpace
from ..data.dataset import Dataset
from ..metrics.registry import Metric
from .base import AutoMLSystem

__all__ = ["GPRegressor", "GPEIBaseline"]


class GPRegressor:
    """Minimal exact GP with an RBF kernel and white noise."""

    def __init__(self, length_scale: float = 0.3, noise: float = 1e-3) -> None:
        self.length_scale = float(length_scale)
        self.noise = float(noise)
        self._X: np.ndarray | None = None

    def _kernel(self, A: np.ndarray, B: np.ndarray) -> np.ndarray:
        d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
        return np.exp(-0.5 * d2 / self.length_scale**2)

    def fit(self, X: np.ndarray, y: np.ndarray) -> "GPRegressor":
        """Fit the GP to (X, y); y is standardised internally."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        y = np.asarray(y, dtype=np.float64)
        self._ymu = float(y.mean())
        self._ysd = float(y.std()) or 1.0
        yn = (y - self._ymu) / self._ysd
        K = self._kernel(X, X) + self.noise * np.eye(X.shape[0])
        self._chol = cho_factor(K, lower=True)
        self._alpha = cho_solve(self._chol, yn)
        self._X = X
        return self

    def predict(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Posterior mean and standard deviation at X."""
        if self._X is None:
            raise RuntimeError("GP not fitted")
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Ks = self._kernel(X, self._X)
        mu = Ks @ self._alpha
        v = cho_solve(self._chol, Ks.T)
        var = np.maximum(1.0 - (Ks * v.T).sum(axis=1), 1e-12)
        return mu * self._ysd + self._ymu, np.sqrt(var) * self._ysd


def expected_improvement(mu: np.ndarray, sd: np.ndarray, best: float) -> np.ndarray:
    """EI for *minimisation*: E[max(best - f, 0)]."""
    z = (best - mu) / sd
    return (best - mu) * norm.cdf(z) + sd * norm.pdf(z)


class GPEIBaseline(AutoMLSystem):
    """GP-BO over FLAML's spaces with EI or EIperSec acquisition."""

    def __init__(self, acquisition: str = "ei", n_candidates: int = 50,
                 n_init: int = 3, **kw) -> None:
        if acquisition not in ("ei", "ei_per_sec"):
            raise ValueError(f"unknown acquisition {acquisition!r}")
        super().__init__(**kw)
        self.acquisition = acquisition
        self.n_candidates = int(n_candidates)
        self.n_init = int(n_init)
        self.name = "GP-EI" if acquisition == "ei" else "GP-EIperSec"

    def search(self, data: Dataset, metric: Metric, time_budget: float,
               seed: int = 0) -> SearchResult:
        """Run GP-BO with the configured acquisition within the budget."""
        rng = np.random.default_rng(seed)
        runner = self._runner(data, metric, time_budget, seed)
        spaces: dict[str, SearchSpace] = {
            n: s.space_fn(data.n, data.task)
            for n, s in runner.learners.items()
        }
        obs: dict[str, list[tuple[np.ndarray, float, float]]] = {
            n: [] for n in spaces
        }
        names = list(spaces)

        def record(lname, u, cfg):
            err = runner.run_trial(lname, cfg)
            cost = runner.trials[-1].cost
            if np.isfinite(err):
                obs[lname].append((u, err, cost))

        # initial random design per learner
        for lname in names:
            for _ in range(self.n_init):
                if runner.out_of_budget:
                    break
                cfg = spaces[lname].sample(rng)
                record(lname, spaces[lname].to_unit(cfg), cfg)

        while not runner.out_of_budget:
            best_overall = runner.best_error
            best_choice = None  # (acq_value, lname, unit_point)
            for lname in names:
                pts = obs[lname]
                if len(pts) < 2:
                    u = spaces[lname].to_unit(spaces[lname].sample(rng))
                    best_choice = (np.inf, lname, u)
                    break
                X = np.stack([p[0] for p in pts])
                errs = np.array([p[1] for p in pts])
                gp = GPRegressor().fit(X, errs)
                cands = rng.random((self.n_candidates, spaces[lname].dim))
                mu, sd = gp.predict(cands)
                acq = expected_improvement(mu, sd, min(best_overall, errs.min()))
                if self.acquisition == "ei_per_sec":
                    costs = np.log(np.maximum([p[2] for p in pts], 1e-6))
                    gp_cost = GPRegressor().fit(X, np.asarray(costs))
                    mu_c, _ = gp_cost.predict(cands)
                    acq = acq / np.exp(mu_c)
                j = int(np.argmax(acq))
                if best_choice is None or acq[j] > best_choice[0]:
                    best_choice = (float(acq[j]), lname, cands[j])
            _, lname, u = best_choice
            record(lname, u, spaces[lname].from_unit(u))
        return runner.result()
