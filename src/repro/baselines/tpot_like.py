"""TPOT-like baseline: genetic programming over learner/hyperparameter
genomes (related work §2).

A genome is (learner, unit-cube hyperparameter vector).  Each generation
evaluates a population on the full training data, keeps the fittest via
tournament selection, and produces offspring by gaussian mutation and
uniform crossover (within the same learner; cross-learner crossover picks
one parent's learner).  This reproduces TPOT's defining cost profile: a
full population evaluated per generation, with no notion of trial cost.
"""

from __future__ import annotations

import numpy as np

from ..core.controller import SearchResult
from ..data.dataset import Dataset
from ..metrics.registry import Metric
from .base import AutoMLSystem

__all__ = ["TPOTLike"]


class TPOTLike(AutoMLSystem):
    """Genetic-programming search over the joint learner/config space."""

    name = "TPOT"

    def __init__(
        self,
        population_size: int = 12,
        tournament_k: int = 3,
        mutation_sigma: float = 0.15,
        crossover_rate: float = 0.4,
        **kw,
    ) -> None:
        super().__init__(**kw)
        self.population_size = int(population_size)
        self.tournament_k = int(tournament_k)
        self.mutation_sigma = float(mutation_sigma)
        self.crossover_rate = float(crossover_rate)

    def search(self, data: Dataset, metric: Metric, time_budget: float,
               seed: int = 0) -> SearchResult:
        """Run the genetic-programming search within the budget."""
        rng = np.random.default_rng(seed)
        runner = self._runner(data, metric, time_budget, seed)
        spaces = {n: s.space_fn(data.n, data.task)
                  for n, s in runner.learners.items()}
        names = list(spaces)

        def random_genome():
            lname = names[int(rng.integers(0, len(names)))]
            return lname, spaces[lname].to_unit(spaces[lname].sample(rng))

        def evaluate(genome):
            lname, u = genome
            cfg = spaces[lname].from_unit(u)
            return runner.run_trial(lname, cfg)

        # generation 0
        population = [random_genome() for _ in range(self.population_size)]
        fitness = []
        for g in population:
            if runner.out_of_budget:
                break
            fitness.append(evaluate(g))
        while not runner.out_of_budget and fitness:
            # tournament selection
            def select():
                idx = rng.integers(0, len(fitness), size=min(self.tournament_k, len(fitness)))
                return population[int(idx[np.argmin([fitness[i] for i in idx])])]

            offspring = []
            while len(offspring) < self.population_size:
                p1 = select()
                if rng.random() < self.crossover_rate:
                    p2 = select()
                    lname = p1[0] if rng.random() < 0.5 else p2[0]
                    if p1[0] == p2[0]:
                        mask = rng.random(p1[1].size) < 0.5
                        u = np.where(mask, p1[1], p2[1])
                    else:
                        u = (p1 if lname == p1[0] else p2)[1].copy()
                else:
                    lname, u = p1[0], p1[1].copy()
                # gaussian mutation in the unit cube
                u = np.clip(
                    u + rng.standard_normal(u.size) * self.mutation_sigma, 0, 1
                )
                if rng.random() < 0.1:  # learner mutation
                    lname = names[int(rng.integers(0, len(names)))]
                    u = spaces[lname].to_unit(spaces[lname].sample(rng))
                offspring.append((lname, u))
            new_fit = []
            for g in offspring:
                if runner.out_of_budget:
                    break
                new_fit.append(evaluate(g))
            # elitist merge
            merged = list(zip(fitness, population)) + list(
                zip(new_fit, offspring[: len(new_fit)])
            )
            merged.sort(key=lambda t: t[0])
            merged = merged[: self.population_size]
            fitness = [f for f, _ in merged]
            population = [g for _, g in merged]
        return runner.result()
