"""Genetic-algorithm search.

The paper's memory-kernel reference [14] (Tikir et al., SC'07) models
memory-bound performance with a genetic algorithm; this strategy
brings the same machinery to the tuning framework: tournament
selection, uniform crossover, per-dimension mutation, elitism.
"""

from __future__ import annotations

import random

from repro.autotune.search import Objective, SearchResult, SearchStrategy, _Evaluator
from repro.autotune.space import ParameterSpace, Point
from repro.errors import SearchError


class GeneticSearch(SearchStrategy):
    """A small steady-state GA over a discrete space."""

    name = "genetic"

    def __init__(
        self,
        *,
        population: int = 12,
        generations: int = 10,
        mutation_rate: float = 0.25,
        elite: int = 2,
        seed: int = 0,
    ) -> None:
        if population < 2:
            raise SearchError(f"population must be >= 2, got {population}")
        if generations < 1:
            raise SearchError(f"generations must be >= 1, got {generations}")
        if not 0.0 <= mutation_rate <= 1.0:
            raise SearchError(f"mutation_rate must be in [0, 1], got {mutation_rate}")
        if not 0 <= elite < population:
            raise SearchError(f"elite must be in [0, population), got {elite}")
        self.population = population
        self.generations = generations
        self.mutation_rate = mutation_rate
        self.elite = elite
        self.seed = seed

    def _tournament(
        self,
        rng: random.Random,
        scored: list[tuple[float, Point]],
    ) -> Point:
        a, b = rng.sample(range(len(scored)), 2)
        return scored[min(a, b)][1]  # scored is sorted: lower index = fitter

    def minimize(self, objective: Objective, space: ParameterSpace) -> SearchResult:
        """Evolve a population of points toward the minimum."""
        rng = random.Random(self.seed)
        evaluator = _Evaluator(objective, space)

        individuals = [space.random_point(rng) for _ in range(self.population)]
        for _ in range(self.generations):
            scored = sorted(
                ((evaluator(p), p) for p in individuals), key=lambda item: item[0]
            )
            next_generation: list[Point] = [
                dict(p) for _, p in scored[: self.elite]
            ]
            while len(next_generation) < self.population:
                parent_a = self._tournament(rng, scored)
                parent_b = self._tournament(rng, scored)
                child = space.crossover(parent_a, parent_b, rng)
                if rng.random() < self.mutation_rate:
                    child = space.mutate(child, rng)
                next_generation.append(child)
            individuals = next_generation
        for individual in individuals:
            evaluator(individual)
        return evaluator.result()
