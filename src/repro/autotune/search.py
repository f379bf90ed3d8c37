"""Search strategies over parameter spaces.

The paper's §V-A lesson applies here: on ARM, performance landscapes
are rugged enough that tuners "may have to explore more systematically
parameter space, rather than being guided by developers' intuition" —
hence an exhaustive strategy as ground truth, plus cheaper random and
hill-climbing strategies whose quality the benches compare against it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro.autotune.space import ParameterSpace, Point
from repro.errors import SearchError
from repro.metrics.registry import current_registry

Objective = Callable[[Mapping[str, Any]], float]


@dataclass
class SearchResult:
    """Outcome of one search: the minimizer found and the trajectory.

    ``evaluations`` counts *unique* points whose objective was computed
    (``history`` records exactly those, in evaluation order);
    ``total_calls`` counts every objective request the strategy made,
    including revisits served from the memo.  A hill-climb that keeps
    re-probing known neighbors therefore reports its real work in
    ``total_calls`` instead of silently folding it into ``evaluations``.
    """

    best_point: Point
    best_value: float
    evaluations: int
    history: list[tuple[Point, float]] = field(default_factory=list)
    total_calls: int = 0

    @property
    def memo_hits(self) -> int:
        """Objective requests answered without recomputation."""
        return self.total_calls - self.evaluations


class SearchStrategy:
    """Interface: minimize an objective over a space."""

    name = "search"

    def minimize(self, objective: Objective, space: ParameterSpace) -> SearchResult:
        """Return the best point found."""
        raise NotImplementedError


class _Evaluator:
    """Memoizing objective wrapper shared by the strategies."""

    def __init__(self, objective: Objective, space: ParameterSpace) -> None:
        self.objective = objective
        self.space = space
        self.cache: dict[tuple, float] = {}
        self.history: list[tuple[Point, float]] = []
        self.calls = 0

    def __call__(self, point: Point) -> float:
        self.space.validate(point)
        self.calls += 1
        key = tuple(sorted((k, repr(v)) for k, v in point.items()))
        if key in self.cache:
            return self.cache[key]
        value = float(self.objective(point))
        self.cache[key] = value
        self.history.append((dict(point), value))
        return value

    @property
    def evaluations(self) -> int:
        return len(self.cache)

    def result(self) -> SearchResult:
        if not self.history:
            raise SearchError("search evaluated no points")
        # One flush per search: real objective work vs. requests served
        # by the memo.
        metrics = current_registry()
        metrics.inc("autotune.searches", 1)
        metrics.inc("autotune.evaluations", self.evaluations)
        metrics.inc("autotune.memo_hits", self.calls - self.evaluations)
        best_point, best_value = min(self.history, key=lambda item: item[1])
        return SearchResult(
            best_point=dict(best_point),
            best_value=best_value,
            evaluations=self.evaluations,
            history=self.history,
            total_calls=self.calls,
        )


class ExhaustiveSearch(SearchStrategy):
    """Evaluate every point — the ground truth the paper's harness used
    for the 12 magicfilter variants."""

    name = "exhaustive"

    def minimize(self, objective: Objective, space: ParameterSpace) -> SearchResult:
        """Visit the whole space."""
        evaluator = _Evaluator(objective, space)
        for point in space:
            evaluator(point)
        return evaluator.result()


class RandomSearch(SearchStrategy):
    """Uniform random sampling with a fixed evaluation budget."""

    name = "random"

    def __init__(self, budget: int, *, seed: int = 0) -> None:
        if budget < 1:
            raise SearchError(f"budget must be >= 1, got {budget}")
        self.budget = budget
        self.seed = seed

    def minimize(self, objective: Objective, space: ParameterSpace) -> SearchResult:
        """Sample *budget* random points (with replacement)."""
        rng = random.Random(self.seed)
        evaluator = _Evaluator(objective, space)
        for _ in range(self.budget):
            evaluator(space.random_point(rng))
        return evaluator.result()


class HillClimbSearch(SearchStrategy):
    """Steepest-descent local search with random restarts.

    Works well on the convex-ish landscapes of Figure 7, but restarts
    guard against the staircases that make pure descent stall.
    """

    name = "hill-climb"

    def __init__(self, *, restarts: int = 3, seed: int = 0) -> None:
        if restarts < 1:
            raise SearchError(f"restarts must be >= 1, got {restarts}")
        self.restarts = restarts
        self.seed = seed

    def minimize(self, objective: Objective, space: ParameterSpace) -> SearchResult:
        """Descend from *restarts* random starting points."""
        rng = random.Random(self.seed)
        evaluator = _Evaluator(objective, space)
        for _ in range(self.restarts):
            current = space.random_point(rng)
            current_value = evaluator(current)
            while True:
                neighbors = space.neighbors(current)
                candidates = [(evaluator(n), n) for n in neighbors]
                best_value, best_neighbor = min(candidates, key=lambda c: c[0])
                if best_value >= current_value:
                    break
                current, current_value = best_neighbor, best_value
        return evaluator.result()
