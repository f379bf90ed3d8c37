"""Randomized factorial experiment plans.

Section V-A-1 of the paper reports that naive measurement loops on the
Snowball board are *unreproducible*: the OS reuses the same physical
pages within a run, so every sample in a run shares the same (possibly
pathological) page placement, and run-to-run behaviour diverges.  The
paper's remedy — "such benchmarks and auto-tuning methods need to be
thoroughly randomized to avoid experimental bias" — is what
:class:`ExperimentPlan` implements: full factorial designs with
replicates, executed in a seeded random order.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from typing import Any, Iterator, Mapping, Sequence

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class Factor:
    """One experimental factor and its levels.

    >>> Factor("array_size", [1024, 2048, 4096]).levels
    (1024, 2048, 4096)
    """

    name: str
    levels: tuple[Any, ...]

    def __init__(self, name: str, levels: Sequence[Any]) -> None:
        if not name:
            raise ConfigurationError("factor name must be non-empty")
        if not levels:
            raise ConfigurationError(f"factor {name!r} must have at least one level")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "levels", tuple(levels))


@dataclass(frozen=True)
class Trial:
    """One scheduled execution: a factor combination plus replicate index."""

    index: int
    factors: Mapping[str, Any]
    replicate: int


class ExperimentPlan:
    """A full factorial design with replicates and randomized order."""

    def __init__(
        self,
        factors: Sequence[Factor],
        *,
        replicates: int = 1,
        randomize: bool = True,
        seed: int = 0,
    ) -> None:
        if replicates < 1:
            raise ConfigurationError(f"replicates must be >= 1, got {replicates}")
        names = [f.name for f in factors]
        if len(set(names)) != len(names):
            raise ConfigurationError(f"duplicate factor names in {names}")
        self.factors = tuple(factors)
        self.replicates = replicates
        self.randomize = randomize
        self.seed = seed

    def combinations(self) -> list[dict[str, Any]]:
        """All factor combinations in deterministic (cartesian) order."""
        if not self.factors:
            return [{}]
        names = [f.name for f in self.factors]
        return [
            dict(zip(names, combo))
            for combo in itertools.product(*(f.levels for f in self.factors))
        ]

    def trials(self) -> list[Trial]:
        """The scheduled trials, in execution order.

        With ``randomize=True`` (the default, and the paper's
        recommendation) the order is a seeded shuffle of the full
        design, so replicates of one combination are interleaved with
        other combinations instead of running back-to-back.
        """
        scheduled = [
            (combo, rep)
            for combo in self.combinations()
            for rep in range(self.replicates)
        ]
        if self.randomize:
            random.Random(self.seed).shuffle(scheduled)
        return [
            Trial(index=i, factors=combo, replicate=rep)
            for i, (combo, rep) in enumerate(scheduled)
        ]

    def __len__(self) -> int:
        count = self.replicates
        for factor in self.factors:
            count *= len(factor.levels)
        return count

    def __iter__(self) -> Iterator[Trial]:
        return iter(self.trials())
