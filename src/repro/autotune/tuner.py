"""The two-level auto-tuner of §VI-B.

"Two levels of auto-tuning can be considered: *platform specific
tuning* [...] run at the compilation of the program on the target
platform (static auto-tuning) [and] *instance specific tuning* [...]
some good optimization parameters depend on the problem size."

:class:`AutoTuner` implements both: :meth:`AutoTuner.tune_static`
searches once per platform; :meth:`AutoTuner.tune_instance` keys the
search (and its cache — the runtime-compilation analogue) by a problem
descriptor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Hashable, Mapping

from repro.arch.cpu import MachineModel
from repro.autotune.search import ExhaustiveSearch, SearchResult, SearchStrategy
from repro.autotune.space import ParameterSpace, Point
from repro.errors import SearchError
from repro.kernels.magicfilter import UNROLL_RANGE, MagicFilterBenchmark

#: An objective builder: problem instance -> objective over points.
ObjectiveFactory = Callable[[Any], Callable[[Mapping[str, Any]], float]]


@dataclass(frozen=True)
class TuningReport:
    """One completed tuning run."""

    level: str  # "static" or "instance"
    platform: str
    instance: Hashable | None
    result: SearchResult

    @property
    def best_point(self) -> Point:
        """The tuned configuration."""
        return self.result.best_point


@dataclass
class AutoTuner:
    """Search-driven kernel tuner bound to one parameter space."""

    space: ParameterSpace
    strategy: SearchStrategy = field(default_factory=ExhaustiveSearch)
    _instance_cache: dict[Hashable, TuningReport] = field(
        default_factory=dict, repr=False
    )

    def tune_static(
        self,
        platform: str,
        objective: Callable[[Mapping[str, Any]], float],
    ) -> TuningReport:
        """Platform-specific (build-time) tuning: one search, one result."""
        result = self.strategy.minimize(objective, self.space)
        return TuningReport(
            level="static", platform=platform, instance=None, result=result
        )

    def tune_instance(
        self,
        platform: str,
        instance: Hashable,
        objective_factory: ObjectiveFactory,
    ) -> TuningReport:
        """Instance-specific (run-time) tuning, cached per instance.

        The cache plays the role of the JIT-compiled-kernel cache the
        paper describes for OpenCL: the first occurrence of a problem
        size pays the search, later ones reuse the tuned kernel.
        """
        key = (platform, instance)
        cached = self._instance_cache.get(key)
        if cached is not None:
            return cached
        objective = objective_factory(instance)
        result = self.strategy.minimize(objective, self.space)
        report = TuningReport(
            level="instance", platform=platform, instance=instance, result=result
        )
        self._instance_cache[key] = report
        return report

    @property
    def cached_instances(self) -> int:
        """Number of instance-tuned configurations held."""
        return len(self._instance_cache)


def tune_magicfilter(
    machine: MachineModel,
    *,
    strategy: SearchStrategy | None = None,
    problem_shape: tuple[int, int, int] = (32, 32, 32),
) -> TuningReport:
    """Tune the magicfilter's unroll degree on *machine* (§V-B).

    The objective is the simulated ``PAPI_TOT_CYC`` count, exactly what
    the paper's harness minimized over unroll degrees 1–12.
    """
    benchmark = MagicFilterBenchmark(machine, problem_shape=problem_shape)
    space = ParameterSpace({"unroll": UNROLL_RANGE})

    def objective(point: Mapping[str, Any]) -> float:
        return benchmark.counters(point["unroll"]).cycles

    tuner = AutoTuner(space=space, strategy=strategy or ExhaustiveSearch())
    report = tuner.tune_static(machine.name, objective)
    if not 1 <= report.best_point["unroll"] <= max(UNROLL_RANGE):
        raise SearchError("tuner returned an out-of-range unroll degree")
    return report
