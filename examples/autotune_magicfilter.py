#!/usr/bin/env python3
"""Figure 7 + §VI-B: auto-tuning BigDFT's magicfilter.

1. Verifies the generated unrolled kernels compute identical results
   (the correctness contract of the paper's generator), numerically.
2. Sweeps unroll degrees 1-12 on Nehalem and Tegra2 and prints the
   PAPI-counter curves of Figure 7 with the sweet spots.
3. Compares tuning strategies (exhaustive / hill-climb / random / GA).
4. Demonstrates the two tuning levels of §VI-B: static per-platform
   tuning and instance-specific tuning with its JIT-style cache.

Usage::

    python examples/autotune_magicfilter.py
"""

import random

from repro.arch import TEGRA2_NODE, XEON_X5550
from repro.autotune import (
    AutoTuner,
    ExhaustiveSearch,
    GeneticSearch,
    HillClimbSearch,
    ParameterSpace,
    RandomSearch,
    tune_magicfilter,
)
from repro.core.report import render_series
from repro.kernels import MagicFilterBenchmark
from repro.kernels.magicfilter import (
    UNROLL_RANGE,
    magicfilter_1d,
    magicfilter_1d_unrolled,
)


def verify_generated_variants() -> None:
    print("=== generator correctness: all unroll variants agree ===")
    rng = random.Random(42)
    data = [rng.gauss(0.0, 1.0) for _ in range(61)]
    reference = magicfilter_1d(data)
    worst = 0.0
    for unroll in UNROLL_RANGE:
        result = magicfilter_1d_unrolled(data, unroll=unroll)
        worst = max(worst, *(abs(r - e) for r, e in zip(result, reference)))
    print(f"  12 variants, max deviation from reference: {worst:.2e}\n")


def figure7_sweep() -> None:
    print("=== Figure 7: counters by unroll degree ===")
    for machine in (XEON_X5550, TEGRA2_NODE):
        bench = MagicFilterBenchmark(machine)
        sweep = bench.sweep()
        cycles = [(u, sweep[u].cycles / 1e6) for u in UNROLL_RANGE]
        accesses = [(u, sweep[u].cache_accesses / 1e6) for u in UNROLL_RANGE]
        print(render_series(f"{machine.name}: Mcycles", cycles,
                            x_label="unroll", y_label="Mcycles"))
        print(render_series(f"{machine.name}: M cache accesses", accesses,
                            x_label="unroll", y_label="Maccesses"))
        print(f"  sweet spot: {bench.sweet_spot()}  best: {bench.best_unroll()}\n")


def strategy_comparison() -> None:
    print("=== tuning strategies (Tegra2) ===")
    strategies = {
        "exhaustive": ExhaustiveSearch(),
        "hill-climb": HillClimbSearch(restarts=2, seed=0),
        "random(6)": RandomSearch(budget=6, seed=0),
        "genetic": GeneticSearch(population=6, generations=4, seed=0),
    }
    for name, strategy in strategies.items():
        report = tune_magicfilter(TEGRA2_NODE, strategy=strategy)
        print(
            f"  {name:12s}: unroll={report.best_point['unroll']:2d} "
            f"cycles={report.result.best_value:,.0f} "
            f"({report.result.evaluations} evaluations)"
        )
    print()


def two_level_tuning() -> None:
    print("=== §VI-B: static vs instance-specific tuning ===")
    static = tune_magicfilter(TEGRA2_NODE)
    print(f"  static (build-time) optimum on Tegra2: unroll={static.best_point['unroll']}")

    tuner = AutoTuner(space=ParameterSpace({"unroll": UNROLL_RANGE}))

    def factory(shape):
        bench = MagicFilterBenchmark(TEGRA2_NODE, problem_shape=shape)
        return lambda point: bench.counters(point["unroll"]).cycles

    for shape in [(16, 16, 16), (48, 48, 48), (16, 16, 16)]:
        report = tuner.tune_instance(TEGRA2_NODE.name, shape, factory)
        cached = " (cache hit)" if tuner.cached_instances < 3 and shape == (16, 16, 16) else ""
        print(f"  instance {shape}: unroll={report.best_point['unroll']}")
    print(f"  searches actually run: {tuner.cached_instances} "
          f"(the repeated instance reused its JIT-cached kernel)")


def main() -> None:
    verify_generated_variants()
    figure7_sweep()
    strategy_comparison()
    two_level_tuning()


if __name__ == "__main__":
    main()
