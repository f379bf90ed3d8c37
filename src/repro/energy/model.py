"""TDP-based energy accounting and Table II ratio arithmetic."""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps import BigDFT, CoreMark, Linpack, Specfem3D, StockFish
from repro.apps.base import RunResult
from repro.arch import SNOWBALL_A9500, XEON_X5550
from repro.errors import ConfigurationError


def energy_to_solution(run: RunResult) -> float:
    """Joules under the paper's rough model: TDP x wall time."""
    return run.energy_joules


def performance_ratio(reference: RunResult, contender: RunResult) -> float:
    """Table II's "Ratio": how many times faster the reference is.

    For rate metrics (MFLOPS, ops/s) this is ``reference / contender``;
    for time metrics it is ``contender_time / reference_time``.  Either
    way, >1 means the reference (the Xeon, in the paper) is faster.
    """
    _check_comparable(reference, contender)
    if reference.metric_name == "s":
        return contender.metric_value / reference.metric_value
    return reference.metric_value / contender.metric_value


def energy_ratio(reference: RunResult, contender: RunResult) -> float:
    """Table II's "Energy Ratio": contender energy over reference energy
    *for the same amount of work*.

    Time-metric benchmarks run the identical instance on both
    platforms, so the ratio is energy-to-solution directly.  Rate
    metrics (MFLOPS, ops/s) may use differently sized instances (HPL
    fills each node's memory), so the ratio compares energy per unit
    of work: ``(W/rate)_contender / (W/rate)_reference``.

    <1 means the contender (the ARM board) does the same work for less
    energy.
    """
    _check_comparable(reference, contender)
    if reference.metric_name == "s":
        return energy_to_solution(contender) / energy_to_solution(reference)
    contender_joules_per_op = contender.tdp_watts / contender.metric_value
    reference_joules_per_op = reference.tdp_watts / reference.metric_value
    return contender_joules_per_op / reference_joules_per_op


def gflops_per_watt(flops_per_second: float, watts: float) -> float:
    """The Green500 metric."""
    if watts <= 0:
        raise ConfigurationError("power must be positive")
    return flops_per_second / 1e9 / watts


@dataclass(frozen=True)
class EnergyComparison:
    """One Table II row: a benchmark on two platforms."""

    benchmark: str
    metric_name: str
    contender_value: float
    reference_value: float
    ratio: float
    energy_ratio: float


def compare_runs(reference: RunResult, contender: RunResult) -> EnergyComparison:
    """Build a Table II row from two runs of the same benchmark.

    *reference* is the classical platform (Xeon), *contender* the
    low-power one (Snowball).
    """
    _check_comparable(reference, contender)
    return EnergyComparison(
        benchmark=reference.app,
        metric_name=reference.metric_name,
        contender_value=contender.metric_value,
        reference_value=reference.metric_value,
        ratio=performance_ratio(reference, contender),
        energy_ratio=energy_ratio(reference, contender),
    )


def table2_rows() -> dict[str, EnergyComparison]:
    """Table II: each benchmark's Xeon-vs-Snowball row, by name."""
    return {
        app.name: compare_runs(app.run(XEON_X5550), app.run(SNOWBALL_A9500))
        for app in (Linpack(), CoreMark(), StockFish(), Specfem3D(), BigDFT())
    }


def _check_comparable(a: RunResult, b: RunResult) -> None:
    if a.app != b.app or a.metric_name != b.metric_name:
        raise ConfigurationError(
            f"cannot compare {a.app}/{a.metric_name} with {b.app}/{b.metric_name}"
        )
