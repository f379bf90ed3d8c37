"""Exponential fits and the exaflop projection (Figure 1, §I)."""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.stats import ExponentialFit, exponential_fit
from repro.errors import DataError
from repro.top500.data import (
    EXASCALE_POWER_BUDGET_W,
    GREEN500_TOP_2012_GFLOPS_PER_WATT,
    series_column,
)

#: One exaflop, in GFLOPS (the series' unit).
EXAFLOP_GFLOPS = 1e9


def fit_series(column: str = "sum") -> ExponentialFit:
    """Exponential fit of one Figure 1 series (sum, top or entry)."""
    years, values = series_column(column)
    return exponential_fit([float(y) for y in years], values)


@dataclass(frozen=True)
class ExaflopProjection:
    """When the fitted growth reaches one exaflop, and what 20 MW needs."""

    column: str
    growth_per_year: float
    exaflop_year: float
    required_gflops_per_watt: float
    current_gflops_per_watt: float


def required_efficiency_factor(
    current_gflops_per_watt: float = GREEN500_TOP_2012_GFLOPS_PER_WATT,
    power_budget_w: float = EXASCALE_POWER_BUDGET_W,
) -> float:
    """Efficiency improvement needed for an exaflop in the power budget.

    "Building an exaflopic computer under the 20MW barrier would
    require an efficiency of 50 GFLOPS per watt" — a factor of ~25
    over the 2012 state of the art.
    """
    if current_gflops_per_watt <= 0 or power_budget_w <= 0:
        raise DataError("efficiencies and budgets must be positive")
    required = EXAFLOP_GFLOPS / power_budget_w
    return required / current_gflops_per_watt


def project_exaflop(column: str = "top") -> ExaflopProjection:
    """Fit one series and project the exaflop crossing (Figure 1)."""
    fit = fit_series(column)
    year = fit.solve_for(EXAFLOP_GFLOPS)
    return ExaflopProjection(
        column=column,
        growth_per_year=fit.growth,
        exaflop_year=year,
        required_gflops_per_watt=EXAFLOP_GFLOPS / EXASCALE_POWER_BUDGET_W,
        current_gflops_per_watt=GREEN500_TOP_2012_GFLOPS_PER_WATT,
    )
