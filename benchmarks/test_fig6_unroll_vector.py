"""Figure 6 — influence of code optimizations (element size x loop
unrolling) on effective bandwidth for a 50 KB array with stride 1.

Paper findings: on Nehalem (6a) both vectorizing and unrolling
constantly improve performance; on the Snowball (6b) both may be
detrimental — 128-bit vectorization is no better than 32-bit scalars,
unrolling the 128-bit variant actively hurts, and the best variant is
64-bit + unrolling.
"""

import pytest

from repro.arch import SNOWBALL_A9500, XEON_X5550
from repro.core.report import render_table
from repro.engine.sweeps import run_fig6_grid


def _render(title, grid):
    return render_table(
        title,
        ["element", "no unroll (GB/s)", "unroll=8 (GB/s)"],
        [
            [f"{bits}b", f"{grid[(bits, 1)]:.2f}", f"{grid[(bits, 8)]:.2f}"]
            for bits in (32, 64, 128)
        ],
    )


def test_fig6a_xeon(benchmark, artefact, engine):
    grid = benchmark.pedantic(
        lambda: run_fig6_grid(engine, XEON_X5550.name, seed=3),
        rounds=1, iterations=1,
    )
    artefact("Figure 6a — Xeon 5500/Nehalem bandwidth grid", _render("Nehalem", grid))

    # Unrolling and vectorizing both constantly improve performance.
    for bits in (32, 64, 128):
        assert grid[(bits, 8)] >= grid[(bits, 1)] * 0.99
    assert grid[(64, 8)] > grid[(32, 8)]
    assert grid[(128, 8)] >= grid[(64, 8)] * 0.95
    # Best overall: 128-bit + unrolling.
    assert grid[(128, 8)] == max(grid.values())
    # Scale: the figure's axis tops out around 15 GB/s.
    assert 5.0 < grid[(128, 8)] < 18.0


def test_fig6b_snowball(benchmark, artefact, engine):
    grid = benchmark.pedantic(
        lambda: run_fig6_grid(engine, SNOWBALL_A9500.name, seed=3),
        rounds=1, iterations=1,
    )
    artefact("Figure 6b — Snowball/A9500 bandwidth grid", _render("A9500", grid))

    # Best configuration: 64 bits + unrolling.
    assert grid[(64, 8)] == max(grid.values())
    # 128-bit vectorization ~ 32-bit scalars.
    assert grid[(128, 1)] == pytest.approx(grid[(32, 1)], rel=0.35)
    # Unrolling the 128-bit variant is detrimental.
    assert grid[(128, 8)] < grid[(128, 1)]
    # 32->64 bit practically doubles the bandwidth.
    assert 1.4 < grid[(64, 1)] / grid[(32, 1)] < 2.3
    # Scale: the figure's axis tops out around 1.5 GB/s.
    assert 1.0 < grid[(64, 8)] < 2.0
