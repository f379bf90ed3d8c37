"""Figure 3 — strong scaling of LINPACK (3a), SPECFEM3D (3b) and
BigDFT (3c) on the Tibidabo cluster simulator.

Expected shapes (paper §IV): LINPACK "close to 80% efficiency for 100
nodes [cores]" with a linear region past 32; SPECFEM3D ~90% at 192
cores versus a 4-core baseline; BigDFT's "efficiency drops rapidly".
"""

from repro.core.report import render_series
from repro.engine.sweeps import run_replicated_speedups


def _speedup_curve(engine, app, *, counts, baseline_cores=1):
    """One seed-7 strong-scaling curve: ``[(cores, speedup), ...]``."""
    grid = run_replicated_speedups(
        engine, app, counts=counts, num_nodes=96, seeds=[7],
        baseline_cores=baseline_cores,
    )
    return [(cores, speedups[0]) for cores, speedups in grid.items()]


def test_fig3a_linpack_speedup(benchmark, artefact, engine):
    counts = [1, 2, 4, 8, 16, 32, 64, 100]
    curve = benchmark.pedantic(
        lambda: _speedup_curve(engine, "linpack", counts=counts),
        rounds=1, iterations=1,
    )
    artefact(
        "Figure 3a — LINPACK speedup on Tibidabo",
        render_series("LINPACK strong scaling", curve,
                      x_label="cores", y_label="speedup"),
    )
    by_cores = dict(curve)
    assert by_cores[100] / 100 > 0.72          # ~80 % efficiency
    assert by_cores[16] / 16 > 0.9
    # linear region past 32: the 64->100 slope stays close to the
    # 32->64 slope.
    slope_a = (by_cores[64] - by_cores[32]) / 32
    slope_b = (by_cores[100] - by_cores[64]) / 36
    assert slope_b > 0.6 * slope_a


def test_fig3b_specfem3d_speedup(benchmark, artefact, engine):
    counts = [4, 8, 16, 32, 64, 128, 192]
    curve = benchmark.pedantic(
        lambda: _speedup_curve(
            engine, "specfem3d", counts=counts, baseline_cores=4
        ),
        rounds=1, iterations=1,
    )
    artefact(
        "Figure 3b — SPECFEM3D speedup on Tibidabo (vs 4-core run)",
        render_series("SPECFEM3D strong scaling", curve,
                      x_label="cores", y_label="speedup"),
    )
    by_cores = dict(curve)
    assert by_cores[192] / 192 > 0.88          # "efficiency of 90%"
    assert by_cores[64] / 64 > 0.95


def test_fig3c_bigdft_speedup(benchmark, artefact, engine):
    counts = [1, 2, 4, 8, 16, 24, 32, 36]
    curve = benchmark.pedantic(
        lambda: _speedup_curve(engine, "bigdft", counts=counts),
        rounds=1, iterations=1,
    )
    artefact(
        "Figure 3c — BigDFT speedup on Tibidabo",
        render_series("BigDFT strong scaling", curve,
                      x_label="cores", y_label="speedup"),
    )
    by_cores = dict(curve)
    assert by_cores[36] / 36 < 0.6             # efficiency drops rapidly
    assert by_cores[4] / 4 > 0.8               # but small scale is fine
    # the curve visibly flattens: the last doubling gains little
    assert by_cores[36] < by_cores[16] * 1.8
