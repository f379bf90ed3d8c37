"""Ablation X7 — the full Table I portfolio on Tibidabo.

The paper's viability premise ("In order to be viable the approach
needs applications to scale") applied to all eleven codes: the nine
characterized models plus the two detailed ones, strong-scaled on the
simulated cluster and sorted by efficiency."""

from repro.apps.portfolio import CommPattern, portfolio_scaling_report
from repro.cluster import tibidabo
from repro.core.report import render_table


def _report():
    cluster = tibidabo(num_nodes=32, seed=11)
    verdicts = portfolio_scaling_report(cluster, cores=32, baseline=2)
    return sorted(verdicts, key=lambda v: -v.efficiency)


def test_x7_portfolio_scaling(benchmark, artefact):
    verdicts = benchmark.pedantic(_report, rounds=1, iterations=1)

    artefact(
        "X7 — Table I portfolio strong-scaled to 32 cores",
        render_table(
            "viability report (vs 2-core baseline)",
            ["code", "pattern", "efficiency", "scales (>=60%)"],
            [
                [v.code, v.pattern.value, f"{v.efficiency:.0%}",
                 "yes" if v.scales else "NO"]
                for v in verdicts
            ],
        ),
    )

    assert len(verdicts) == 11
    by_code = {v.code: v for v in verdicts}
    # The paper's two studied codes bracket the portfolio...
    assert by_code["SPECFEM3D"].efficiency > 0.9
    assert by_code["BigDFT"].efficiency < 0.7
    # ...and the patterns sort as §IV predicts: every halo/Monte-Carlo
    # code beats every transpose code.
    transpose = [v for v in verdicts if v.pattern is CommPattern.TRANSPOSE_ALLTOALL]
    clean = [
        v for v in verdicts
        if v.pattern in (CommPattern.HALO_EXCHANGE, CommPattern.EMBARRASSING)
    ]
    assert max(t.efficiency for t in transpose) < min(c.efficiency for c in clean)
