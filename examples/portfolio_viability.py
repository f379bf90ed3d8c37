#!/usr/bin/env python3
"""Table I viability study: all eleven Mont-Blanc codes on Tibidabo.

"In order to be viable the approach needs applications to scale" (§IV).
This example strong-scales the whole portfolio — the paper's two
detailed codes plus nine characterized models — and sorts them by
efficiency, showing that the communication *pattern* decides the
verdict: halo exchanges and Monte-Carlo ensembles thrive on the GbE
fabric, transposition-bound codes inherit BigDFT's incast syndrome.

Usage::

    python examples/portfolio_viability.py
"""

from repro.apps import portfolio_scaling_report
from repro.cluster import tibidabo
from repro.core.report import render_table


def main() -> None:
    cluster = tibidabo(num_nodes=32, seed=11)
    verdicts = portfolio_scaling_report(cluster, cores=32, baseline=2)
    verdicts.sort(key=lambda v: -v.efficiency)
    print(render_table(
        "Mont-Blanc portfolio on Tibidabo (32 cores vs 2-core baseline)",
        ["code", "dominant pattern", "efficiency", "viable?"],
        [
            [v.code, v.pattern.value, f"{v.efficiency:.0%}",
             "yes" if v.scales else "NO"]
            for v in verdicts
        ],
    ))
    print()
    print("Pattern is destiny on a commodity-Ethernet cluster: the two")
    print("transposition codes (BigDFT, Quantum Espresso) sit at the")
    print("bottom — the incast pathology of Figure 4 — while everything")
    print("point-to-point or embarrassingly parallel clears the bar.")


if __name__ == "__main__":
    main()
