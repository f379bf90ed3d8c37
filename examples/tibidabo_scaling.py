#!/usr/bin/env python3
"""Figure 3 + Figure 4: scalability study on the simulated Tibidabo.

Strong-scales LINPACK, SPECFEM3D and BigDFT on the Tegra2 cluster
(Figure 3), then profiles a 36-core BigDFT run, exports a Paraver
trace, and runs the delayed-collective analysis (Figure 4) — once with
the commodity switches and once with the upgraded ones the paper
anticipates.

Usage::

    python examples/tibidabo_scaling.py [--quick]
"""

import sys

from repro.core.report import render_series
from repro.engine import ExperimentEngine, sweeps
from repro.obs.report import FIG4_RANKS, run_fig4_job
from repro.tracing import (
    TraceRecorder,
    analyze_collectives,
    export_prv,
    render_timeline,
)


def scaling_study(quick: bool) -> None:
    engine = ExperimentEngine()
    for title, app, quick_counts, full_counts, baseline in sweeps.FIG3_CURVES:
        counts = quick_counts if quick else full_counts
        grid = sweeps.run_replicated_speedups(
            engine, app, counts=counts, num_nodes=sweeps.FIG3_NUM_NODES,
            seeds=[7], baseline_cores=baseline,
        )
        curve = [(cores, grid[cores][0]) for cores in counts]
        print(render_series(title, curve, x_label="cores", y_label="speedup"))
        top_cores, top_speedup = curve[-1]
        print(f"  efficiency at {top_cores} cores: {top_speedup / top_cores:.0%}\n")


def profile_bigdft(upgraded: bool) -> None:
    label = "upgraded" if upgraded else "commodity"
    recorder = TraceRecorder()
    _, result = run_fig4_job(
        "bigdft", FIG4_RANKS, 7, recorder, upgraded=upgraded
    )
    report = analyze_collectives(recorder, "alltoallv")

    print(f"Figure 4 — BigDFT on {FIG4_RANKS} cores, {label} switches")
    print(f"  job time          : {result.elapsed_seconds:.2f} s")
    print(f"  loss episodes     : {result.loss_episodes}")
    print(f"  alltoallv delayed : {len(report.delayed)}/{len(report.instances)}")
    for instance in report.instances:
        verdict = "DELAYED" if instance in report.delayed else "normal"
        print(
            f"    #{instance.sequence}: span {instance.duration:.3f} s, "
            f"{instance.ranks_delayed}/{instance.ranks_involved} ranks delayed "
            f"[{verdict}]"
        )
    trace_lines = len(
        export_prv(recorder, job_name=f"bigdft-{FIG4_RANKS}-{label}").splitlines()
    )
    print(f"  Paraver trace     : {trace_lines} records")
    print()
    print(render_timeline(recorder, width=96, ranks=list(range(0, FIG4_RANKS, 6))))
    print()


def main() -> None:
    quick = "--quick" in sys.argv
    scaling_study(quick)
    profile_bigdft(upgraded=False)
    profile_bigdft(upgraded=True)


if __name__ == "__main__":
    main()
