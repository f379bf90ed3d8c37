"""Figure 4 — profiling of BigDFT on Tibidabo using 36 cores:
collective (all_to_all_v) communications are sometimes delayed by the
Ethernet switches."""

from repro.core.report import render_table
from repro.obs.report import FIG4_RANKS, run_fig4_job
from repro.tracing import TraceRecorder, analyze_collectives, export_prv


def _regenerate(upgraded: bool):
    recorder = TraceRecorder()
    _, result = run_fig4_job(
        "bigdft", FIG4_RANKS, 7, recorder, upgraded=upgraded
    )
    report = analyze_collectives(recorder, "alltoallv")
    return result, recorder, report


def test_fig4_delayed_collectives(benchmark, artefact):
    result, recorder, report = benchmark.pedantic(
        lambda: _regenerate(upgraded=False), rounds=1, iterations=1
    )

    rows = [
        [
            f"alltoallv #{i.sequence}",
            f"{i.duration:.3f}",
            i.ranks_delayed,
            i.ranks_involved,
            "DELAYED" if i in report.delayed else "normal",
        ]
        for i in report.instances
    ]
    artefact(
        "Figure 4 — BigDFT on 36 cores: delayed collectives",
        render_table(
            "alltoallv instances (commodity switches)",
            ["instance", "span (s)", "ranks delayed", "ranks", "verdict"],
            rows,
        )
        + f"\n\nloss episodes: {result.loss_episodes}, "
        f"delayed fraction: {report.delayed_fraction:.2f}",
    )

    # "most of these collective communications are longer and delayed"
    assert report.delayed_fraction > 0.5
    # "In some cases all the nodes are delayed while in other, only
    # part of them"
    assert len({i.ranks_delayed for i in report.delayed}) > 1
    assert result.loss_episodes > 0
    # the exported Paraver trace is non-trivial
    assert len(export_prv(recorder).splitlines()) > 1000


def test_fig4_upgraded_switches_fix(benchmark, artefact):
    """§IV: 'This problem is to be fixed by upgrading the Ethernet
    switches used on Tibidabo.'"""
    result, _, report = benchmark.pedantic(
        lambda: _regenerate(upgraded=True), rounds=1, iterations=1
    )
    artefact(
        "Figure 4 (ablation) — upgraded switches",
        f"delayed fraction: {report.delayed_fraction:.2f}, "
        f"loss episodes: {result.loss_episodes}",
    )
    assert report.delayed_fraction < 0.2
    assert result.loss_episodes == 0
