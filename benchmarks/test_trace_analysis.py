"""Trace-analysis pipeline benchmark (ISSUE satellite).

Times the full post-mortem stack on the Figure 4 trace — replaying the
recorded events into the trace store, critical-path extraction,
wait-state classification, and Chrome export, as ``trace-report
--chrome-out`` runs them — separately from the simulation that
produces the trace, and regenerates the run report artefact.  The
analysis must stay cheap relative to the simulation it explains.
"""

import time

from repro.obs import build_run_report
from repro.obs.report import FIG4_RANKS, run_fig4_job
from repro.tracing import TraceRecorder, export_chrome_trace
from repro.tracing.stream import StreamConfig, TraceStreamAnalyzer


def _analyze(scenario, recorder):
    with TraceStreamAnalyzer(StreamConfig(frontier_limit=None)) as analyzer:
        recorder.replay(analyzer)
        result = analyzer.finalize()
    report = build_run_report(result, scenario=scenario)
    chrome = export_chrome_trace(recorder)
    return report, chrome


def test_trace_analysis_pipeline(benchmark, artefact):
    start = time.perf_counter()
    recorder = TraceRecorder()
    scenario, _ = run_fig4_job("bigdft", FIG4_RANKS, 7, recorder)
    simulate_s = time.perf_counter() - start

    report, chrome = benchmark.pedantic(
        lambda: _analyze(scenario, recorder), rounds=3, iterations=1
    )

    start = time.perf_counter()
    _analyze(scenario, recorder)
    analyze_s = time.perf_counter() - start

    artefact(
        "Trace analysis — Figure 4 run report",
        report.to_markdown()
        + f"\nsimulate: {simulate_s:.3f}s, analyze: {analyze_s:.3f}s, "
        f"chrome events: {len(chrome['traceEvents'])}, "
        f"trace states: {len(recorder.states)}",
    )

    # the diagnosis the bench regenerates must stay the paper's
    dominant = report.waits.dominant
    assert dominant is not None
    assert dominant.category == "switch-contention"
    assert dominant.label == "alltoallv"
    # analysis stays cheap relative to the simulation it explains
    assert analyze_s < max(4 * simulate_s, 2.0)
