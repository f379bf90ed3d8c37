"""Golden-pinned Figure 4 trace report (ISSUE acceptance).

``tests/golden/fig4_trace_report.json`` and ``fig4_trace_metrics.json``
pin the full trace analysis of the Figure 4 scenario (BigDFT, 36 ranks
on the simulated Tibidabo GbE fat tree).  The paper's finding — the
run is dominated by ranks waiting in ``alltoallv`` because the
commodity switches collapse under incast — must fall out of the
analysis machine-checkably: the dominant wait state is pinned to
``switch-contention`` on ``alltoallv``, byte for byte.

Regenerate after an intentional simulator change with
``PYTHONPATH=src python tests/obs/test_fig4_golden.py``.
"""

import json
from pathlib import Path

from repro.apps import BigDFT
from repro.cluster import MpiJob, tibidabo
from repro.metrics import MetricsRegistry, to_json, use_registry
from repro.obs import build_run_report, diff_metrics
from repro.tracing.stream import StreamConfig, TraceStreamAnalyzer

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_REPORT = GOLDEN_DIR / "fig4_trace_report.json"
GOLDEN_METRICS = GOLDEN_DIR / "fig4_trace_metrics.json"

NUM_RANKS = 36
SEED = 7


def fig4_analysis():
    """The pinned run: exactly what ``repro trace-report`` executes."""
    registry = MetricsRegistry()
    with TraceStreamAnalyzer(
        StreamConfig(frontier_limit=None), registry=registry
    ) as analyzer:
        with use_registry(registry):
            cluster = tibidabo(num_nodes=18, seed=SEED)
            app = BigDFT()
            MpiJob(
                cluster, NUM_RANKS, app.rank_program(cluster, NUM_RANKS),
                tracer=analyzer,
            ).run()
        result = analyzer.finalize()
    report = build_run_report(
        result,
        scenario=f"fig4-bigdft-{NUM_RANKS}ranks-seed{SEED}",
        registry=registry,
    )
    return report, registry


class TestFig4Golden:
    def test_report_matches_golden_byte_for_byte(self):
        report, _ = fig4_analysis()
        assert report.to_json() == GOLDEN_REPORT.read_text(encoding="utf-8")

    def test_metrics_match_golden_byte_for_byte(self):
        _, registry = fig4_analysis()
        assert to_json(registry, deterministic=True) == (
            GOLDEN_METRICS.read_text(encoding="utf-8")
        )

    def test_golden_pins_the_figure_4_root_cause(self):
        """The acceptance criterion, checked against the committed file
        so the pin survives even if the simulator is not re-run."""
        payload = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
        dominant = payload["wait_states"]["dominant"]
        assert dominant["category"] == "switch-contention"
        assert dominant["label"] == "alltoallv"
        # the diagnosis is substantial, not a rounding artefact: the
        # contended collective owns the majority of blocked time
        assert dominant["seconds"] > 0.5 * payload["wait_states"]["blocked_s"]
        assert "switch-contention" in payload["wait_states"]["explanation"]

    def test_golden_efficiencies_show_a_communication_bound_run(self):
        payload = json.loads(GOLDEN_REPORT.read_text(encoding="utf-8"))
        eff = payload["efficiency"]
        # Figure 4's signature: well balanced but communication bound.
        assert eff["load_balance"] > 0.9
        assert eff["communication_efficiency"] < 0.7
        assert payload["critical_path"]["dominant_wait_label"] == "alltoallv"

    def test_regenerated_run_passes_the_regression_gate(self):
        """What CI does: diff a fresh run against the golden baseline."""
        _, registry = fig4_analysis()
        baseline = json.loads(GOLDEN_METRICS.read_text(encoding="utf-8"))
        fresh = json.loads(to_json(registry, deterministic=True))
        diff = diff_metrics(baseline, fresh, threshold=0.05)
        assert diff.ok, diff.format()


def regenerate():  # pragma: no cover - manual tool
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    report, registry = fig4_analysis()
    GOLDEN_REPORT.write_text(report.to_json(), encoding="utf-8")
    GOLDEN_METRICS.write_text(
        to_json(registry, deterministic=True), encoding="utf-8"
    )
    print(f"wrote {GOLDEN_REPORT} and {GOLDEN_METRICS}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
