"""Tests for the combined trace-report artefact (repro.obs.report)."""

import json

import pytest

from repro.cluster import MpiJob, tibidabo
from repro.metrics import MetricsRegistry, use_registry
from repro.obs.report import REPORT_SCHEMA_VERSION, build_run_report
from repro.tracing.stream import StreamConfig, TraceStreamAnalyzer


def _traced_run(num_ranks=4):
    """The finalized analysis of a small traced job, and its registry."""
    registry = MetricsRegistry()
    with use_registry(registry), TraceStreamAnalyzer(
        StreamConfig(frontier_limit=None)
    ) as analyzer:
        cluster = tibidabo(num_nodes=2, seed=3)

        def program(rank):
            yield rank.compute(0.01 * (rank.rank + 1), label="work")
            yield from rank.alltoallv([2048] * rank.size)
            yield from rank.barrier()

        MpiJob(cluster, num_ranks, program, tracer=analyzer).run()
        return analyzer.finalize(), registry


@pytest.fixture(scope="module")
def report():
    result, registry = _traced_run()
    return build_run_report(
        result, scenario="unit-test-run", registry=registry
    )


class TestToDict:
    def test_schema_and_identity(self, report):
        payload = report.to_dict()
        assert payload["schema"] == REPORT_SCHEMA_VERSION
        assert payload["scenario"] == "unit-test-run"
        assert payload["num_ranks"] == 4
        assert payload["runtime_s"] == pytest.approx(report.runtime_seconds)

    def test_critical_path_section(self, report):
        section = report.to_dict()["critical_path"]
        assert section["total_s"] == pytest.approx(report.runtime_seconds)
        assert section["segments"] > 0
        # breakdown categories tile the whole path
        assert sum(section["breakdown_s"].values()) == pytest.approx(
            section["total_s"]
        )
        for category, label, seconds in section["by_label_s"]:
            assert isinstance(category, str) and isinstance(label, str)
            assert seconds >= 0

    def test_wait_state_section(self, report):
        section = report.to_dict()["wait_states"]
        assert section["contention_factor"] > 1
        assert section["total_wait_s"] >= section["blocked_s"] >= 0
        for entry in section["entries"]:
            assert set(entry) == {"category", "label", "seconds", "occurrences"}
        assert isinstance(section["explanation"], str)

    def test_efficiency_section(self, report):
        eff = report.to_dict()["efficiency"]
        assert 0 < eff["load_balance"] <= 1
        assert 0 < eff["communication_efficiency"] <= 1
        assert eff["parallel_efficiency"] == pytest.approx(
            eff["load_balance"] * eff["communication_efficiency"]
        )

    def test_metrics_embedded_when_registry_given(self, report):
        metrics = report.to_dict()["metrics"]
        assert metrics is not None
        assert metrics["deterministic"] is True
        assert "counters" in metrics

    def test_metrics_absent_without_registry(self):
        result, _ = _traced_run()
        bare = build_run_report(result, scenario="bare")
        assert bare.to_dict()["metrics"] is None


class TestSerialization:
    def test_to_json_is_canonical_and_parseable(self, report):
        text = report.to_json()
        assert text.endswith("\n")
        payload = json.loads(text)
        assert payload == report.to_dict()
        # sorted keys — byte-stable across runs of the same trace
        assert text == report.to_json()

    def test_deterministic_across_reruns(self):
        texts = []
        for _ in range(2):
            result, registry = _traced_run()
            texts.append(
                build_run_report(
                    result, scenario="repeat", registry=registry
                ).to_json()
            )
        assert texts[0] == texts[1]

    def test_markdown_mentions_the_findings(self, report):
        text = report.to_markdown()
        assert "# Trace report: unit-test-run" in text
        assert "## Critical path" in text
        assert "## Wait states" in text
        assert "## POP efficiencies" in text
        assert report.waits.explain() in text

    def test_save_writes_both_artefacts(self, report, tmp_path):
        paths = report.save(tmp_path / "deep" / "out")
        assert sorted(paths) == ["report.json", "report.md"]
        assert paths["report.json"].read_text() == report.to_json()
        assert paths["report.md"].read_text() == report.to_markdown()
