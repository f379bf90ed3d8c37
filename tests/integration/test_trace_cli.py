"""Integration tests for the trace-analysis CLI tools.

``repro trace-report`` must write the full artefact bundle (report
JSON + markdown, Chrome trace, deterministic metrics, run manifest)
and print the Figure 4 diagnosis; ``repro diff-metrics`` is the
regression gate CI runs against ``tests/golden/`` — its exit code IS
the contract.  Also pins the ``--metrics-out`` and unwritable
``--out`` failure modes: a clean one-line error, never a traceback
(and never a leaked spill directory).
"""

import json
import tempfile

import pytest

from repro.cli import main
from repro.metrics import NULL_REGISTRY, current_registry
from repro.tracing.chrome import validate_chrome_trace


@pytest.fixture(scope="module")
def report_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace-report")
    assert main([
        "trace-report", "--out", str(out),
        "--chrome-out", str(out / "trace.chrome.json"),
    ]) == 0
    return out


@pytest.fixture(scope="module")
def stream_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("trace-stream")
    assert main(["trace-report", "--stream", "--out", str(out)]) == 0
    return out


class TestTraceReport:
    def test_writes_the_full_artefact_bundle(self, report_dir):
        names = {p.name for p in report_dir.iterdir()}
        assert {"report.json", "report.md", "trace.chrome.json",
                "metrics.json"} <= names
        manifests = [n for n in names if n.startswith("trace-report-bigdft-")]
        assert len(manifests) == 1

    def test_chrome_is_skipped_without_chrome_out(self, tmp_path):
        assert main(["trace-report", "--out", str(tmp_path)]) == 0
        names = {p.name for p in tmp_path.iterdir()}
        assert "trace.chrome.json" not in names
        assert {"report.json", "report.md", "metrics.json"} <= names
        manifest_path = next(
            p for p in tmp_path.iterdir()
            if p.name.startswith("trace-report-bigdft-")
        )
        manifest = json.loads(manifest_path.read_text())
        assert "trace.chrome.json" not in manifest["attachments"]

    def test_report_diagnoses_figure_4(self, report_dir):
        payload = json.loads((report_dir / "report.json").read_text())
        assert payload["num_ranks"] == 36
        dominant = payload["wait_states"]["dominant"]
        assert dominant["category"] == "switch-contention"
        assert dominant["label"] == "alltoallv"

    def test_chrome_trace_validates(self, report_dir):
        document = json.loads((report_dir / "trace.chrome.json").read_text())
        validate_chrome_trace(document)
        assert document["otherData"]["num_ranks"] == 36

    def test_manifest_links_every_artefact(self, report_dir):
        manifest_path = next(
            p for p in report_dir.iterdir()
            if p.name.startswith("trace-report-bigdft-")
        )
        manifest = json.loads(manifest_path.read_text())
        attachments = manifest["attachments"]
        assert set(attachments) == {
            "report.json", "report.md", "trace.chrome.json", "metrics.json"
        }

    def test_stdout_is_the_markdown_report(self, tmp_path, capsys):
        assert main(["trace-report", "--out", str(tmp_path)]) == 0
        out, err = capsys.readouterr()
        assert "# Trace report: fig4-bigdft-36ranks-seed7" in out
        assert "switch-contention" in out
        assert "[trace-report] wrote" in err

    def test_registry_restored_afterwards(self, report_dir):
        assert current_registry() is NULL_REGISTRY


class TestStreamMode:
    def test_stream_report_is_byte_identical_to_batch(
        self, report_dir, stream_dir
    ):
        assert (stream_dir / "report.json").read_bytes() == (
            (report_dir / "report.json").read_bytes()
        )
        assert (stream_dir / "report.md").read_bytes() == (
            (report_dir / "report.md").read_bytes()
        )
        # trace.* metrics are volatile, so the deterministic metrics
        # snapshot matches too — streaming never perturbs goldens.
        assert (stream_dir / "metrics.json").read_bytes() == (
            (report_dir / "metrics.json").read_bytes()
        )

    def test_stream_stats_show_bounded_memory(self, stream_dir):
        payload = json.loads((stream_dir / "stream_stats.json").read_text())
        stats = payload["stats"]
        assert stats["events_ingested"] > 0
        assert stats["frontier_high_water"] < stats["events_ingested"]
        assert stats["retired_segments"] > 0
        assert "sampling" not in payload

    def test_stream_never_writes_a_chrome_trace(self, stream_dir):
        assert not (stream_dir / "trace.chrome.json").exists()

    def test_stream_plus_chrome_out_is_a_clean_error(self, tmp_path, capsys):
        code = main([
            "trace-report", "--stream", "--out", str(tmp_path / "o"),
            "--chrome-out", str(tmp_path / "c.json"),
        ])
        _, err = capsys.readouterr()
        assert code == 1
        assert "cannot be" in err and "Traceback" not in err

    @pytest.mark.parametrize("frontier", ["0", "-5"])
    def test_frontier_below_one_is_a_clean_error(
        self, frontier, tmp_path, capsys
    ):
        out = tmp_path / "o"
        code = main([
            "trace-report", "--stream", "--frontier", frontier,
            "--out", str(out),
        ])
        _, err = capsys.readouterr()
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error in trace-report: --frontier ")
        assert "Traceback" not in err
        assert not out.exists()

    def test_frontier_without_stream_is_a_clean_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["trace-report", "--frontier", "64", "--out", str(out)])
        _, err = capsys.readouterr()
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error in trace-report: --frontier ")
        assert "--stream" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "mode", [[], ["--stream"]], ids=["batch", "stream"]
    )
    def test_unwritable_out_is_one_line_and_leaks_no_spill_dir(
        self, mode, tmp_path, monkeypatch, capsys
    ):
        tmpdir = tmp_path / "tmp"
        tmpdir.mkdir()
        monkeypatch.setenv("TMPDIR", str(tmpdir))
        monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
        blocker = tmp_path / "a-file"
        blocker.write_text("not a directory\n")
        code = main(["trace-report", *mode, "--out", str(blocker / "out")])
        _, err = capsys.readouterr()
        assert code == 1
        assert err.splitlines() == [err.strip()]
        assert err.startswith("error in trace-report: ")
        assert "Not a directory" in err
        assert list(tmpdir.iterdir()) == []


class TestDiffMetrics:
    def test_identical_files_exit_zero(self, report_dir, capsys):
        metrics = str(report_dir / "metrics.json")
        assert main(["diff-metrics", metrics, metrics]) == 0
        out, _ = capsys.readouterr()
        assert "no regressions" in out

    def test_report_compares_against_its_own_metrics(self, report_dir, capsys):
        assert main([
            "diff-metrics", str(report_dir / "report.json"),
            str(report_dir / "metrics.json"),
        ]) == 0
        capsys.readouterr()

    def test_injected_regression_exits_nonzero(
        self, report_dir, tmp_path, capsys
    ):
        payload = json.loads((report_dir / "metrics.json").read_text())
        name = "des.events_dispatched"
        payload["counters"][name]["value"] *= 1.10
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(payload))
        code = main([
            "diff-metrics", str(report_dir / "metrics.json"), str(drifted),
            "--threshold", "5%",
        ])
        out, _ = capsys.readouterr()
        assert code == 1
        assert "regression" in out and name in out

    def test_same_drift_passes_a_looser_threshold(
        self, report_dir, tmp_path, capsys
    ):
        payload = json.loads((report_dir / "metrics.json").read_text())
        payload["counters"]["des.events_dispatched"]["value"] *= 1.10
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(payload))
        assert main([
            "diff-metrics", str(report_dir / "metrics.json"), str(drifted),
            "--threshold", "15%",
        ]) == 0
        capsys.readouterr()

    def test_wrong_path_count_is_a_clean_error(self, capsys):
        assert main(["diff-metrics", "only-one.json"]) == 1
        _, err = capsys.readouterr()
        assert "exactly two" in err

    def test_missing_file_is_a_clean_error(self, tmp_path, capsys):
        a = tmp_path / "missing-a.json"
        b = tmp_path / "missing-b.json"
        assert main(["diff-metrics", str(a), str(b)]) == 1
        _, err = capsys.readouterr()
        assert "error in diff-metrics" in err and "Traceback" not in err


class TestMetricsOutFailureModes:
    def test_missing_parent_directories_are_created(self, tmp_path, capsys):
        target = tmp_path / "deep" / "nested" / "m.json"
        assert main(["table2", "--metrics-out", str(target)]) == 0
        capsys.readouterr()
        assert json.loads(target.read_text())["schema"] == 1

    def test_parent_that_is_a_file_fails_cleanly(self, tmp_path, capsys):
        blocker = tmp_path / "blocker"
        blocker.write_text("i am a file")
        target = blocker / "m.json"
        assert main(["table2", "--metrics-out", str(target)]) == 1
        _, err = capsys.readouterr()
        assert "cannot write metrics" in err
        assert "Traceback" not in err
