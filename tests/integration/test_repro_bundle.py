"""`repro reproduce-all`: the one-command reproduction bundle.

The ISSUE acceptance criteria, on a reduced preset (``--only``):

* the bundle regenerates pinned artefacts with a sha256 manifest;
* a warm (fully cached) rerun is byte-identical and reports zero
  recomputed points;
* the manifest digest printed on stdout matches the manifest bytes;
* ``verify_bundle`` round-trips and catches tampering;
* fig4 and trace-report are memoized too: a warm bundle simulates
  nothing, and a corrupt trace-report entry heals to the same bytes.
"""

import hashlib
import json
from pathlib import Path

import repro.tracing
import repro.tracing.chrome
from repro.cli import main
from repro.cluster import MpiJob
from repro.obs.bundle import (
    MANIFEST_NAME,
    load_bundle_manifest,
    sha256_file,
    verify_bundle,
)

GOLDEN = Path(__file__).resolve().parents[1] / "golden"


def run_bundle(out_dir, capsys, *, only="fig3,fig7", seeds=2):
    """One reproduce-all invocation; returns (stdout, stderr)."""
    code = main([
        "reproduce-all", "--quick", "--seeds", str(seeds),
        "--only", only, "--out", str(out_dir),
    ])
    captured = capsys.readouterr()
    assert code == 0, captured.err
    return captured.out, captured.err


def tree_bytes(root):
    """Map of relative path -> file bytes for a directory tree."""
    root = Path(root)
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*")) if path.is_file()
    }


def trace_report_entry(cache_root):
    """The result-cache file holding the bundle's trace-report."""
    for path in sorted(Path(cache_root).glob("??/*.json")):
        entry = json.loads(path.read_bytes())
        if entry["key"]["sweep"].get("experiment") == "trace-report":
            return path
    raise AssertionError(f"no trace-report entry under {cache_root}")


def refuse(*args, **kwargs):
    raise AssertionError("a warm bundle must not simulate or export")


class TestReproduceAll:
    def test_warm_rerun_is_byte_identical_and_recomputes_nothing(
        self, tmp_path, capsys
    ):
        cold_out, cold_err = run_bundle(tmp_path / "cold", capsys)
        warm_out, warm_err = run_bundle(tmp_path / "warm", capsys)
        # Same manifest digest on stdout, zero recomputed points on
        # the warm pass, and every file byte-identical.
        assert cold_out == warm_out
        assert "[bundle] recomputed 0 | hits" in warm_err.splitlines()[-1]
        assert tree_bytes(tmp_path / "cold") == tree_bytes(tmp_path / "warm")

    def test_manifest_digest_and_hashes_are_real(self, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        stdout, _ = run_bundle(out_dir, capsys)
        manifest_path = out_dir / MANIFEST_NAME
        assert stdout.strip() == hashlib.sha256(
            manifest_path.read_bytes()
        ).hexdigest()
        manifest = load_bundle_manifest(out_dir)
        assert sorted(manifest["artefacts"]) == ["fig3", "fig7"]
        for artefact, record in manifest["artefacts"].items():
            assert record["seeds"] == [7, 8]
            assert record["confidence"] == 0.95
            for relative, digest in record["files"].items():
                assert sha256_file(out_dir / relative) == digest
        assert verify_bundle(out_dir) == []

    def test_bundle_carries_stdout_metrics_and_summaries(
        self, tmp_path, capsys
    ):
        out_dir = tmp_path / "bundle"
        run_bundle(out_dir, capsys)
        assert "Figure 3a" in (out_dir / "fig3" / "stdout.txt").read_text(
            encoding="utf-8"
        )
        metrics = json.loads(
            (out_dir / "fig3" / "metrics.json").read_text(encoding="utf-8")
        )
        # Deterministic export: cache-state counters must be absent.
        assert "engine.cache.misses" not in metrics["counters"]
        summary = json.loads(
            (out_dir / "fig3" / "summary.json").read_text(encoding="utf-8")
        )
        assert summary["seeds"] == [7, 8]
        assert "linpack" in summary["artefacts"]["fig3"]["series"]
        # fig7 is single-series/no-replication: stdout + metrics only.
        assert not (out_dir / "fig7" / "summary.json").exists()

    def test_verify_bundle_detects_tampering(self, tmp_path, capsys):
        out_dir = tmp_path / "bundle"
        run_bundle(out_dir, capsys, only="fig7")
        target = out_dir / "fig7" / "stdout.txt"
        target.write_text(
            target.read_text(encoding="utf-8") + "tampered\n",
            encoding="utf-8",
        )
        problems = verify_bundle(out_dir)
        assert any("fig7/stdout.txt" in problem for problem in problems)

    def test_unknown_only_selection_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "reproduce-all", "--quick", "--only", "fig3,nonsense",
            "--out", str(tmp_path / "bundle"),
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "nonsense" in captured.err


class TestCachedTraceArtefacts:
    """fig4 and trace-report go through the engine cache like the rest."""

    ONLY = "fig4,trace-report"

    def test_warm_bundle_simulates_nothing(
        self, tmp_path, capsys, monkeypatch
    ):
        cold_out, _ = run_bundle(tmp_path / "cold", capsys, only=self.ONLY,
                                 seeds=1)
        monkeypatch.setattr(MpiJob, "run", refuse)
        monkeypatch.setattr(repro.tracing, "write_chrome_trace", refuse)
        monkeypatch.setattr(repro.tracing.chrome, "write_chrome_trace", refuse)
        warm_out, warm_err = run_bundle(tmp_path / "warm", capsys,
                                        only=self.ONLY, seeds=1)
        assert warm_out == cold_out
        assert warm_err.splitlines()[-1] == "[bundle] recomputed 0 | hits 3"
        assert tree_bytes(tmp_path / "cold") == tree_bytes(tmp_path / "warm")
        report_dir = tmp_path / "warm" / "trace-report"
        assert (report_dir / "report.json").read_bytes() == (
            GOLDEN / "fig4_trace_report.json"
        ).read_bytes()
        assert (report_dir / "metrics.json").read_bytes() == (
            GOLDEN / "fig4_trace_metrics.json"
        ).read_bytes()

    def test_corrupt_trace_report_entry_heals_to_same_bytes(
        self, tmp_path, capsys, monkeypatch
    ):
        cold_out, _ = run_bundle(tmp_path / "cold", capsys, only=self.ONLY,
                                 seeds=1)
        cache_root = tmp_path / "repro-cache"  # conftest's REPRO_CACHE_DIR
        entry = trace_report_entry(cache_root)
        data = bytearray(entry.read_bytes())
        data[len(data) // 2] ^= 0x01
        entry.write_bytes(bytes(data))
        validated = []
        validate = repro.tracing.chrome.validate_chrome_trace

        def counting_validate(document):
            validated.append(len(document["traceEvents"]))
            validate(document)

        monkeypatch.setattr(
            repro.tracing.chrome, "validate_chrome_trace", counting_validate
        )
        warm_out, warm_err = run_bundle(tmp_path / "warm", capsys,
                                        only=self.ONLY, seeds=1)
        assert (cache_root / "corrupt" / entry.name).is_file()
        assert "[bundle] trace-report: recomputed 1 | hits 0" in (
            warm_err.splitlines()
        )
        assert len(validated) == 1  # the recomputed export was re-validated
        assert warm_out == cold_out
        assert tree_bytes(tmp_path / "cold") == tree_bytes(tmp_path / "warm")
