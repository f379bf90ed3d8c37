"""Golden-export conformance tests (ISSUE satellite).

``tests/golden/fig3_metrics.{json,prom}`` pin the deterministic export
of a small Figure-3 run.  These tests regenerate the run and require
byte-identical output — any change to metric names, values, bucket
layouts, span structure, or exporter formatting shows up as a golden
diff and must be intentional (regenerate with
``python tests/metrics/test_golden.py``).
"""

import json
from pathlib import Path

from repro.engine import ExperimentEngine
from repro.engine.sweeps import run_replicated_speedups
from repro.metrics import (
    MetricsRegistry,
    to_json,
    to_prometheus,
    use_registry,
    validate_metrics_json,
)

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"
GOLDEN_JSON = GOLDEN_DIR / "fig3_metrics.json"
GOLDEN_PROM = GOLDEN_DIR / "fig3_metrics.prom"


def fig3_registry():
    """The pinned run: a 2-point LINPACK strong-scaling curve."""
    reg = MetricsRegistry()
    with use_registry(reg):
        engine = ExperimentEngine(jobs=1, cache=None)
        run_replicated_speedups(
            engine, "linpack", counts=[1, 4], num_nodes=8, seeds=[7],
            baseline_cores=1, label="fig3/linpack",
        )
    return reg


class TestGoldenExports:
    def test_json_export_matches_golden_byte_for_byte(self):
        assert to_json(fig3_registry(), deterministic=True) == (
            GOLDEN_JSON.read_text(encoding="utf-8")
        )

    def test_prometheus_export_matches_golden_byte_for_byte(self):
        assert to_prometheus(fig3_registry(), deterministic=True) == (
            GOLDEN_PROM.read_text(encoding="utf-8")
        )

    def test_golden_json_passes_schema_validation(self):
        validate_metrics_json(
            json.loads(GOLDEN_JSON.read_text(encoding="utf-8"))
        )

    def test_golden_covers_required_sections(self):
        payload = json.loads(GOLDEN_JSON.read_text(encoding="utf-8"))
        counters = payload["counters"]
        assert "des.events_dispatched" in counters
        # Cache hit/miss counts depend on cache state, so they are
        # volatile now and must NOT appear in deterministic exports;
        # the deterministic point counter stays.
        assert "engine.cache.misses" not in counters
        assert "engine.points" in counters
        assert "mpi.messages.allreduce" in counters
        # The Figure 4 observation as a queryable metric: time ranks
        # spend parked in MPI waits, per collective.
        assert any(
            name.startswith("mpi.wait_seconds.") for name in counters
        )
        spans = payload["spans"]["children"]
        assert any(node["name"].startswith("engine/") for node in spans)


def regenerate():  # pragma: no cover - manual tool
    GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
    reg = fig3_registry()
    GOLDEN_JSON.write_text(to_json(reg, deterministic=True), encoding="utf-8")
    GOLDEN_PROM.write_text(
        to_prometheus(reg, deterministic=True), encoding="utf-8"
    )
    print(f"wrote {GOLDEN_JSON} and {GOLDEN_PROM}")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
