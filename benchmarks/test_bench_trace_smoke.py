"""Smoke tests for the bench_trace harness (tiny workloads).

The real gate runs in the ``bench-core`` CI job at full scale; these
tests only prove the harness itself works — both pipelines run, the
payload has the committed shape, and the shared gate flags failures —
so a harness bug cannot silently green the gate.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_trace
import gate


def test_smoke_payload_shape_and_identity():
    payload = bench_trace.run_benchmarks("smoke")
    assert payload["schema"] == bench_trace.SCHEMA
    throughput = payload["metrics"]["throughput"]
    assert throughput["legacy"] > 0 and throughput["current"] > 0
    assert len(throughput["ratios"]) == bench_trace.SCALES["smoke"]["pairs"]
    assert throughput["speedup"] == statistics.median(throughput["ratios"])
    memory = payload["metrics"]["bounded_memory"]
    assert 0 < memory["frontier_high_water"] < memory["events"]
    assert memory["share"] == memory["frontier_high_water"] / memory["events"]
    assert memory["retired_segments"] > 0
    assert payload["metrics"]["byte_identity"]["identical"] is True
    # The payload must round-trip through JSON (it is committed).
    json.loads(json.dumps(payload))


def _payload(speedup=0.75, events=1000, high_water=50, identical=True):
    return {
        "schema": bench_trace.SCHEMA,
        "metrics": {
            "throughput": {"legacy": 1.0, "current": speedup,
                           "speedup": speedup, "ratios": [speedup],
                           "unit": "events/s"},
            "bounded_memory": {
                "events": events,
                "frontier_high_water": high_water,
                "share": high_water / events,
            },
            "byte_identity": {"identical": identical},
        },
    }


def test_check_passes_against_itself_and_flags_a_slower_analyzer():
    committed = _payload()
    assert gate.check(_payload(), committed, 0.2) == []
    # Within tolerance: 0.61 against a committed 0.75 at 20%.
    assert gate.check(_payload(0.61), committed, 0.2) == []
    # A 25% slower analyzer: 0.5625 < 0.75 * 0.8.
    problems = gate.check(_payload(0.75 * 0.75), committed, 0.2)
    assert len(problems) == 1 and problems[0].startswith("throughput: ")


@pytest.mark.parametrize("field, drifted", [
    ("events", {"events": 1001}),
    ("frontier_high_water", {"high_water": 49}),
])
def test_check_gates_the_deterministic_counts_exactly(field, drifted):
    problems = gate.check(_payload(**drifted), _payload(), 0.2)
    assert problems and all("deterministic" in p for p in problems)
    assert any(p.startswith(f"bounded_memory: {field} changed")
               for p in problems)


def test_check_fails_a_diverged_report():
    problems = gate.check(_payload(identical=False), _payload(), 0.2)
    assert problems == [
        "byte_identity: streamed report diverged from the batch report"
    ]


def test_check_bounds_the_frontier_share_whatever_was_committed():
    # 60 of 1000 events is over the fixed 5% bound, even against a
    # committed file that recorded the same share.
    problems = gate.check(_payload(high_water=60), _payload(high_water=60),
                          0.2)
    assert len(problems) == 1 and "high-water 60 is 6.00%" in problems[0]
    assert gate.check(_payload(high_water=50), _payload(high_water=50),
                      0.2) == []


def test_committed_ratios_are_medians_of_their_pairs():
    committed = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_trace.json").read_text()
    )
    throughput = committed["metrics"]["throughput"]
    assert len(throughput["ratios"]) == bench_trace.SCALES["full"]["pairs"]
    assert throughput["speedup"] == statistics.median(throughput["ratios"])


def test_committed_baseline_records_bounded_memory():
    """The committed trajectory file must exist, parse, and record the
    10x-scale bounded-memory result within the 5% acceptance gate."""
    committed = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_trace.json").read_text()
    )
    memory = committed["metrics"]["bounded_memory"]
    assert memory["events"] >= 300_000  # >= 10x the fig4 trace
    assert memory["share"] <= 0.05
    assert memory["peak_tracked_events_ratio"] >= 20.0
    assert committed["metrics"]["byte_identity"]["identical"] is True
    assert committed["metrics"]["throughput"]["speedup"] > 0
