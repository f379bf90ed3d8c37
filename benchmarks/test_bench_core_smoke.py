"""Smoke tests for the bench_core harness (tiny workloads).

The real trajectory gate runs in the ``bench-core`` CI job at full
scale; these tests only prove the harness itself works — both engines
run, the payload has the committed shape, and the shared gate flags
regressions — so a harness bug cannot silently green the gate.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_core
import gate

RATIO_ENTRIES = (
    "des_dispatch", "des_steady", "memsim_stream", "osmodel_boot", "cache_get",
)


def test_smoke_payload_shape_and_speedups():
    payload = bench_core.run_benchmarks("smoke")
    assert payload["schema"] == bench_core.SCHEMA
    metrics = payload["metrics"]
    for name in RATIO_ENTRIES:
        entry = metrics[name]
        assert entry["legacy"] > 0 and entry["current"] > 0
        assert len(entry["ratios"]) == bench_core.SCALES["smoke"]["pairs"]
        assert entry["speedup"] == statistics.median(entry["ratios"])
    fig3 = metrics["fig3_point"]
    assert fig3["elapsed_sim_s"] > 0
    assert fig3["events_dispatched"] > 0
    # The payload must round-trip through JSON (it is committed).
    json.loads(json.dumps(payload))


def _payload(speedup=5.0, boot=20.0, sim_s=75.0):
    def entry(value):
        return {"legacy": 1.0, "current": value, "speedup": value,
                "ratios": [value], "unit": "events/s"}

    return {
        "schema": bench_core.SCHEMA,
        "metrics": {
            "des_dispatch": entry(speedup),
            "des_steady": entry(speedup),
            "memsim_stream": entry(speedup),
            "osmodel_boot": entry(boot),
            "fig3_point": {"elapsed_sim_s": sim_s},
        },
    }


def test_check_passes_against_itself_and_flags_regressions():
    committed = _payload()
    assert gate.check(_payload(), committed, 0.2) == []
    # Within tolerance: 4.2x against a committed 5.0x at 20%.
    assert gate.check(_payload(4.2, boot=16.5), committed, 0.2) == []
    # Below the floor: 3.9x < 5.0x * 0.8, named per entry.
    problems = gate.check(_payload(3.9), committed, 0.2)
    assert [p.split(":")[0] for p in problems] == [
        "des_dispatch", "des_steady", "memsim_stream",
    ]
    assert all("speedup" in p for p in problems)
    problems = gate.check(_payload(boot=15.5), committed, 0.2)
    assert len(problems) == 1 and problems[0].startswith("osmodel_boot:")
    # Any drift in the deterministic simulated time fails.
    problems = gate.check(_payload(sim_s=75.0001), committed, 0.2)
    assert len(problems) == 1
    assert problems[0].startswith("fig3_point: elapsed_sim_s changed")


def test_interleaved_pairs_alternate_in_a_seeded_order():
    calls = []

    def side(name, rate):
        def run():
            calls.append(name)
            return rate
        return run

    entry = bench_core.interleaved_pairs(
        side("legacy", 2.0), side("current", 8.0), 6, "ops/s"
    )
    pairs = [tuple(calls[i:i + 2]) for i in range(0, 12, 2)]
    assert set(pairs) == {("legacy", "current"), ("current", "legacy")}
    assert entry["ratios"] == [4.0] * 6 and entry["speedup"] == 4.0
    calls.clear()
    bench_core.interleaved_pairs(
        side("legacy", 2.0), side("current", 8.0), 6, "ops/s"
    )
    assert [tuple(calls[i:i + 2]) for i in range(0, 12, 2)] == pairs


def test_committed_baseline_records_the_5x_campaign():
    """The committed trajectory file must exist, parse, and record the
    >=5x DES dispatch improvement with both raw numbers present."""
    committed = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_core.json").read_text()
    )
    dispatch = committed["metrics"]["des_dispatch"]
    assert dispatch["legacy"] > 0
    assert dispatch["current"] > dispatch["legacy"]
    assert dispatch["speedup"] >= 5.0


def test_committed_ratios_are_medians_of_their_pairs():
    committed = json.loads(
        (Path(__file__).resolve().parent.parent / "BENCH_core.json").read_text()
    )
    for name in RATIO_ENTRIES:
        entry = committed["metrics"][name]
        assert entry["speedup"] == statistics.median(entry["ratios"])
