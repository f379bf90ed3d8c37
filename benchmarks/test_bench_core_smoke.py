"""Smoke tests for the bench_core harness (tiny workloads).

The real trajectory gate runs in the ``bench-core`` CI job at full
scale; these tests only prove the harness itself works — both engines
run, the payload has the committed shape, and the check logic flags
regressions — so a harness bug cannot silently green the gate.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_core


def test_smoke_payload_shape_and_speedups():
    payload = bench_core.run_benchmarks("smoke")
    assert payload["schema"] == bench_core.SCHEMA
    metrics = payload["metrics"]
    for name in ("des_dispatch", "des_steady", "memsim_stream"):
        entry = metrics[name]
        assert entry["legacy"] > 0 and entry["current"] > 0
        assert entry["speedup"] == entry["current"] / entry["legacy"]
    boot = metrics["osmodel_boot"]
    assert boot["legacy"] > 0 and boot["current"] > 0
    assert len(boot["ratios"]) == bench_core.SCALES["smoke"]["pairs"]
    assert boot["speedup"] == sorted(boot["ratios"])[1]  # median of 3
    fig3 = metrics["fig3_point"]
    assert fig3["elapsed_sim_s"] > 0
    assert fig3["events_dispatched"] > 0
    # The payload must round-trip through JSON (it is committed).
    json.loads(json.dumps(payload))


def test_check_passes_against_itself_and_flags_regressions():
    def payload(speedup, sim_s):
        entry = {"legacy": 1.0, "current": speedup, "speedup": speedup,
                 "unit": "events/s"}
        return {
            "schema": bench_core.SCHEMA,
            "metrics": {
                "des_dispatch": dict(entry),
                "des_steady": dict(entry),
                "memsim_stream": dict(entry),
                "fig3_point": {"elapsed_sim_s": sim_s},
            },
        }

    committed = payload(5.0, 75.0)
    assert bench_core.check(payload(5.0, 75.0), committed, 0.2) == []
    # Within tolerance: 4.2x against a committed 5.0x at 20%.
    assert bench_core.check(payload(4.2, 75.0), committed, 0.2) == []
    # Below the floor: 3.9x < 5.0x * 0.8.
    problems = bench_core.check(payload(3.9, 75.0), committed, 0.2)
    assert len(problems) == 3 and all("speedup" in p for p in problems)
    # Any drift in the deterministic simulated time fails.
    problems = bench_core.check(payload(5.0, 75.0001), committed, 0.2)
    assert problems and "deterministic" in problems[0]


def test_check_flags_an_osmodel_boot_regression():
    def payload(boot_speedup):
        metrics = {
            name: {"legacy": 1.0, "current": 5.0, "speedup": 5.0,
                   "unit": "events/s"}
            for name in ("des_dispatch", "des_steady", "memsim_stream")
        }
        metrics["osmodel_boot"] = {
            "legacy": 1.0, "current": boot_speedup, "speedup": boot_speedup,
            "ratios": [boot_speedup], "unit": "boots/s",
        }
        metrics["fig3_point"] = {"elapsed_sim_s": 75.0}
        return {"schema": bench_core.SCHEMA, "metrics": metrics}

    committed = payload(20.0)
    assert bench_core.check(payload(16.5), committed, 0.2) == []
    problems = bench_core.check(payload(15.5), committed, 0.2)
    assert len(problems) == 1 and problems[0].startswith("osmodel_boot:")


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
