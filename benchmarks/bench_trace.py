"""Streaming trace-analysis benchmark: throughput, memory, identity.

Produces (and gates against) the committed ``BENCH_trace.json``
trajectory for :mod:`repro.tracing.stream`.  The analyzer and the
frozen batch pipeline in ``_legacy_trace.py`` (the happens-before
graph the analyzer replaced) analyze the same synthetic fig4-shaped
trace at 10x the Figure 4 event count, in the same process:

* ``throughput`` — end-to-end events/sec of the streaming analyzer
  (ingest + finalize, bounded frontier) against the batch pipeline
  (record + analyze).  Streaming pays for bounded memory with wall
  clock; the committed *ratio* is the machine-independent number CI
  gates, so the overhead cannot silently grow.
* ``bounded_memory`` — events ingested, frontier high-water mark and
  their share.  Fully deterministic: gated exactly.
* ``byte_identity`` — the streamed report JSON must equal the batch
  report JSON.  The whole point; gated exactly.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace.py --out BENCH_trace.json
    PYTHONPATH=src python benchmarks/bench_trace.py --check BENCH_trace.json \
        --threshold 20%
    PYTHONPATH=src python benchmarks/bench_trace.py --frontier-gate 5%

``--frontier-gate`` is the acceptance gate the ``trace-stream`` CI job
runs: on the 10x trace the frontier high-water mark must stay within
the given share of total events *and* the reports must be identical.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

SCHEMA = 1

#: Workload sizes.  "full" is the committed-trajectory configuration —
#: 36 ranks x 850 rounds = 306,000 events, ten times the Figure 4
#: trace; "smoke" keeps the pytest smoke test cheap.
SCALES = {
    "full": {"num_ranks": 36, "rounds": 850, "frontier_limit": 8192,
             "repeats": 2},
    "smoke": {"num_ranks": 8, "rounds": 30, "frontier_limit": 64,
              "repeats": 1},
}
SEED = 7


def measure(scale: str) -> dict:
    """One tee-free measurement pass: stream, then batch, then compare."""
    from _legacy_trace import build_run_report as legacy_build_run_report

    from repro.obs import build_run_report
    from repro.tracing import TraceRecorder
    from repro.tracing.stream import (
        StreamConfig,
        TraceStreamAnalyzer,
        build_synthetic_trace,
    )

    sizes = SCALES[scale]
    workload = {
        "num_ranks": sizes["num_ranks"],
        "rounds": sizes["rounds"],
        "seed": SEED,
    }

    with TraceStreamAnalyzer(
        StreamConfig(frontier_limit=sizes["frontier_limit"])
    ) as analyzer:
        start = time.perf_counter()
        events = build_synthetic_trace(analyzer, **workload)
        result = analyzer.finalize()
        stream_wall = time.perf_counter() - start
        stream_doc = build_run_report(result, scenario="bench").to_json()
        stats = result.stats

    recorder = TraceRecorder()
    start = time.perf_counter()
    build_synthetic_trace(recorder, **workload)
    batch_doc = legacy_build_run_report(recorder, scenario="bench").to_json()
    batch_wall = time.perf_counter() - start

    return {
        "events": events,
        "stream_events_per_s": events / stream_wall,
        "batch_events_per_s": events / batch_wall,
        "frontier_high_water": stats.frontier_high_water,
        "retired_segments": stats.retired_segments,
        "spill_bytes": stats.spill_bytes,
        "identical": stream_doc == batch_doc,
    }


def run_benchmarks(scale: str = "full") -> dict:
    """Measure everything; returns the BENCH_trace.json payload."""
    sizes = SCALES[scale]
    passes = [measure(scale) for _ in range(sizes["repeats"])]
    best_stream = max(p["stream_events_per_s"] for p in passes)
    best_batch = max(p["batch_events_per_s"] for p in passes)
    first = passes[0]
    return {
        "schema": SCHEMA,
        "scale": scale,
        "note": (
            "ratio = streaming (ingest+finalize) vs batch (record+analyze) "
            "events/sec on the same 10x-fig4 synthetic trace, same process; "
            "machine-independent, gated by CI.  bounded_memory and "
            "byte_identity are deterministic and gated exactly."
        ),
        "metrics": {
            "throughput": {
                "stream_events_per_s": best_stream,
                "batch_events_per_s": best_batch,
                "ratio": best_stream / best_batch,
                "unit": "events/s",
            },
            "bounded_memory": {
                "events": first["events"],
                "frontier_high_water": first["frontier_high_water"],
                "share": first["frontier_high_water"] / first["events"],
                "peak_tracked_events_ratio": (
                    first["events"] / first["frontier_high_water"]
                ),
                "retired_segments": first["retired_segments"],
                "spill_bytes": first["spill_bytes"],
            },
            "byte_identity": {
                "identical": all(p["identical"] for p in passes),
            },
        },
    }


def check(current: dict, committed: dict, threshold: float) -> list[str]:
    """Regression messages (empty = gate passes)."""
    problems: list[str] = []
    want = committed["metrics"]["throughput"]["ratio"]
    got = current["metrics"]["throughput"]["ratio"]
    floor = want * (1.0 - threshold)
    if got < floor:
        problems.append(
            f"throughput: stream/batch ratio {got:.3f} fell below "
            f"{floor:.3f} (committed {want:.3f} - {threshold:.0%})"
        )
    for name in ("events", "frontier_high_water"):
        want_n = committed["metrics"]["bounded_memory"][name]
        got_n = current["metrics"]["bounded_memory"][name]
        if got_n != want_n:
            problems.append(
                f"bounded_memory: {name} changed {want_n!r} -> {got_n!r} "
                f"(must be deterministic)"
            )
    if not current["metrics"]["byte_identity"]["identical"]:
        problems.append(
            "byte_identity: streamed report diverged from the batch report"
        )
    return problems


def frontier_gate(payload: dict, share_limit: float) -> list[str]:
    """The acceptance gate: bounded memory AND identity, one command."""
    problems: list[str] = []
    memory = payload["metrics"]["bounded_memory"]
    if memory["share"] > share_limit:
        problems.append(
            f"frontier high-water {memory['frontier_high_water']} is "
            f"{memory['share']:.2%} of {memory['events']} events "
            f"(limit {share_limit:.0%})"
        )
    if not payload["metrics"]["byte_identity"]["identical"]:
        problems.append(
            "streamed report diverged from the batch report"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write BENCH_trace.json here")
    parser.add_argument("--check", type=Path,
                        help="compare against a committed BENCH_trace.json")
    parser.add_argument("--frontier-gate", metavar="PCT",
                        help="gate frontier share + byte identity (e.g. 5%%)")
    parser.add_argument("--threshold", default="20%",
                        help="allowed ratio regression (default 20%%)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    from repro.obs.diff import parse_threshold

    threshold = parse_threshold(args.threshold)
    payload = run_benchmarks(args.scale)

    throughput = payload["metrics"]["throughput"]
    memory = payload["metrics"]["bounded_memory"]
    print(f"throughput: stream {throughput['stream_events_per_s']:,.0f} vs "
          f"batch {throughput['batch_events_per_s']:,.0f} events/s "
          f"(ratio {throughput['ratio']:.3f})")
    print(f"bounded_memory: high-water {memory['frontier_high_water']:,} of "
          f"{memory['events']:,} events ({memory['share']:.2%}), "
          f"{memory['retired_segments']} segments, "
          f"{memory['spill_bytes']:,} spill bytes")
    print(f"byte_identity: "
          f"{payload['metrics']['byte_identity']['identical']}")

    if args.out:
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    failed = False
    if args.frontier_gate:
        share_limit = parse_threshold(args.frontier_gate)
        problems = frontier_gate(payload, share_limit)
        for problem in problems:
            print(f"GATE FAILED: {problem}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"frontier gate ok (limit {share_limit:.0%})")

    if args.check:
        committed = json.loads(args.check.read_text())
        problems = check(payload, committed, threshold)
        for problem in problems:
            print(f"REGRESSION: {problem}", file=sys.stderr)
        if problems:
            failed = True
        else:
            print(f"bench gate ok (threshold {threshold:.0%})")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
