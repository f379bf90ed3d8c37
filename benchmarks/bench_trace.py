"""Streaming trace-analysis benchmark: throughput, memory, identity.

Produces (and gates against) the committed ``BENCH_trace.json``
trajectory for :mod:`repro.tracing.stream`.  The analyzer and the
frozen batch pipeline in ``_legacy_trace.py`` (the happens-before
graph the analyzer replaced) analyze the same synthetic fig4-shaped
trace at 10x the Figure 4 event count, as interleaved pairs in the
same process (:func:`gate.interleaved_pairs`):

* ``throughput`` — events/sec of the streaming analyzer at its
  8,192-event frontier (ingest + finalize) against the batch pipeline
  (record + analyze).  Streaming pays for bounded memory with wall
  clock; the committed median *speedup* is the machine-independent
  number CI gates, so the overhead cannot silently grow.
* ``bounded_memory`` — events ingested, frontier high-water mark and
  their share.  Fully deterministic: the counts are gated exactly and
  the share against a fixed 5% bound.
* ``byte_identity`` — every pair's streamed report JSON must equal its
  batch report JSON.  The whole point; gated exactly.

Usage::

    PYTHONPATH=src python benchmarks/bench_trace.py --out BENCH_trace.json
    PYTHONPATH=src python benchmarks/bench_trace.py --check BENCH_trace.json \
        --threshold 20%
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate import interleaved_pairs, main

SCHEMA = 1

#: Workload sizes.  "full" is the committed-trajectory configuration —
#: 36 ranks x 850 rounds = 306,000 events, ten times the Figure 4
#: trace; "smoke" keeps the pytest smoke test cheap.
SCALES = {
    "full": {"num_ranks": 36, "rounds": 850, "frontier_limit": 8192,
             "pairs": 25},
    "smoke": {"num_ranks": 8, "rounds": 30, "frontier_limit": 64,
              "pairs": 3},
}
SEED = 7


def run_benchmarks(scale: str = "full") -> dict:
    """Measure everything; returns the BENCH_trace.json payload."""
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
    stream_docs: list[str] = []
    batch_docs: list[str] = []
    runs = []

    def stream_rate() -> float:
        with TraceStreamAnalyzer(
            StreamConfig(frontier_limit=sizes["frontier_limit"])
        ) as analyzer:
            start = time.perf_counter()
            events = build_synthetic_trace(analyzer, **workload)
            result = analyzer.finalize()
            wall = time.perf_counter() - start
            stream_docs.append(
                build_run_report(result, scenario="bench").to_json()
            )
        runs.append((events, result.stats))
        return events / wall

    def batch_rate() -> float:
        recorder = TraceRecorder()
        start = time.perf_counter()
        events = build_synthetic_trace(recorder, **workload)
        batch_docs.append(
            legacy_build_run_report(recorder, scenario="bench").to_json()
        )
        return events / (time.perf_counter() - start)

    throughput = interleaved_pairs(
        batch_rate, stream_rate, sizes["pairs"], "events/s"
    )
    events, stats = runs[0]
    return {
        "schema": SCHEMA,
        "scale": scale,
        "note": (
            "speedup = median ratio of streaming (ingest+finalize) vs "
            "batch (record+analyze, benchmarks/_legacy_trace.py) "
            "events/sec over interleaved pairs on the same 10x-fig4 "
            "synthetic trace, same process, every pair's ratio in "
            "ratios; machine-independent, gated by CI.  bounded_memory "
            "counts and byte_identity are deterministic and gated "
            "exactly, the frontier share against 5%."
        ),
        "metrics": {
            "throughput": throughput,
            "bounded_memory": {
                "events": events,
                "frontier_high_water": stats.frontier_high_water,
                "share": stats.frontier_high_water / events,
                "peak_tracked_events_ratio": (
                    events / stats.frontier_high_water
                ),
                "retired_segments": stats.retired_segments,
                "spill_bytes": stats.spill_bytes,
            },
            "byte_identity": {"identical": stream_docs == batch_docs},
        },
    }


if __name__ == "__main__":
    raise SystemExit(main(__doc__, SCALES, run_benchmarks))
