"""Smoke test of the end-to-end benchmark: every workload at tiny scale.

Run from the repository root (takes about a minute)::

    python3 e2ebench/test_smoke.py

Each workload runs once untraced and once traced with ``--seconds 1``.
The test asserts that the run passes its output checks, that the final
line reports every metric of ``BENCHMARK.json`` with its unit, and that
the human-readable lines report every metric the benchmark documents
for that workload, with its unit.
"""

from __future__ import annotations

import json
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: The end-to-end metrics each workload prints by name, with units.
PRINTED = {
    "reproduce": {
        "setup_s": "s", "peak_rss_mb": "MB",
        "reproduce_cold_s": "s", "reproduce_warm_s": "s",
    },
    "trace-fig4": {
        "setup_s": "s", "peak_rss_mb": "MB",
        "trace_batch_s": "s", "trace_stream_s": "s",
        "trace_stream_rss_mb": "MB",
    },
    "service": {
        "setup_s": "s", "peak_rss_mb": "MB",
        "svc_cold_p50_ms": "ms", "svc_cold_p90_ms": "ms",
        "svc_cold_jobs_per_s": "jobs/s",
        "svc_warm_p50_ms": "ms", "svc_warm_p99_ms": "ms",
        "svc_warm_rps": "req/s",
    },
}


def run(workload: str, trace: int) -> tuple[dict, list[str]]:
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise AssertionError(
            f"{workload} --trace {trace} exited {proc.returncode}:\n"
            f"{proc.stderr[-3000:]}"
        )
    return json.loads(lines[-1]), lines[:-1]


class SmokeTest(unittest.TestCase):
    def check(self, workload: str, trace: int) -> list[str]:
        result, lines = run(workload, trace)
        self.assertEqual(
            set(result), {"correct", "attempted", "failed", "metrics"}
        )
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        section = "per_layer" if trace else "end_to_end"
        expected = {m["name"]: m["unit"] for m in SPEC[section]}
        self.assertEqual(
            {name: m["unit"] for name, m in result["metrics"].items()},
            expected,
        )
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)
            if not trace:
                self.assertGreater(metric["value"], 0, name)
        return lines

    def check_workload(self, workload: str) -> None:
        lines = self.check(workload, 0)
        printed = {}
        for line in lines:
            fields = line.split()
            if len(fields) == 3:
                printed[fields[0]] = fields[2]
        for name, unit in PRINTED[workload].items():
            self.assertEqual(printed.get(name), unit, name)
        traced = self.check(workload, 1)
        self.assertTrue(any("tracing overhead" in line for line in traced))
        self.assertTrue(any("unattributed" in line for line in traced))

    def test_reproduce(self) -> None:
        self.check_workload("reproduce")

    def test_trace_fig4(self) -> None:
        self.check_workload("trace-fig4")

    def test_service(self) -> None:
        self.check_workload("service")


if __name__ == "__main__":
    unittest.main()
