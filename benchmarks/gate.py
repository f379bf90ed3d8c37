"""One way to time a speed ratio and one way to gate it.

``bench_core.py`` and ``bench_trace.py`` each define only their
workload sizes (``SCALES``) and a ``run_benchmarks(scale)`` that builds
a payload; this module times every ratio the same way
(:func:`interleaved_pairs`), gates every committed ``BENCH_*.json`` the
same way (:func:`check`), and gives both scripts one command line
(:func:`main`: ``--out``, ``--check``, ``--threshold``, ``--scale``).

A ratio entry is ``{legacy, current, speedup, ratios, unit}``: the
median legacy and current rates, the median per-pair ratio and every
pair's ratio, so a reader can compute any other summary from the
committed file.  ``--check`` exits 1 when a gated number regressed.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
from pathlib import Path

#: Deterministic fields gated for exact equality, as (entry, field);
#: each is read only when the committed file has the entry.
EXACT_FIELDS = (
    ("fig3_point", "elapsed_sim_s"),
    ("bounded_memory", "events"),
    ("bounded_memory", "frontier_high_water"),
)

#: The largest share of the streamed events the analyzer's frontier may
#: hold at once.  A constant, not read from the committed file, so a
#: re-baseline cannot loosen it.
MAX_FRONTIER_SHARE = 0.05


def interleaved_pairs(legacy, current, pairs: int, unit: str) -> dict:
    """Time *legacy* and *current* (each returns a rate) in *pairs*
    back-to-back pairs, which of the two goes first drawn from a
    fixed-seed RNG, so every run uses the same order.

    A load burst then lands inside one pair, where it moves at most
    that pair's ratio, instead of on a whole block of one side's
    repeats.  ``speedup`` is the median of the per-pair ratios, all of
    which are kept in ``ratios``.
    """
    order = random.Random(0)
    legacy_rates: list[float] = []
    current_rates: list[float] = []
    for _ in range(pairs):
        if order.random() < 0.5:
            legacy_rates.append(legacy())
            current_rates.append(current())
        else:
            current_rates.append(current())
            legacy_rates.append(legacy())
    ratios = [c / l for l, c in zip(legacy_rates, current_rates)]
    return {
        "legacy": statistics.median(legacy_rates),
        "current": statistics.median(current_rates),
        "speedup": statistics.median(ratios),
        "ratios": ratios,
        "unit": unit,
    }


def check(current: dict, committed: dict, threshold: float) -> list[str]:
    """Regression messages (empty = gate passes).

    Every committed ratio entry must keep ``speedup`` within
    *threshold* of its committed value; the :data:`EXACT_FIELDS` must
    not change at all; the streamed trace report must equal the batch
    one; and the frontier must stay within :data:`MAX_FRONTIER_SHARE`.
    """
    want_metrics = committed["metrics"]
    got_metrics = current["metrics"]
    problems: list[str] = []
    for name, entry in want_metrics.items():
        if "speedup" not in entry:
            continue
        want = entry["speedup"]
        got = got_metrics[name]["speedup"]
        floor = want * (1.0 - threshold)
        if got < floor:
            problems.append(
                f"{name}: speedup {got:.3g}x fell below {floor:.3g}x "
                f"(committed {want:.3g}x - {threshold:.0%})"
            )
    for name, field in EXACT_FIELDS:
        if name not in want_metrics:
            continue
        want = want_metrics[name][field]
        got = got_metrics[name][field]
        if got != want:
            problems.append(
                f"{name}: {field} changed {want!r} -> {got!r} "
                f"(must be deterministic)"
            )
    if ("byte_identity" in want_metrics
            and not got_metrics["byte_identity"]["identical"]):
        problems.append(
            "byte_identity: streamed report diverged from the batch report"
        )
    if "bounded_memory" in want_metrics:
        memory = got_metrics["bounded_memory"]
        if memory["share"] > MAX_FRONTIER_SHARE:
            problems.append(
                f"bounded_memory: frontier high-water "
                f"{memory['frontier_high_water']} is {memory['share']:.2%} "
                f"of {memory['events']} events "
                f"(limit {MAX_FRONTIER_SHARE:.0%})"
            )
    return problems


def describe(name: str, entry: dict) -> str:
    """One printed line per payload entry."""
    if "speedup" in entry:
        return (
            f"{name}: legacy {entry['legacy']:,.0f} -> current "
            f"{entry['current']:,.0f} {entry['unit']} "
            f"({entry['speedup']:.3g}x, median of "
            f"{len(entry['ratios'])} pairs)"
        )
    fields = ", ".join(f"{key} {value}" for key, value in sorted(entry.items()))
    return f"{name}: {fields}"


def main(doc: str, scales: dict, run_benchmarks,
         argv: list[str] | None = None) -> int:
    """The command line both bench scripts share: measure at
    ``--scale``, print every entry, then ``--out`` and/or ``--check``."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write the payload here")
    parser.add_argument("--check", type=Path,
                        help="gate against a committed BENCH_*.json")
    parser.add_argument("--threshold", default="20%",
                        help="allowed speedup regression (default 20%%)")
    parser.add_argument("--scale", choices=sorted(scales), default="full")
    args = parser.parse_args(argv)

    from repro.obs.diff import parse_threshold

    threshold = parse_threshold(args.threshold)
    payload = run_benchmarks(args.scale)
    for name, entry in payload["metrics"].items():
        print(describe(name, entry))

    if args.out:
        args.out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
        print(f"wrote {args.out}")

    if args.check:
        committed = json.loads(args.check.read_text())
        problems = check(payload, committed, threshold)
        if problems:
            for problem in problems:
                print(f"REGRESSION: {problem}", file=sys.stderr)
            return 1
        print(f"bench gate ok (threshold {threshold:.0%})")
    return 0
