"""Core hot-path benchmark: DES dispatch, memsim streaming, OS boot,
fig3 point.

Produces (and gates against) the committed ``BENCH_core.json`` perf
trajectory.  Every speed metric is measured twice in the same process
— once on the frozen pre-rewrite implementation (``_legacy_des.py``,
``_legacy_memsim.py``, ``_legacy_alloc.py``) and once on the current
one — and recorded as a *speedup ratio*, so the committed numbers are
comparable across machines: CI does not care how fast its runner is,
only that the current engine still beats the frozen baseline by
(almost) as much as it did when the baseline was committed.

``osmodel_boot`` is measured as interleaved legacy/current pairs and
gated on the median of the per-pair ratios (:func:`interleaved_pairs`);
the other ratios are still best-of-N blocks.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py --out BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_core.py --check BENCH_core.json \
        --threshold 20%

``--check`` exits non-zero when any speedup regressed by more than the
threshold against the committed file, or when the (deterministic)
simulated fig3 elapsed time changed at all.
"""

from __future__ import annotations

import argparse
import json
import random
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

SCHEMA = 1

#: Workload sizes.  "full" is the committed-trajectory configuration;
#: "smoke" keeps the pytest smoke test and quick local runs cheap.
#: A full-scale boot is the Snowball's 203,776 frames (796 MiB of 4 KiB
#: pages) plus the page-alloc scenario's default 8 MiB array.
SCALES = {
    "full": {"wide": 200_000, "steady": 200_000, "depth": 512,
             "array_bytes": 2 << 20, "repeats": 5,
             "boot_frames": 203_776, "boot_pages": 2048, "pairs": 15},
    "smoke": {"wide": 2_000, "steady": 2_000, "depth": 64,
              "array_bytes": 64 << 10, "repeats": 1,
              "boot_frames": 16_384, "boot_pages": 64, "pairs": 3},
}


def _best(fn, repeats: int) -> float:
    """Best-of-N wall-clock rate (max events/sec over repeats)."""
    return max(fn() for _ in range(repeats))


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


# ---------------------------------------------------------------------------
# DES: event-dispatch throughput
# ---------------------------------------------------------------------------


def des_wide_rate(simulator_cls, n: int) -> float:
    """Pre-schedule *n* events across 1000 timestamps, then drain.

    This is the dispatch benchmark the ≥5× acceptance number anchors
    on: a deep queue drained in one run(), the shape of a large
    many-rank simulation step.
    """
    sim = simulator_cls()
    callback = lambda: None  # noqa: E731
    for i in range(n):
        sim.schedule(float(i % 1000), callback)
    start = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - start)


def des_steady_rate(simulator_cls, n: int, depth: int) -> float:
    """Self-rescheduling workload holding a constant queue depth."""
    sim = simulator_cls()
    remaining = [n]

    def tick() -> None:
        remaining[0] -= 1
        if remaining[0] >= depth:
            sim.schedule(1.0, tick)

    for i in range(depth):
        sim.schedule(float(i), tick)
    start = time.perf_counter()
    sim.run()
    return n / (time.perf_counter() - start)


# ---------------------------------------------------------------------------
# memsim: line-granular streaming throughput
# ---------------------------------------------------------------------------


def memsim_rate(kind: str, array_bytes: int) -> float:
    """Simulated cache-line accesses per second for one stride-1 pass
    set (1 warmup + 2 measured) on the Tibidabo node model."""
    from repro.arch.machines import catalog
    from repro.memsim.paging import AddressSpace
    from repro.osmodel.system import OSModel

    machine = catalog()["NVIDIA Tegra2 (Tibidabo node)"]
    address_space = AddressSpace(OSModel.boot(machine, seed=1).allocator)
    mapping = address_space.mmap(array_bytes)

    if kind == "legacy":
        from _legacy_memsim import LegacyMemoryHierarchy, legacy_measure_stream

        hierarchy = LegacyMemoryHierarchy(machine, address_space, seed=1)
        measure = legacy_measure_stream
    else:
        from repro.memsim.bandwidth import measure_stream
        from repro.memsim.hierarchy import MemoryHierarchy

        hierarchy = MemoryHierarchy(machine, address_space, seed=1)
        measure = measure_stream

    start = time.perf_counter()
    cost = measure(
        hierarchy,
        base_vaddr=mapping.virtual_base,
        array_bytes=array_bytes,
        elem_bytes=4,
        stride_elems=1,
        issue_cycles_per_element=2.0,
        warmup_passes=1,
        measure_passes=2,
    )
    elapsed = time.perf_counter() - start
    lines = sum(cost.level_hits.values()) * 3 // 2  # + the warmup pass
    return lines / elapsed


# ---------------------------------------------------------------------------
# osmodel: one fragmented boot plus the allocation that follows it
# ---------------------------------------------------------------------------


def boot_rate(allocator_cls, frames: int, pages: int) -> float:
    """Boots per second: a pool of *frames* fragmented at 0.85 (X1's
    setting), then one allocation of *pages*, as ``page_alloc_point``
    does through ``OSModel.boot``."""
    start = time.perf_counter()
    allocator = allocator_cls(frames)
    allocator.fragment(0.85, random.Random(7))
    allocator.allocate(pages)
    return 1.0 / (time.perf_counter() - start)


# ---------------------------------------------------------------------------
# End-to-end: one fig3 cluster-scaling point
# ---------------------------------------------------------------------------


def fig3_point() -> dict[str, float]:
    """One Figure-3 scaling point end-to-end through the MPI runtime.

    ``elapsed_sim_s`` is virtual time — fully deterministic, gated
    exactly.  ``events_per_s`` is wall-clock dispatch throughput of the
    current engine under the real workload (recorded for the
    trajectory, not gated: it is machine-dependent).
    """
    from repro.engine.sweeps import cluster_time_point
    from repro.metrics.registry import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    params = {
        "app": "linpack", "app_args": None,
        "num_nodes": 32, "seed": 7, "cores": 64,
    }
    with use_registry(registry):
        start = time.perf_counter()
        result = cluster_time_point(params)
        elapsed = time.perf_counter() - start
    snapshot = registry.snapshot()
    events = float(snapshot["counters"]["des.events_dispatched"]["value"])
    return {
        "elapsed_sim_s": result["elapsed_s"],
        "events_dispatched": events,
        "events_per_s": events / elapsed,
        "wall_s": elapsed,
    }


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------


def run_benchmarks(scale: str = "full") -> dict:
    """Measure everything; returns the BENCH_core.json payload."""
    from _legacy_alloc import BuddyAllocator as LegacyBuddyAllocator
    from _legacy_des import Simulator as LegacySimulator

    from repro.cluster.des import Simulator
    from repro.osmodel.page_allocator import BuddyAllocator

    sizes = SCALES[scale]
    repeats = sizes["repeats"]

    def ratio_entry(legacy: float, current: float, unit: str) -> dict:
        return {
            "legacy": legacy,
            "current": current,
            "speedup": current / legacy,
            "unit": unit,
        }

    dispatch = ratio_entry(
        _best(lambda: des_wide_rate(LegacySimulator, sizes["wide"]), repeats),
        _best(lambda: des_wide_rate(Simulator, sizes["wide"]), repeats),
        "events/s",
    )
    steady = ratio_entry(
        _best(lambda: des_steady_rate(LegacySimulator, sizes["steady"],
                                      sizes["depth"]), repeats),
        _best(lambda: des_steady_rate(Simulator, sizes["steady"],
                                      sizes["depth"]), repeats),
        "events/s",
    )
    memsim = ratio_entry(
        _best(lambda: memsim_rate("legacy", sizes["array_bytes"]), repeats),
        _best(lambda: memsim_rate("current", sizes["array_bytes"]), repeats),
        "lines/s",
    )
    boot = interleaved_pairs(
        lambda: boot_rate(LegacyBuddyAllocator, sizes["boot_frames"],
                          sizes["boot_pages"]),
        lambda: boot_rate(BuddyAllocator, sizes["boot_frames"],
                          sizes["boot_pages"]),
        sizes["pairs"], "boots/s",
    )
    return {
        "schema": SCHEMA,
        "scale": scale,
        "note": (
            "speedup = current engine vs the frozen pre-rewrite baseline "
            "(benchmarks/_legacy_des.py, _legacy_memsim.py, "
            "_legacy_alloc.py), measured in the same process; "
            "machine-independent, gated by CI"
        ),
        "metrics": {
            "des_dispatch": dispatch,
            "des_steady": steady,
            "memsim_stream": memsim,
            "osmodel_boot": boot,
            "fig3_point": fig3_point(),
        },
    }


def check(current: dict, committed: dict, threshold: float) -> list[str]:
    """Regression messages (empty = gate passes)."""
    problems: list[str] = []
    for name, entry in committed["metrics"].items():
        if "speedup" not in entry:
            continue
        want = entry["speedup"]
        got = current["metrics"][name]["speedup"]
        floor = want * (1.0 - threshold)
        if got < floor:
            problems.append(
                f"{name}: speedup {got:.2f}x fell below {floor:.2f}x "
                f"(committed {want:.2f}x - {threshold:.0%})"
            )
    want_sim = committed["metrics"]["fig3_point"]["elapsed_sim_s"]
    got_sim = current["metrics"]["fig3_point"]["elapsed_sim_s"]
    if got_sim != want_sim:
        problems.append(
            f"fig3_point: simulated elapsed_s changed "
            f"{want_sim!r} -> {got_sim!r} (must be deterministic)"
        )
    return problems


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=Path, help="write BENCH_core.json here")
    parser.add_argument("--check", type=Path,
                        help="compare against a committed BENCH_core.json")
    parser.add_argument("--threshold", default="20%",
                        help="allowed speedup regression (default 20%%)")
    parser.add_argument("--scale", choices=sorted(SCALES), default="full")
    args = parser.parse_args(argv)

    from repro.obs.diff import parse_threshold

    threshold = parse_threshold(args.threshold)
    payload = run_benchmarks(args.scale)

    for name, entry in payload["metrics"].items():
        if "speedup" in entry:
            pairs = (f", median of {len(entry['ratios'])} pairs"
                     if "ratios" in entry else "")
            print(f"{name}: legacy {entry['legacy']:,.0f} -> current "
                  f"{entry['current']:,.0f} {entry['unit']} "
                  f"({entry['speedup']:.2f}x{pairs})")
        else:
            print(f"{name}: sim {entry['elapsed_sim_s']:.3f} s, "
                  f"{entry['events_per_s']:,.0f} events/s wall")

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


if __name__ == "__main__":
    raise SystemExit(main())
