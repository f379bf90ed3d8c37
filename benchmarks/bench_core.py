"""Core hot-path benchmark: DES dispatch, memsim streaming, OS boot,
warm result-cache reads, fig3 point.

Produces (and gates against) the committed ``BENCH_core.json`` perf
trajectory.  Every speed metric is measured on the frozen pre-rewrite
implementation (``_legacy_des.py``, ``_legacy_memsim.py``,
``_legacy_alloc.py``, ``_legacy_cache.py``) and on the current one as
interleaved pairs in the same process (:func:`gate.interleaved_pairs`),
and recorded as the median per-pair *speedup ratio*, so the committed
numbers are comparable across machines: CI does not care how fast its
runner is, only that the current engine still beats the frozen
baseline by (almost) as much as it did when the baseline was committed.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py --out BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_core.py --check BENCH_core.json \
        --threshold 20%

``--check`` exits non-zero when any speedup regressed by more than the
threshold against the committed file, or when the (deterministic)
simulated fig3 elapsed time changed at all (:func:`gate.check`).
"""

from __future__ import annotations

import random
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from gate import interleaved_pairs, main

SCHEMA = 1

#: Workload sizes.  "full" is the committed-trajectory configuration;
#: "smoke" keeps the pytest smoke test and quick local runs cheap.
#: A full-scale boot is the Snowball's 203,776 frames (796 MiB of 4 KiB
#: pages) plus the page-alloc scenario's default 8 MiB array.
SCALES = {
    "full": {"wide": 200_000, "steady": 200_000, "depth": 512,
             "array_bytes": 2 << 20,
             "boot_frames": 203_776, "boot_pages": 2048, "pairs": 25},
    "smoke": {"wide": 2_000, "steady": 2_000, "depth": 64,
              "array_bytes": 64 << 10,
              "boot_frames": 16_384, "boot_pages": 64, "pairs": 3},
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
# engine cache: the reads of a warm bundle
# ---------------------------------------------------------------------------

#: A warm ``reproduce-all --seed 7`` reads 81 entries: the trace-report
#: one and 80 small ones.
SMALL_READS = 80


def cached_payload(worker, params: dict) -> dict:
    """*worker*'s value at *params* with its metrics snapshot: the
    payload the engine caches for one point."""
    from repro.metrics.registry import MetricsRegistry, use_registry

    registry = MetricsRegistry()
    with use_registry(registry):
        value = worker(params)
    return {"value": value, "metrics": registry.snapshot()}


def cache_read_rate(cache, big_key: dict, small_key: dict) -> float:
    """Entries read per second over one warm bundle's worth of reads:
    the trace-report entry once, then a median-size one
    :data:`SMALL_READS` times."""
    start = time.perf_counter()
    cache.get(big_key)
    for _ in range(SMALL_READS):
        cache.get(small_key)
    return (1 + SMALL_READS) / (time.perf_counter() - start)


def cache_get_entry(pairs: int) -> dict:
    """``cache_get``: the frozen cache reading the entries it wrote
    against the current cache reading its own, same payloads: the
    bundle's real trace-report payload, Chrome trace included, and a
    Figure 3 point's."""
    from _legacy_cache import LegacyResultCache

    from repro.engine.cache import ResultCache
    from repro.engine.sweeps import cluster_time_point, trace_report_point

    big_key = {"experiment": "trace-report", "app": "bigdft", "seed": 7}
    small_key = {"experiment": "cluster-elapsed", "app": "linpack",
                 "app_args": {}, "num_nodes": 96, "seed": 7, "cores": 16}
    big = cached_payload(trace_report_point, {"app": "bigdft", "seed": 7})
    small = cached_payload(cluster_time_point, dict(small_key))
    with tempfile.TemporaryDirectory(prefix="bench-cache-") as tmp:
        legacy = LegacyResultCache(Path(tmp) / "legacy")
        current = ResultCache(Path(tmp) / "current")
        for cache in (legacy, current):
            cache.put(big_key, big)
            cache.put(small_key, small)
            if (cache.get(big_key), cache.get(small_key)) != (big, small):
                raise RuntimeError(f"{type(cache).__name__} lost a payload")
        entry = interleaved_pairs(
            lambda: cache_read_rate(legacy, big_key, small_key),
            lambda: cache_read_rate(current, big_key, small_key),
            pairs, "entries/s",
        )
        if legacy.misses or current.misses:
            raise RuntimeError("a timed cache read missed")
    return entry


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
    pairs = sizes["pairs"]
    return {
        "schema": SCHEMA,
        "scale": scale,
        "note": (
            "speedup = median ratio of current engine vs the frozen "
            "pre-rewrite baseline (benchmarks/_legacy_des.py, "
            "_legacy_memsim.py, _legacy_alloc.py, _legacy_cache.py) over "
            "interleaved pairs in the same process, every pair's ratio in "
            "ratios; machine-independent, gated by CI"
        ),
        "metrics": {
            "des_dispatch": interleaved_pairs(
                lambda: des_wide_rate(LegacySimulator, sizes["wide"]),
                lambda: des_wide_rate(Simulator, sizes["wide"]),
                pairs, "events/s",
            ),
            "des_steady": interleaved_pairs(
                lambda: des_steady_rate(LegacySimulator, sizes["steady"],
                                        sizes["depth"]),
                lambda: des_steady_rate(Simulator, sizes["steady"],
                                        sizes["depth"]),
                pairs, "events/s",
            ),
            "memsim_stream": interleaved_pairs(
                lambda: memsim_rate("legacy", sizes["array_bytes"]),
                lambda: memsim_rate("current", sizes["array_bytes"]),
                pairs, "lines/s",
            ),
            "osmodel_boot": interleaved_pairs(
                lambda: boot_rate(LegacyBuddyAllocator, sizes["boot_frames"],
                                  sizes["boot_pages"]),
                lambda: boot_rate(BuddyAllocator, sizes["boot_frames"],
                                  sizes["boot_pages"]),
                pairs, "boots/s",
            ),
            "cache_get": cache_get_entry(pairs),
            "fig3_point": fig3_point(),
        },
    }


if __name__ == "__main__":
    raise SystemExit(main(__doc__, SCALES, run_benchmarks))
