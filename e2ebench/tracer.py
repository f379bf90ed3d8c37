"""Run ``python -m repro`` with timers around each layer's entry points.

Usage (from the repository root)::

    python3 e2ebench/tracer.py OUT_DIR repro-arguments...

The launcher installs an import hook, then runs the ``repro`` package as
``python -m repro`` would.  When a module listed in :data:`TARGETS` is
first imported, the hook wraps the named functions and methods with a
timer, so nothing is imported earlier than the program itself would
import it: a forked service worker still pays for importing
``repro.engine.sweeps`` and the benchmark sees that cost.

Timings live in this module's own tables, never in the program's
``MetricsRegistry``: the engine stores each worker's registry snapshot
in the cache and replays it on warm hits, so spans recorded there would
invent time in warm runs.

Each process writes one JSON record to OUT_DIR: the launched process at
exit, a forked child whenever its outermost timed call returns (forked
workers leave through ``os._exit`` and never run ``atexit``).  A record
holds, per layer, the call count, the self time (time inside the
layer's entry points minus time inside nested timed calls) and the
inclusive time of the outermost calls.
"""

from __future__ import annotations

import atexit
import functools
import json
import os
import runpy
import sys
import threading
import time

#: module -> ((attribute path, layer), ...).  ``*_point`` matches every
#: module-level function with that suffix (the engine's sweep workers).
TARGETS: dict[str, tuple[tuple[str, str], ...]] = {
    "repro.cluster.des": (("Simulator.run", "cluster.des"),),
    "repro.cluster.fabric": (("Fabric.deliver", "cluster.fabric"),),
    "repro.cluster.mpi": (("MpiJob.run", "cluster.mpi"),),
    "repro.cluster.cluster": (("tibidabo", "cluster.mpi"),),
    "repro.osmodel.system": (("OSModel.boot", "osmodel.boot"),),
    "repro.kernels.membench": (("MemBench.measure", "kernels.membench"),),
    "repro.kernels.latbench": (("LatBench.measure", "kernels.membench"),),
    "repro.memsim.bandwidth": (("measure_stream", "memsim.stream"),),
    "repro.engine.engine": (("ExperimentEngine.run", "engine.dispatch"),),
    "repro.engine.sweeps": (("*_point", "engine.worker"),),
    "repro.engine.cache": (
        ("ResultCache.get", "engine.cache.get"),
        ("ResultCache.put", "engine.cache.put"),
    ),
    "repro.engine.hashing": (("content_key", "engine.hash"),),
    "repro.engine.journal": (("RunJournal.append", "journal.append"),),
    "repro.obs.report": (("build_run_report", "tracing.analysis"),),
    "repro.tracing.chrome": (("write_chrome_trace", "tracing.chrome"),),
    "repro.tracing.stream": (
        ("TraceStreamAnalyzer.state", "tracing.stream.ingest"),
        ("TraceStreamAnalyzer.comm", "tracing.stream.ingest"),
        ("TraceStreamAnalyzer.finalize", "tracing.stream.finalize"),
    ),
    "repro.obs.bundle": (
        ("write_bundle_manifest", "obs.bundle"),
        ("file_digests", "obs.bundle"),
    ),
    "repro.metrics.export": (("write_metrics", "metrics.export"),),
}


class Recorder:
    """Per-process layer tables and the per-thread stack of open calls."""

    def __init__(self, out_dir: str, role: str) -> None:
        self.out_dir = out_dir
        self.role = role
        self.ident = f"{role}-{os.getpid()}-{os.urandom(4).hex()}"
        self.lock = threading.Lock()
        self.local = threading.local()
        # layer -> [calls, self seconds, inclusive seconds]
        self.layers: dict[str, list[float]] = {}
        # engine sweeps: parent-seen slot time and workers' own wall
        self.sweeps = {"computed": 0, "slot_s": 0.0, "worker_wall_s": 0.0}
        self.cache_gets = {"hits": 0, "misses": 0}

    def stack(self) -> list:
        stack = getattr(self.local, "stack", None)
        if stack is None:
            stack = self.local.stack = []
        return stack

    def add(self, layer: str, self_s: float, incl_s: float | None) -> None:
        with self.lock:
            row = self.layers.setdefault(layer, [0, 0.0, 0.0])
            row[0] += 1
            row[1] += self_s
            if incl_s is not None:
                row[2] += incl_s

    def flush(self) -> None:
        record = {
            "role": self.role,
            "layers": {
                name: {"calls": int(c), "self_s": s, "incl_s": i}
                for name, (c, s, i) in sorted(self.layers.items())
            },
            "sweeps": dict(self.sweeps),
            "cache_gets": dict(self.cache_gets),
        }
        path = os.path.join(self.out_dir, f"{self.ident}.json")
        with open(path + ".tmp", "w", encoding="utf-8") as handle:
            json.dump(record, handle)
        os.replace(path + ".tmp", path)


_recorder: Recorder | None = None


def _after_fork_in_child() -> None:
    global _recorder
    _recorder = Recorder(_recorder.out_dir, "child")


def _flush_at_exit() -> None:
    if _recorder.role == "main":
        _recorder.flush()


def _observe_sweep(run) -> None:
    """Fold one ``ExperimentEngine.run`` manifest into the sweep totals.

    The parent sees each computed point for ``elapsed * slots`` seconds
    of worker-slot time; the manifest holds each worker's own wall.
    """
    manifest = run.manifest
    computed = [
        p for p in manifest.points if not p.cache_hit and not p.resumed
    ]
    if not computed:
        return
    slots = min(manifest.jobs, len(computed)) if manifest.executor == "process" else 1
    totals = _recorder.sweeps
    totals["computed"] += len(computed)
    totals["slot_s"] += manifest.elapsed_seconds * slots
    totals["worker_wall_s"] += sum(p.wall_seconds for p in computed)


def _observe_cache_get(payload) -> None:
    _recorder.cache_gets["misses" if payload is None else "hits"] += 1


OBSERVERS = {
    "engine.dispatch": _observe_sweep,
    "engine.cache.get": _observe_cache_get,
}


def timed(fn, layer: str):
    """Wrap *fn* so each call adds to *layer*'s counters."""
    observe = OBSERVERS.get(layer)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        recorder = _recorder
        stack = recorder.stack()
        # frame: [layer, nested timed seconds]
        frame = [layer, 0.0]
        outermost = all(f[0] != layer for f in stack)
        stack.append(frame)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            stack.pop()
            if stack:
                stack[-1][1] += elapsed
            recorder.add(layer, elapsed - frame[1], elapsed if outermost else None)
        if observe is not None:
            observe(result)
        if not stack and recorder.role == "child":
            recorder.flush()
        return result

    return wrapper


def _wrap_attribute(module, path: str, layer: str) -> None:
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    raw = vars(owner)[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(timed(raw.__func__, layer)))
    else:
        setattr(owner, attr, timed(raw, layer))


def wrap_module(module) -> None:
    for path, layer in TARGETS[module.__name__]:
        if path.startswith("*"):
            suffix = path[1:]
            for name, value in list(vars(module).items()):
                if (
                    name.endswith(suffix) and callable(value)
                    and getattr(value, "__module__", None) == module.__name__
                ):
                    setattr(module, name, timed(value, layer))
        else:
            _wrap_attribute(module, path, layer)


class WrapOnImport:
    """Meta-path finder that wraps a target module right after it runs."""

    def find_spec(self, name, path, target=None):
        if name not in TARGETS:
            return None
        for finder in sys.meta_path:
            if finder is self or not hasattr(finder, "find_spec"):
                continue
            spec = finder.find_spec(name, path, target)
            if spec is not None:
                break
        else:
            return None
        inner = spec.loader.exec_module

        def exec_module(module):
            inner(module)
            wrap_module(module)

        # Source loaders are created per module, so this patches only
        # the loader of the module being imported.
        spec.loader.exec_module = exec_module
        return spec


def main(argv: list[str]) -> None:
    global _recorder
    if len(argv) < 2:
        raise SystemExit("usage: tracer.py OUT_DIR repro-arguments...")
    out_dir, args = argv[0], argv[1:]
    os.makedirs(out_dir, exist_ok=True)
    _recorder = Recorder(out_dir, "main")
    os.register_at_fork(after_in_child=_after_fork_in_child)
    atexit.register(_flush_at_exit)
    sys.meta_path.insert(0, WrapOnImport())
    sys.argv = ["repro", *args]
    runpy.run_module("repro", run_name="__main__", alter_sys=True)


if __name__ == "__main__":
    main(sys.argv[1:])
