"""Per-layer figures of a traced pass, built from the tracer's records.

A traced pass runs one workload's commands under ``tracer.py``; every
process it starts leaves one JSON record (see ``tracer.py``).  This
module sums those records into per-layer self time, share of wall time
and call counts, and prints them as a table.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

import tracer

_ENTRY_POINTS: dict[str, list[str]] = {}
for _module, _targets in tracer.TARGETS.items():
    for _path, _layer in _targets:
        _ENTRY_POINTS.setdefault(_layer, []).append(
            f"{_module}.{_path}" if _path.startswith("*") else _path
        )

#: (layer as the tracer names it, the entry points it times), in the
#: order of ``tracer.TARGETS``, the one list of timed layers.
LAYERS = tuple((layer, ", ".join(points)) for layer, points in _ENTRY_POINTS.items())

#: The ROADMAP's budget for instrumentation cost, as a share of wall.
OVERHEAD_TARGET = 0.05


class Pass:
    """The records of one traced command (or server) and its wall times.

    ``untraced_s`` is the wall time of the same command without the
    tracer, so ``wall_s - untraced_s`` is the tracing overhead.
    """

    def __init__(self, name: str, trace_dir: Path, wall_s: float,
                 untraced_s: float) -> None:
        self.name = name
        self.wall_s = wall_s
        self.untraced_s = untraced_s
        self.records = [
            json.loads(path.read_text(encoding="utf-8"))
            for path in sorted(Path(trace_dir).glob("*.json"))
        ]
        if not any(r["role"] == "main" for r in self.records):
            raise RuntimeError(f"traced pass {name}: no record from the main process")

    def layer(self, name: str, role: str | None = None) -> dict:
        """Calls, self and inclusive seconds of *name* over the processes."""
        total = {"calls": 0, "self_s": 0.0, "incl_s": 0.0}
        for record in self.records:
            if role is not None and record["role"] != role:
                continue
            row = record["layers"].get(name)
            if row:
                for key in total:
                    total[key] += row[key]
        return total

    def summed(self, section: str, key: str) -> float:
        return sum(r[section][key] for r in self.records)

    def unattributed_s(self) -> float:
        """Wall time the main process spent outside every timed layer."""
        attributed = sum(
            self.layer(name, role="main")["self_s"] for name, _ in LAYERS
        )
        return self.wall_s - attributed


class Phase:
    """Every traced pass of one phase (say, the cold ``reproduce-all``).

    Layer figures are means over the passes.  The tracing overhead is
    the fastest traced wall time minus the fastest untraced one: the
    machine's noise only ever adds time, so minima compare best.
    """

    def __init__(self, name: str, passes: list[Pass]) -> None:
        self.name = name
        self.passes = passes
        self.wall_s = statistics.mean(p.wall_s for p in passes)
        self.untraced_s = min(p.untraced_s for p in passes)
        self.overhead_s = min(p.wall_s for p in passes) - self.untraced_s
        self.processes = statistics.mean(len(p.records) for p in passes)

    def layer(self, name: str) -> dict:
        rows = [p.layer(name) for p in self.passes]
        return {k: statistics.mean(r[k] for r in rows) for k in rows[0]}

    def summed(self, section: str, key: str) -> float:
        return statistics.mean(p.summed(section, key) for p in self.passes)

    def unattributed_s(self) -> float:
        return statistics.mean(p.unattributed_s() for p in self.passes)


def phases(passes: list[Pass]) -> list[Phase]:
    """Group passes by phase name, keeping first-seen order."""
    names = list(dict.fromkeys(p.name for p in passes))
    return [Phase(n, [p for p in passes if p.name == n]) for n in names]


def print_table(workload: str, groups: list[Phase], call_cost_s: float) -> list[str]:
    """Print the per-layer table of one workload; return flagged layers.

    A layer is flagged when its call count times the measured cost of
    one timer call exceeds the overhead target share of the untraced
    wall time.
    """
    flagged = []
    for phase in groups:
        print(f"\n[{workload}/{phase.name}] {len(phase.passes)} traced pass(es): "
              f"mean wall {phase.wall_s:.3f} s, {phase.processes:.0f} processes")
        print(f"  {'layer':<24} {'entry points':<52} {'self s':>9} "
              f"{'share':>7} {'calls':>8}")
        for name, where in LAYERS:
            row = phase.layer(name)
            if not row["calls"]:
                continue
            mark = ""
            if row["calls"] * call_cost_s > OVERHEAD_TARGET * phase.untraced_s:
                flagged.append(f"{phase.name}:{name}")
                mark = "  <- timer cost past target"
            print(f"  {name:<24} {where:<52} {row['self_s']:>9.4f} "
                  f"{row['self_s'] / phase.wall_s:>7.1%} {row['calls']:>8.0f}{mark}")
        rest = phase.unattributed_s()
        print(f"  {'unattributed (main process)':<77} {rest:>9.4f} "
              f"{rest / phase.wall_s:>7.1%}")
        print(f"  {'tracing overhead (fastest traced - fastest untraced)':<77} "
              f"{phase.overhead_s:>+9.4f} {phase.overhead_s / phase.untraced_s:>+7.1%}"
              f"  (target {OVERHEAD_TARGET:.0%})")
    return flagged
