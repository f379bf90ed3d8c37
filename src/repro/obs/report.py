"""The combined run report: critical path + wait states + metrics.

One traced job in, one artefact out: a :class:`RunReport` bundles what
:class:`~repro.tracing.stream.TraceStreamAnalyzer` finalized — the
critical path, the wait-state root causes
(:mod:`repro.tracing.waitstates`) and the POP efficiencies — with,
when a registry observed the run, the deterministic metrics snapshot.
It serializes to canonical JSON (what the golden files pin and ``repro
diff-metrics`` consumes) and renders to markdown (what a human reads to
see the Figure 4 diagnosis without opening a trace viewer).

:func:`write_trace_report` is the one ``trace-report`` pipeline: the
CLI command and the bundle's cached ``trace-report`` point both run it.
:func:`run_fig4_job` is the one builder of the Figure 4 job: ``repro
fig4``'s points, this pipeline and the job service's ``trace-analysis``
scenario all simulate it, at :data:`FIG4_RANKS` ranks by default.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from repro.apps import build_app
from repro.cluster import MpiJob, tibidabo
from repro.cluster.mpi import JobResult
from repro.engine.manifest import RunManifest
from repro.errors import ReproError
from repro.metrics.export import registry_to_dict, write_metrics
from repro.metrics.registry import (
    MetricsRegistry,
    NullRegistry,
    current_registry,
    use_registry,
)
from repro.tracing.attribution import CriticalPath
from repro.tracing.chrome import write_chrome_trace
from repro.tracing.recorder import TraceRecorder
from repro.tracing.stream import StreamConfig, StreamResult, TraceStreamAnalyzer
from repro.tracing.waitstates import WaitStateReport

#: Bump when the report document layout changes shape.
REPORT_SCHEMA_VERSION = 1

#: MPI ranks of the traced Figure 4 run (``repro fig4``,
#: ``trace-report`` and the service's ``trace-analysis`` default).
FIG4_RANKS = 36


@dataclass(frozen=True)
class RunReport:
    """Everything the trace analysis learned about one run."""

    scenario: str
    num_ranks: int
    runtime_seconds: float
    path: CriticalPath
    waits: WaitStateReport
    metrics: dict[str, Any] | None

    def to_dict(self) -> dict[str, Any]:
        """The canonical (JSON-able, deterministic) document form."""
        dominant = self.waits.dominant
        payload: dict[str, Any] = {
            "schema": REPORT_SCHEMA_VERSION,
            "scenario": self.scenario,
            "num_ranks": self.num_ranks,
            "runtime_s": self.runtime_seconds,
            "critical_path": {
                "total_s": self.path.total_seconds,
                "breakdown_s": self.path.breakdown,
                "by_label_s": [
                    [category, label, seconds]
                    for (category, label), seconds in self.path.by_label.items()
                ],
                "segments": len(self.path.segments),
                "rank_changes": self.path.rank_changes,
                "dominant_wait_label": self.path.dominant_wait_label(),
            },
            "wait_states": {
                "contention_factor": self.waits.contention_factor,
                "baseline_latency_s": self.waits.baseline_latency_s,
                "entries": [
                    {
                        "category": entry.category,
                        "label": entry.label,
                        "seconds": entry.seconds,
                        "occurrences": entry.occurrences,
                    }
                    for entry in self.waits.entries
                ],
                "total_wait_s": self.waits.total_wait_seconds,
                "blocked_s": self.waits.blocked_seconds,
                "dominant": None if dominant is None else {
                    "category": dominant.category,
                    "label": dominant.label,
                    "seconds": dominant.seconds,
                },
                "explanation": self.waits.explain(),
            },
            "efficiency": {
                "load_balance": self.waits.efficiencies.load_balance,
                "communication_efficiency":
                    self.waits.efficiencies.communication_efficiency,
                "parallel_efficiency":
                    self.waits.efficiencies.parallel_efficiency,
            },
            "metrics": self.metrics,
        }
        return payload

    def to_json(self) -> str:
        """Canonical JSON (sorted keys, trailing newline) — the golden
        form: same trace and registry state, same bytes."""
        return json.dumps(
            self.to_dict(), sort_keys=True, indent=2, allow_nan=False
        ) + "\n"

    def to_markdown(self) -> str:
        """A human-readable run report."""
        breakdown = self.path.breakdown
        eff = self.waits.efficiencies
        lines = [
            f"# Trace report: {self.scenario}",
            "",
            f"- ranks: {self.num_ranks}",
            f"- runtime: {self.runtime_seconds:.3f} s",
            f"- **{self.waits.explain()}**",
            "",
            "## Critical path",
            "",
            "| category | seconds | share |",
            "|---|---:|---:|",
        ]
        total = max(self.path.total_seconds, 1e-12)
        for category in sorted(breakdown, key=lambda c: -breakdown[c]):
            seconds = breakdown[category]
            lines.append(
                f"| {category} | {seconds:.3f} | {seconds / total:.1%} |"
            )
        lines += [
            "",
            f"{len(self.path.segments)} segments, "
            f"{self.path.rank_changes} rank changes; "
            f"dominant on-path wait: {self.path.dominant_wait_label()}",
            "",
            "## Wait states",
            "",
            "| category | operation | seconds | waits |",
            "|---|---|---:|---:|",
        ]
        for entry in self.waits.entries:
            lines.append(
                f"| {entry.category} | {entry.label} "
                f"| {entry.seconds:.3f} | {entry.occurrences} |"
            )
        lines += [
            "",
            "## POP efficiencies",
            "",
            f"- load balance: {eff.load_balance:.3f}",
            f"- communication efficiency: {eff.communication_efficiency:.3f}",
            f"- parallel efficiency: {eff.parallel_efficiency:.3f}",
        ]
        if self.metrics is not None:
            counters = len(self.metrics.get("counters", {}))
            gauges = len(self.metrics.get("gauges", {}))
            lines += [
                "",
                "## Metrics",
                "",
                f"{counters} counters and {gauges} gauges embedded "
                "(see the JSON report).",
            ]
        return "\n".join(lines) + "\n"

    def save(self, directory: str | Path) -> dict[str, Path]:
        """Write ``report.json`` and ``report.md`` under *directory*."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        paths = {
            "report.json": directory / "report.json",
            "report.md": directory / "report.md",
        }
        paths["report.json"].write_text(self.to_json(), encoding="utf-8")
        paths["report.md"].write_text(self.to_markdown(), encoding="utf-8")
        return paths


def build_run_report(
    result: StreamResult,
    *,
    scenario: str,
    registry: MetricsRegistry | NullRegistry | None = None,
) -> RunReport:
    """Assemble the combined report from a finalized analysis.

    *result* is what :meth:`TraceStreamAnalyzer.finalize` returned: the
    critical path has passed its coverage check and every wait its
    cause-arrival check.  ``trace.*`` metrics are volatile and left out
    of the deterministic snapshot, so the frontier limit the analysis
    ran under never shows in the document.
    """
    metrics = (
        None
        if registry is None
        else registry_to_dict(registry, deterministic=True)
    )
    return RunReport(
        scenario=scenario,
        num_ranks=result.num_ranks,
        runtime_seconds=result.runtime_seconds,
        path=result.path,
        waits=result.waits,
        metrics=metrics,
    )


def fig4_num_nodes(ranks: int) -> int:
    """Tibidabo nodes of a Figure 4 job of *ranks* ranks, two per node."""
    return (ranks + 1) // 2


def run_fig4_job(
    app: str, ranks: int, seed: int, tracer, *, upgraded: bool = False
) -> tuple[str, JobResult]:
    """Simulate the Figure 4 job of *app* at *ranks* ranks under *tracer*
    (on the upgraded switches with *upgraded*); return the run's name,
    ``fig4-<app>-<ranks>ranks-seed<seed>``, and the job's result."""
    model = build_app(app)
    cluster = tibidabo(
        num_nodes=fig4_num_nodes(ranks), seed=seed, upgraded_switches=upgraded
    )
    result = MpiJob(
        cluster, ranks, model.rank_program(cluster, ranks), tracer=tracer
    ).run()
    return f"fig4-{app}-{ranks}ranks-seed{seed}", result


def write_trace_report(
    out_dir: str | Path,
    *,
    app: str,
    seed: int,
    stream: bool = False,
    frontier: int | None = None,
    chrome_out: str | Path | None = None,
) -> tuple[RunReport, StreamResult, dict[str, Path]]:
    """Trace the Figure 4 job of *app*, analyze it and write the report.

    Without *stream* the analyzer holds the whole trace; with it, the
    analyzer keeps at most *frontier* events in memory (default:
    :class:`~repro.tracing.stream.StreamConfig`'s) and spills the rest.
    *chrome_out* records the whole trace, writes the Chrome export
    there, then replays the events into the analyzer.  The job runs
    under a registry of its own, folded into the ambient one after.

    Writes ``report.json``, ``report.md``, ``metrics.json`` (and
    ``stream_stats.json`` with *stream*) and a run manifest into
    *out_dir*.  Returns the report, the finalized analysis and the
    files the manifest attaches, by name.  An ``OSError`` surfaces as a
    :class:`~repro.errors.ReproError`, and the analyzer's spill
    directory never outlives the call.
    """
    out_dir = Path(out_dir)
    if not stream:
        config = StreamConfig(frontier_limit=None)
    elif frontier is None:
        config = StreamConfig()
    else:
        config = StreamConfig(frontier_limit=frontier)
    # MpiJob captures the ambient registry at construction.
    registry = MetricsRegistry()
    analyzer = None
    try:
        analyzer = TraceStreamAnalyzer(config, registry=registry)
        recorder = TraceRecorder() if chrome_out else None
        with use_registry(registry):
            scenario, _ = run_fig4_job(
                app, FIG4_RANKS, seed,
                analyzer if recorder is None else recorder,
            )
        if recorder is not None:
            # The Chrome writer reads the whole event list: write it
            # first, then replay the events into the analyzer and drop
            # the list, so the Chrome document and the analyzer's rows
            # are never held together and the list is gone before the
            # analysis finalizes.
            write_chrome_trace(chrome_out, recorder, registry=registry)
            recorder.replay(analyzer)
            recorder = None

        result = analyzer.finalize()
        report = build_run_report(result, scenario=scenario, registry=registry)
        ambient = current_registry()
        if ambient.enabled:
            ambient.merge(registry.snapshot())

        written = report.save(out_dir)
        if stream:
            written["stream_stats.json"] = out_dir / "stream_stats.json"
            written["stream_stats.json"].write_text(
                json.dumps(
                    {"stats": result.stats.to_dict()},
                    indent=2, sort_keys=True, allow_nan=False,
                ) + "\n",
                encoding="utf-8",
            )
        elif chrome_out:
            written["trace.chrome.json"] = Path(chrome_out)
        written["metrics.json"] = write_metrics(
            registry, out_dir / "metrics.json", "json", deterministic=True
        )
        key = {"app": app, "seed": seed, "ranks": FIG4_RANKS}
        if stream:
            key["stream"] = True
        manifest = RunManifest(
            sweep=f"trace-report/{app}",
            key=key,
            jobs=1, executor="inline", elapsed_seconds=0.0,
        )
        for name, path in sorted(written.items()):
            # Attach by name relative to the output directory, so the
            # manifest stays byte-identical wherever the report lands.
            manifest.attach(name, path.name)
        manifest.save(out_dir)
        return report, result, written
    except OSError as error:
        raise ReproError(str(error)) from error
    finally:
        # Also on failure: the spill directory must not outlive the run.
        if analyzer is not None:
            analyzer.close()
