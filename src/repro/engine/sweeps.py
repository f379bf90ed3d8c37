"""Engine-backed sweep definitions for the repo's artefacts.

Every cached computation (each CLI sweep, the bundle's trace-report,
each job-service scenario) is one :class:`Experiment` record — name,
typed parameters with defaults, sweep-key fields — run through
:meth:`Experiment.run` with a module-level ``*_point`` worker, so they
all share one execution path (parallel fan-out, content-addressed
caching, run manifests).  The workers are the unit of distribution:
they are picklable, take one JSON-able params mapping, rebuild *all*
the state a point needs from those params (a fresh cluster, a fresh
booted OS — never shared mutable state), and return a JSON-able
payload.  That contract is what makes a ``--jobs 4`` run
byte-identical to a serial one.  An order-dependent protocol (the
§V-A scheduler experiments behind ``fig5``, ``fig6`` and ``x5``) is
one point whose worker runs it whole.

Registries map names to machine and app models so cache keys stay
textual: a cache entry's key is e.g. ``{"machine": "Intel Xeon
X5550", "unroll": 6}``, never a pickled object.

The batch sweeps and the job service build every sweep key from the
same record, so a ``repro fig3`` point is a cache hit for ``repro
submit``; a record the service does not expose declares no params.
The traced Figure 4 run has three records here, each with its worker:
``FIG4`` (``repro fig4``'s alltoallv delays per switch variant),
``TRACE_REPORT`` (the bundle's ``trace-report``) and ``TRACE_ANALYSIS``
(the service's streamed summary); all three simulate it through
:func:`repro.obs.report.run_fig4_job`, which holds its shape.
Records hold no worker: each caller names its worker where it runs,
looked up as a module attribute at call time, so a wrapper installed
on a ``*_point`` attribute after import (``e2ebench/tracer.py``) is
what runs.  A single-seed run is the replicated run with one seed.
The workers' models are imported at module level: the service and
every CLI engine load this module in the parent process before the
first fork, so every forked attempt inherits them and imports nothing.
"""

from __future__ import annotations

import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping, Sequence

from repro.apps import APPS, build_app
from repro.arch import EXYNOS5_DUAL, SNOWBALL_A9500, TEGRA2_NODE, XEON_X5550
from repro.arch.cpu import MachineModel
from repro.cluster import tibidabo
from repro.core.artifacts import (
    measurements_from_records, measurements_to_records,
)
from repro.core.measurement import MeasurementSet
from repro.energy.scale import measure_cluster_energy
from repro.engine.chaos import chaos_point
from repro.engine.engine import (
    ExperimentEngine, ReplicatedRun, SweepRun, SweepSpec, Worker,
)
from repro.errors import EngineError
from repro.faults import named_plan
from repro.faults.checkpoint import CheckpointConfig, run_with_checkpoints
from repro.kernels import CounterSet, MagicFilterBenchmark, MemBench
from repro.kernels.magicfilter import UNROLL_RANGE
from repro.kernels.membench import MemBenchConfig
from repro.kernels.memmodel import fit_memory_model
from repro.obs.report import (
    FIG4_RANKS, build_run_report, fig4_num_nodes, run_fig4_job,
    write_trace_report,
)
from repro.osmodel import OSModel, SchedulingPolicy
from repro.tracing import TraceRecorder, analyze_collectives, resilience_summary
from repro.tracing.stream import StreamConfig, TraceStreamAnalyzer

#: Machines addressable by name in sweep params.
MACHINES: dict[str, MachineModel] = {
    machine.name: machine
    for machine in (XEON_X5550, SNOWBALL_A9500, TEGRA2_NODE, EXYNOS5_DUAL)
}

def machine_by_name(name: str) -> MachineModel:
    """Resolve a machine registry name, with a helpful error."""
    try:
        return MACHINES[name]
    except KeyError:
        raise EngineError(
            f"unknown machine {name!r}; known: {sorted(MACHINES)}"
        ) from None


# ---------------------------------------------------------------------------
# Experiment records (one per cached computation)
# ---------------------------------------------------------------------------

#: The default of a parameter that has none: submissions must give it.
REQUIRED: Any = object()


@dataclass(frozen=True)
class Param:
    """One typed experiment parameter.

    ``types`` are the JSON types accepted, ``default`` fills the
    parameter when a submission leaves it out (:data:`REQUIRED`: it
    may not), and ``choices``, when set, is the closed set of values
    the parameter may take.
    """

    types: tuple[type, ...]
    default: Any = REQUIRED
    choices: tuple[Any, ...] | None = None


@dataclass(frozen=True)
class Experiment:
    """One experiment: its name, typed parameters, and sweep-key fields.

    ``sweep_key(point)`` is the sweep invariants a point is cached
    under; the seed and every other field outside ``key_fields`` ride
    in the point itself.
    """

    name: str
    params: Mapping[str, Param]
    key_fields: tuple[str, ...] = ()

    def sweep_key(self, point: Mapping[str, Any]) -> dict[str, Any]:
        return {
            "experiment": self.name,
            **{field: point[field] for field in self.key_fields},
        }

    def run(
        self,
        engine: ExperimentEngine,
        worker: Worker,
        points: Sequence[Mapping[str, Any]],
        *,
        label: str,
        seeds: Sequence[int] | None = None,
    ) -> SweepRun | ReplicatedRun:
        """Run *points* under this record's sweep key: once per seed of
        *seeds* when given, else once each."""
        # An empty sweep has no key; SweepSpec rejects it, typed.
        key = self.sweep_key(points[0]) if points else None
        spec = SweepSpec(label, worker, points, key=key)
        if seeds is None:
            return engine.run(spec)
        return engine.run_replicated(spec, seeds)


_CLUSTER_PARAMS = {
    "app": Param((str,), choices=tuple(APPS)),
    "app_args": Param((dict,), {}),
    "num_nodes": Param((int,), 96),
    "seed": Param((int,), 7),
    "cores": Param((int,)),
}
_CLUSTER_KEY = ("app", "app_args", "num_nodes")
_MACHINE = Param((str,), choices=tuple(MACHINES))

CLUSTER_ELAPSED = Experiment("cluster-elapsed", _CLUSTER_PARAMS, _CLUSTER_KEY)
CLUSTER_ENERGY = Experiment("cluster-energy", _CLUSTER_PARAMS, _CLUSTER_KEY)
MAGICFILTER = Experiment("magicfilter", {
    "machine": _MACHINE,
    "shape": Param((list,), [32, 32, 32]),
    "unroll": Param((int,)),
}, ("machine", "shape"))
PAGE_ALLOC = Experiment("page-alloc", {
    "machine": _MACHINE,
    "fragmentation": Param((int, float), 0.0),
    "seed": Param((int,), 7),
    "array_bytes": Param((int,), 8 << 20),
}, ("machine", "array_bytes"))
CHAOS_SQUARES = Experiment("chaos-squares", {
    "x": Param((int,)),
    "state_dir": Param((str,)),
    "faults": Param((dict,), {}),
})
FIG5 = Experiment("fig5-rt-samples", {})
FAULT_SCALING = Experiment(
    "fault-slowdown", {}, ("app", "app_args", "plan", "num_nodes", "seed")
)
CHECKPOINT_SWEEP = Experiment("checkpoint-sweep", {}, (
    "app", "app_args", "plan", "horizon_s", "clean_s", "cores", "num_nodes",
    "seed",
))
VARIANT_GRID = Experiment("membench-variant-samples", {})
MEMMODEL_FIT = Experiment("memmodel-fit", {})
FIG4 = Experiment("fig4-delays", {}, ("app", "num_nodes", "ranks", "seed"))
TRACE_REPORT = Experiment("trace-report", {})
TRACE_ANALYSIS = Experiment("trace-analysis", {
    "app": Param((str,), "bigdft", ("bigdft", "specfem3d")),
    "seed": Param((int,), 7),
    "num_ranks": Param((int,), FIG4_RANKS),
}, ("app", "num_ranks"))


# ---------------------------------------------------------------------------
# Workers (module-level: picklable for process pools)
# ---------------------------------------------------------------------------


def magicfilter_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """Counters of one magicfilter unroll variant on one machine."""
    bench = MagicFilterBenchmark(
        machine_by_name(params["machine"]),
        problem_shape=tuple(params["shape"]),
    )
    counters = bench.counters(params["unroll"])
    return {"counters": dict(counters.values)}


def cluster_time_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """Elapsed seconds of one cluster job at one core count."""
    cluster = tibidabo(num_nodes=params["num_nodes"], seed=params["seed"])
    app = build_app(params["app"], params.get("app_args"))
    return {"elapsed_s": app.run_cluster(cluster, params["cores"])}


def fault_scaling_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """Clean-vs-faulty time-to-solution at one core count."""
    cluster = tibidabo(num_nodes=params["num_nodes"], seed=params["seed"])
    app = build_app(params["app"], params.get("app_args"))
    cores = params["cores"]
    clean = app.run_cluster(cluster, cores)
    # Target only the nodes the job occupies, so every fault can
    # actually perturb it.
    nodes_in_use = -(-cores // cluster.cores_per_node)
    plan = named_plan(
        params["plan"], num_nodes=nodes_in_use, horizon_s=clean,
        seed=params["seed"],
    )
    recorder = TraceRecorder()
    result = app.run_under_faults(
        cluster, cores, plan, clean_elapsed_s=clean,
        checkpoint_interval_s=max(1.0, clean / 5.0),
        tracer=recorder,
    )
    report = resilience_summary(recorder)
    detect = report.mean_detection_latency_s
    return {
        "clean_s": clean,
        "wall_s": result.wall_seconds,
        "slowdown": result.slowdown,
        "restarts": result.restarts,
        "rework_fraction": result.rework_fraction,
        "detect_ms": None if detect is None else detect * 1e3,
        "retry_loss": report.retry_goodput_fraction,
        "summary": report.format(),
    }


def checkpoint_interval_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """Time-to-solution under faults at one checkpoint interval, against
    the failure-free time ``clean_s`` the sweep was given."""
    cluster = tibidabo(num_nodes=params["num_nodes"], seed=params["seed"])
    app = build_app(params["app"], params.get("app_args"))
    cores = params["cores"]
    plan = named_plan(
        params["plan"], num_nodes=params["num_nodes"],
        horizon_s=params["horizon_s"], seed=params["seed"],
    )
    config = CheckpointConfig.from_state_bytes(
        app.checkpoint_bytes(cluster, cores),
        interval_s=params["interval_s"],
    )
    result = run_with_checkpoints(
        cluster, cores, app.rank_program(cluster, cores), plan,
        clean_elapsed_s=params["clean_s"], checkpoint=config,
    )
    return {
        "wall_s": result.wall_seconds,
        "rework_fraction": result.rework_fraction,
        "checkpoint_overhead_s": result.checkpoint_overhead_seconds,
        "restarts": result.restarts,
    }


def page_alloc_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """Ideal bandwidth after one simulated boot (the X1 protocol)."""
    machine = machine_by_name(params["machine"])
    os_model = OSModel.boot(
        machine, fragmentation=params["fragmentation"], seed=params["seed"]
    )
    bench = MemBench(machine, os_model, seed=params["seed"])
    sample = bench.measure(MemBenchConfig(array_bytes=params["array_bytes"]))
    return {"gb_per_s": sample.ideal_bandwidth_bytes_per_s / 1e9}


def fig4_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """One Figure 4 job: its alltoallv delays on one switch variant
    (``num_nodes`` is key material: :func:`run_fig4_job` packs ranks)."""
    recorder = TraceRecorder()
    _, result = run_fig4_job(
        params["app"], params["ranks"], params["seed"], recorder,
        upgraded=params["upgraded"],
    )
    report = analyze_collectives(recorder, "alltoallv")
    return {
        "delayed": len(report.delayed),
        "instances": len(report.instances),
        "ranks_delayed": [instance.ranks_delayed for instance in report.delayed],
        "loss_episodes": result.loss_episodes,
        "elapsed_s": result.elapsed_seconds,
    }


def fig5_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """The Figure 5 experiment on a SCHED_FIFO Snowball, whole (the
    same order-dependent §V-A protocol as the Figure 6 grid)."""
    seed = params["seed"]
    os_model = OSModel.boot(SNOWBALL_A9500, policy=SchedulingPolicy.FIFO, seed=seed)
    results = MemBench(SNOWBALL_A9500, os_model, seed=seed).run_experiment(
        array_sizes=[kb * 1024 for kb in params["sizes_kb"]],
        replicates=params["replicates"], seed=seed,
    )
    return {"measurements": measurements_to_records(results)}


def cluster_energy_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """Energy-to-solution of one cluster job at one core count."""
    cluster = tibidabo(num_nodes=params["num_nodes"], seed=params["seed"])
    app = build_app(params["app"], params.get("app_args"))
    run = measure_cluster_energy(app, cluster, params["cores"])
    return {
        "elapsed_s": run.elapsed_seconds,
        "energy_j": run.energy_joules,
        "network_power_fraction": run.network_power_fraction,
    }


def variant_grid_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """The Figure 6 element-size x unroll grid on one machine, whole.

    The §V-A protocol is order-dependent (every sample advances the OS
    scheduler), so its samples cannot run as independent points.
    """
    machine = machine_by_name(params["machine"])
    seed = params["seed"]
    bench = MemBench(machine, OSModel.boot(machine, seed=seed), seed=seed)
    results = bench.run_variant_grid(
        array_bytes=params["array_bytes"], replicates=params["replicates"],
        seed=seed,
    )
    return {"measurements": measurements_to_records(results)}


def memmodel_curve_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """The X5 bandwidth curve, ``[bytes, GB/s]`` per array size, and
    the GA memory-model fit to it, whole (the same order-dependent
    §V-A protocol as the Figure 6 grid)."""
    machine = machine_by_name(params["machine"])
    seed = params["seed"]
    bench = MemBench(machine, OSModel.boot(machine, seed=seed), seed=seed)
    curve = [
        [kb * 1024,
         bench.measure(MemBenchConfig(array_bytes=kb * 1024))
         .ideal_bandwidth_bytes_per_s / 1e9]
        for kb in params["sizes_kb"]
    ]
    fitted = fit_memory_model(curve)
    return {
        "curve": curve,
        "capacity_bytes": fitted.model.capacity_bytes,
        "fast_gb_per_s": fitted.model.fast_bandwidth,
        "slow_gb_per_s": fitted.model.slow_bandwidth,
        "mse": fitted.error,
    }


def trace_report_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """The bundle's trace-report, Chrome export included: its stdout
    and the text of every file it writes.

    The files land in a temporary directory that is removed once
    they are read, so a warm bundle rewrites the cold run's bytes from
    the payload alone.
    """
    with tempfile.TemporaryDirectory(prefix="trace-report-") as tmp:
        out_dir = Path(tmp)
        report, _, _ = write_trace_report(
            out_dir, app=params["app"], seed=params["seed"],
            chrome_out=out_dir / "trace.chrome.json",
        )
        return {
            "stdout": report.to_markdown(),
            "files": {
                path.name: path.read_bytes().decode("utf-8")
                for path in sorted(out_dir.iterdir())
            },
        }


def trace_analysis_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """The service's ``trace-analysis``: one Figure 4 job of any rank
    count under the streaming analyzer, and its final summary.

    The trace never materializes: the simulation drives
    :class:`~repro.tracing.stream.TraceStreamAnalyzer` directly, and
    when the forked attempt gave the worker a ``_progress`` callable,
    every provisional live summary goes through it, over the attempt's
    result pipe, into the job (what ``GET /jobs/<id>/trace`` streams).
    """
    on_summary = params.get("_progress")
    analyzer = TraceStreamAnalyzer(StreamConfig(on_summary=on_summary))
    try:
        scenario, _ = run_fig4_job(
            params["app"], params["num_ranks"], params["seed"], analyzer
        )
        result = analyzer.finalize()
        if on_summary is not None:
            # One last provisional line so late subscribers see the
            # stream reach its final event count before the job value.
            on_summary(analyzer.live_summary())
        report = build_run_report(result, scenario=scenario).to_dict()
        return {
            "scenario": scenario,
            "num_ranks": report["num_ranks"],
            "runtime_s": report["runtime_s"],
            "explanation": report["wait_states"]["explanation"],
            "critical_path_s": report["critical_path"]["breakdown_s"],
            "wait_states": report["wait_states"]["entries"],
            "efficiency": report["efficiency"],
            "stream": result.stats.to_dict(),
        }
    finally:
        analyzer.close()


# ---------------------------------------------------------------------------
# Sweep builders
# ---------------------------------------------------------------------------


#: The machines of Figures 6 and 7, in print order.
FIG6_MACHINES = (XEON_X5550.name, SNOWBALL_A9500.name)
FIG7_MACHINES = (XEON_X5550.name, TEGRA2_NODE.name)


def run_magicfilter_sweep(
    engine: ExperimentEngine,
    machine: str,
    *,
    unrolls: Sequence[int] | None = None,
    shape: tuple[int, int, int] = (32, 32, 32),
    label: str | None = None,
) -> dict[int, CounterSet]:
    """The Figure 7 unroll sweep; returns ``unroll -> CounterSet``.

    ``unrolls`` defaults to the paper's ``UNROLL_RANGE`` and ``label``
    to Figure 7's ``fig7/<machine>``.
    """
    run = MAGICFILTER.run(
        engine, magicfilter_point,
        [
            {"machine": machine, "shape": list(shape), "unroll": u}
            for u in (UNROLL_RANGE if unrolls is None else unrolls)
        ],
        label=label or f"fig7/{machine}",
    )
    return {
        point["unroll"]: CounterSet(
            {event: float(v) for event, v in value["counters"].items()}
        )
        for point, value in run
    }


def run_fig4(
    engine: ExperimentEngine,
    *,
    seed: int,
    variants: Sequence[bool] = (False, True),
    label: str = "fig4",
) -> list[tuple[bool, dict[str, Any]]]:
    """The Figure 4 BigDFT job on commodity, then upgraded, switches.

    One point per switch variant of *variants*, so a cold run fans the
    jobs out and a warm one reads them from the cache.  Returns
    ``(upgraded, payload)`` pairs in that order.
    """
    base = {"app": "bigdft", "ranks": FIG4_RANKS, "seed": seed,
            "num_nodes": fig4_num_nodes(FIG4_RANKS)}
    run = FIG4.run(
        engine, fig4_point,
        [dict(base, upgraded=upgraded) for upgraded in variants],
        label=label,
    )
    return [(point["upgraded"], value) for point, value in run]


#: The Figure 5 array sizes (KB); each runs 42 randomized replicates.
FIG5_SIZES_KB = (1, 2, 4, 8, 16, 24, 32, 40, 48, 50)


def run_fig5(engine: ExperimentEngine, *, seed: int) -> MeasurementSet:
    """The Figure 5 experiment at *seed*: one point, run whole."""
    run = FIG5.run(
        engine, fig5_point,
        [{"sizes_kb": list(FIG5_SIZES_KB), "replicates": 42, "seed": seed}],
        label="fig5",
    )
    return measurements_from_records(run.values[0]["measurements"])


def run_fig6_grid(
    engine: ExperimentEngine, machine: str, *, seed: int
) -> dict[tuple[int, int], float]:
    """The Figure 6 grid on one machine: ``(elem_bits, unroll) ->``
    mean bandwidth in GB/s over the replicates."""
    run = VARIANT_GRID.run(
        engine, variant_grid_point,
        [{"machine": machine, "array_bytes": 50 * 1024,
          "replicates": 3, "seed": seed}],
        label=f"fig6/{machine}",
    )
    results = measurements_from_records(run.values[0]["measurements"])
    cells = {
        (bits, unroll): results.where(elem_bits=bits, unroll=unroll).values()
        for bits in (32, 64, 128) for unroll in (1, 8)
    }
    return {cell: sum(values) / len(values) / 1e9 for cell, values in cells.items()}


def run_fault_scaling(
    engine: ExperimentEngine,
    plan: str,
    *,
    counts: Sequence[int],
    num_nodes: int,
    seed: int,
) -> list[tuple[int, dict[str, Any]]]:
    """LINPACK-under-faults rows per core count (the ``faults`` artefact)."""
    run = FAULT_SCALING.run(
        engine, fault_scaling_point,
        [
            {
                "app": "linpack", "app_args": {},
                "plan": plan, "num_nodes": num_nodes, "seed": seed,
                "cores": cores,
            }
            for cores in sorted(counts)
        ],
        label=f"faults/{plan}",
    )
    return [(point["cores"], value) for point, value in run]


def run_checkpoint_sweep(
    engine: ExperimentEngine,
    intervals: Sequence[float],
    *,
    plan: str,
    horizon_s: float,
    clean_s: float,
    cores: int,
    num_nodes: int,
    seed: int,
    app_args: Mapping[str, Any] | None = None,
    label: str | None = None,
) -> list[tuple[float, dict[str, Any]]]:
    """The X9 LINPACK checkpoint-interval sweep, one engine point per
    interval, each measured against the failure-free time *clean_s*."""
    base = {
        "app": "linpack", "app_args": dict(app_args or {}),
        "plan": plan, "horizon_s": horizon_s, "clean_s": clean_s,
        "cores": cores, "num_nodes": num_nodes, "seed": seed,
    }
    run = CHECKPOINT_SWEEP.run(
        engine, checkpoint_interval_point,
        [dict(base, interval_s=interval) for interval in intervals],
        label=label or f"checkpoint/{plan}",
    )
    return [(point["interval_s"], value) for point, value in run]


def run_page_alloc_sweep(
    engine: ExperimentEngine,
    *,
    machine: str,
    fragmentations: Sequence[float],
    seeds: Sequence[int],
    array_bytes: int,
    label: str | None = None,
) -> dict[tuple[float, int], float]:
    """The X1 boot-to-boot bandwidth grid; keys are (fragmentation, seed)."""
    run = PAGE_ALLOC.run(
        engine, page_alloc_point,
        [
            {
                "machine": machine, "fragmentation": fragmentation,
                "array_bytes": array_bytes,
            }
            for fragmentation in fragmentations
        ],
        label=label or f"page-alloc/{machine}",
        seeds=seeds,
    )
    return {
        (point["fragmentation"], seed): value["gb_per_s"]
        for point, values in run
        for seed, value in zip(run.seeds, values)
    }


def run_chaos_sweep(
    engine: ExperimentEngine,
    *,
    xs: Sequence[int],
    state_dir: str,
    faults: Mapping[str, Mapping[str, Any]] | None = None,
    label: str | None = None,
) -> dict[int, int]:
    """A square-numbers sweep with injected faults; ``x -> x*x``.

    The chaos harness's standard workload: pure, instant, and
    verifiable at a glance, so any divergence under injected crashes,
    hangs or corruption is the engine's fault, never the worker's.
    ``faults`` maps ``str(x)`` to a fault spec understood by
    :func:`repro.engine.chaos.chaos_point`.  Injected faults never
    change what a point's value is — only how hard it was to obtain —
    so runs that share a fault plan and state directory are comparable
    point-for-point with each other.
    """
    run = CHAOS_SQUARES.run(
        engine, chaos_point,
        [
            {
                "x": x, "state_dir": state_dir,
                "faults": {k: dict(v) for k, v in (faults or {}).items()},
            }
            for x in xs
        ],
        label=label or "chaos/squares",
    )
    return {point["x"]: value["value"] for point, value in run}


# ---------------------------------------------------------------------------
# Multi-seed replication (§V-A-1: single runs lie)
# ---------------------------------------------------------------------------


def seed_series(seed: int, count: int) -> list[int]:
    """The replicate seed series the CLI uses: ``seed, seed+1, ...``."""
    if count < 1:
        raise EngineError(f"seed count must be >= 1, got {count}")
    return [seed + offset for offset in range(count)]


#: The Figure 3 curves on a 96-node Tibidabo: ``(title, app, quick
#: core counts, full core counts, baseline cores)``.
FIG3_CURVES = (
    ("Figure 3a: LINPACK", "linpack",
     (1, 4, 16, 48), (1, 2, 4, 8, 16, 32, 64, 100), 1),
    ("Figure 3b: SPECFEM3D (vs 4 cores)", "specfem3d",
     (4, 16, 64), (4, 8, 16, 32, 64, 128, 192), 4),
    ("Figure 3c: BigDFT", "bigdft",
     (1, 4, 16, 36), (1, 2, 4, 8, 16, 24, 32, 36), 1),
)
FIG3_NUM_NODES = 96


def run_replicated_times(
    engine: ExperimentEngine,
    app: str,
    *,
    counts: Sequence[int],
    num_nodes: int,
    seeds: Sequence[int],
    app_args: Mapping[str, Any] | None = None,
    label: str | None = None,
) -> dict[int, tuple[float, ...]]:
    """Elapsed-seconds replicates per core count: ``cores -> (per seed)``.

    One engine sweep over the full ``counts x seeds`` grid, so the
    worker pool sees every replicate at once and each ``(cores, seed)``
    pair is its own cache entry — shared with every other run of the
    same point at the same seed, a one-seed run included.
    """
    run = CLUSTER_ELAPSED.run(
        engine, cluster_time_point,
        [
            {
                "app": app, "app_args": dict(app_args or {}),
                "num_nodes": num_nodes, "cores": cores,
            }
            for cores in counts
        ],
        label=label or f"scaling/{app}",
        seeds=seeds,
    )
    return {
        point["cores"]: tuple(value["elapsed_s"] for value in values)
        for point, values in run
    }


def run_replicated_speedups(
    engine: ExperimentEngine,
    app: str,
    *,
    counts: Sequence[int],
    num_nodes: int,
    seeds: Sequence[int],
    baseline_cores: int = 1,
    app_args: Mapping[str, Any] | None = None,
    label: str | None = None,
) -> dict[int, tuple[float, ...]]:
    """Figure 3 speedup replicates: ``cores -> (speedup per seed)``.

    Each seed's speedup is normalized against *that seed's own*
    baseline time, so a seed that booted into a slow configuration
    (the paper's bimodal case) does not contaminate every other
    replicate's curve.
    """
    if baseline_cores not in counts:
        raise EngineError(
            f"baseline {baseline_cores} missing from sweep {list(counts)}"
        )
    times = run_replicated_times(
        engine, app, counts=counts, num_nodes=num_nodes, seeds=seeds,
        app_args=app_args, label=label,
    )
    base_times = times[baseline_cores]
    return {
        cores: tuple(
            baseline_cores * base / elapsed
            for base, elapsed in zip(base_times, times[cores])
        )
        for cores in sorted(times)
    }


def run_replicated_energy(
    engine: ExperimentEngine,
    app: str,
    *,
    counts: Sequence[int],
    num_nodes: int,
    seeds: Sequence[int],
    app_args: Mapping[str, Any] | None = None,
    label: str | None = None,
) -> dict[int, tuple[dict[str, Any], ...]]:
    """X4 energy replicates: ``cores -> (payload per seed)``, sorted by
    core count."""
    run = CLUSTER_ENERGY.run(
        engine, cluster_energy_point,
        [
            {
                "app": app, "app_args": dict(app_args or {}),
                "num_nodes": num_nodes, "cores": cores,
            }
            for cores in sorted(counts)
        ],
        label=label or f"energy/{app}",
        seeds=seeds,
    )
    return {point["cores"]: values for point, values in run}
