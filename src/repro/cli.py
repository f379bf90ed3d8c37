"""Command-line reproduction driver.

``python -m repro <artefact>`` regenerates one paper artefact and
prints it; ``python -m repro all`` walks through every one.  This is
the quickest way to eyeball the reproduction without pytest.

Artefacts: ``table1 table2 fig1 .. fig7 x1 .. x9 faults claims``.
Options: ``--quick`` shrinks the cluster sweeps; ``--seed N`` reseeds
the stochastic pieces; ``--plan NAME`` picks the fault plan for the
``faults`` artefact.

The sweep-shaped artefacts route through :class:`repro.engine
.ExperimentEngine`: ``--jobs N`` fans points across worker processes,
and completed points are memoized in a content-addressed cache
(``--cache-dir``, default ``$REPRO_CACHE_DIR`` or ``~/.cache/repro``;
``--no-cache`` disables it), so re-running a figure recomputes nothing.
Engine summaries print on stderr, keeping stdout byte-stable across
job counts and cache states.

Observability: ``--metrics-out PATH`` installs a process-wide
:class:`repro.metrics.MetricsRegistry` for the run and writes its
export to PATH; ``--metrics-format {json,prom,table}`` picks the
format (default ``json``), and with a format but no path the export
goes to stderr.  Metrics never touch stdout, so artefact output stays
byte-identical whether or not they are enabled.

Resilient execution: ``--point-timeout S`` bounds each sweep point's
wall clock (hung workers are killed in process mode), ``--retries N``
re-dispatches failed points on a seeded exponential-backoff schedule
(``--retry-delay`` sets the base delay), ``--run-dir DIR`` journals
every completed point to ``DIR/journal.jsonl`` as it lands, and
``--resume DIR`` replays that journal so an interrupted sweep
continues where it stopped — byte-identical stdout to an
uninterrupted run.  A sweep that exhausts its retry budget exits
non-zero with a typed :class:`~repro.errors.RetryExhausted` listing
every failed point.

Statistical rigor (§V-A-1: single runs lie): ``--seeds N`` replicates
every sweep point of the multi-seed artefacts (``fig3``, ``x4``) over
seeds ``seed..seed+N-1`` — one engine sweep over the full points x
seeds grid, each replicate its own cache entry — and reports per-point
mean/median/CV, a seeded-bootstrap confidence interval at ``--ci``,
and a bimodality flag.  ``--summary-out PATH`` writes those summaries
(raw replicate values included) as a JSON document; ``repro compare
A.json B.json`` pairs two such documents and states, per point,
whether the configurations differ significantly (Mann-Whitney AND
permutation test at ``--alpha``).

Tool commands ride alongside the artefacts: ``trace-report`` re-runs
the Figure 4 scenario under full tracing and writes the combined run
report (markdown + JSON) and the deterministic metrics export into
``--out`` (and the Perfetto-loadable Chrome trace to ``--chrome-out``);
``diff-metrics A.json B.json --threshold 5%`` compares two metrics
exports and exits 1 on drift beyond the threshold (the CI regression
gate against ``tests/golden/``); ``compare`` pairs two
replicate-summary documents and exits 1 only on statistically
significant drift; ``reproduce-all
--out DIR`` regenerates every pinned artefact (table2, fig3, fig4,
fig6, fig7, x1, x4, x5, x9, trace-report) into a bundle directory —
per-artefact byte-exact stdout, deterministic metrics export,
replicate summaries — and writes ``MANIFEST.json`` with a sha256
digest per file plus environment capture; a warm rerun
is byte-identical and recomputes nothing; ``cache
{verify,stats,clear}`` manages the result cache — ``verify``
integrity-scans every shard, quarantines corrupt entries under
``corrupt/`` and exits 1 if it found any.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import nullcontext
from pathlib import Path
from typing import Callable

from repro.errors import ReproError


def _cmd_table1(args) -> None:
    from repro.apps.catalog import MONT_BLANC_APPLICATIONS
    from repro.core.report import render_table

    print(render_table(
        "Table I: Mont-Blanc Selected HPC Applications",
        ["Code", "Scientific Domain", "Institution"],
        [[a.code, a.domain, a.institution] for a in MONT_BLANC_APPLICATIONS],
    ))


def _cmd_table2(args) -> None:
    from repro.core.report import render_table
    from repro.energy import table2_rows

    print(render_table(
        "Table II: Xeon 5550 vs ST-Ericsson A9500",
        ["Benchmark", "Snowball", "Xeon", "Ratio", "Energy Ratio"],
        [[f"{name} ({row.metric_name})", f"{row.contender_value:,.1f}",
          f"{row.reference_value:,.1f}", f"{row.ratio:.1f}",
          f"{row.energy_ratio:.2f}"]
         for name, row in table2_rows().items()],
    ))


def _cmd_fig1(args) -> None:
    from repro.core.report import render_series
    from repro.top500 import (
        TOP500_SERIES, fit_series, project_exaflop, required_efficiency_factor,
    )

    print(render_series(
        "Figure 1: Top500 #1 performance (GFLOPS, June lists)",
        [(e.year, e.top_gflops) for e in TOP500_SERIES],
        x_label="year", y_label="GFLOPS",
    ))
    fit = fit_series("top")
    projection = project_exaflop("top")
    print(f"\ngrowth {fit.growth:.2f}x/year (R^2 {fit.r_squared:.3f}); "
          f"exaflop projected {projection.exaflop_year:.1f} (paper: 2018); "
          f"needs {required_efficiency_factor():.1f}x efficiency (paper: ~25x)")


def _cmd_fig2(args) -> None:
    from repro.arch import SNOWBALL_A9500, XEON_X5550, build_topology, render_topology

    print("Figure 2a: Xeon 5550\n")
    print(render_topology(build_topology(XEON_X5550)))
    print("\nFigure 2b: A9500 (Snowball)\n")
    print(render_topology(build_topology(SNOWBALL_A9500)))


def _cmd_fig3(args) -> None:
    from repro.core.report import render_series
    from repro.core.stats import stable_seed, summarize_replicates
    from repro.engine import sweeps

    seeds = sweeps.seed_series(args.seed, args.seeds)
    for title, app, quick_counts, full_counts, baseline in sweeps.FIG3_CURVES:
        counts = quick_counts if args.quick else full_counts
        grid = sweeps.run_replicated_speedups(
            args.engine, app, counts=counts, num_nodes=sweeps.FIG3_NUM_NODES,
            seeds=seeds, baseline_cores=baseline, label=f"fig3/{app}",
        )
        if len(seeds) == 1:
            print(render_series(
                title, [(cores, grid[cores][0]) for cores in counts],
                x_label="cores", y_label="speedup",
            ))
        else:
            points = [
                (cores, summarize_replicates(
                    grid[cores], confidence=args.ci,
                    seed=stable_seed("fig3", app, cores),
                ))
                for cores in counts
            ]
            print(render_series(
                f"{title} (mean of {len(seeds)} seeds)",
                [(cores, summary.mean) for cores, summary in points],
                x_label="cores", y_label="speedup",
            ))
            print(f"  {args.ci:.0%} CI half-width per point: "
                  + " ".join(f"{s.ci_half_width:.3g}" for _, s in points))
            bimodal = [cores for cores, s in points if s.bimodal]
            if bimodal:
                print("  bimodal points (Fig.5-style run-to-run modes): "
                      f"{bimodal}")
            _record_summary(args, "fig3", app, points,
                            x_label="cores", y_label="speedup")
        print()


def _cmd_fig4(args) -> None:
    from repro.engine.sweeps import run_fig4

    for upgraded, job in run_fig4(args.engine, seed=args.seed):
        label = "upgraded" if upgraded else "commodity"
        print(f"Figure 4 ({label} switches): "
              f"{job['delayed']}/{job['instances']} alltoallv delayed, "
              f"{job['loss_episodes']} loss episodes, job {job['elapsed_s']:.2f}s")


def _cmd_fig5(args) -> None:
    from repro.core.stats import detect_modes
    from repro.engine.sweeps import run_fig5

    results = run_fig5(args.engine, seed=args.seed)
    at_16k = [s.value / 1e9 for s in results.where(array_bytes=16 * 1024)]
    modes = detect_modes(at_16k)
    print("Figure 5: RT-priority bandwidth modes at 16 KB:")
    for mode in modes:
        print(f"  {mode.center:.2f} GB/s x{mode.count}")
    degraded = [s.sequence for s in results if s.factors["degraded"]]
    runs = (
        1 + sum(1 for a, b in zip(degraded, degraded[1:]) if b != a + 1)
        if degraded else 0
    )
    print(f"  {len(degraded)} degraded samples in {runs} consecutive run(s)")


def _cmd_fig6(args) -> None:
    from repro.core.report import render_table
    from repro.engine.sweeps import FIG6_MACHINES, run_fig6_grid

    for machine in FIG6_MACHINES:
        grid = run_fig6_grid(args.engine, machine, seed=args.seed)
        print(render_table(
            f"Figure 6: {machine} (GB/s)",
            ["element", "no unroll", "unroll=8"],
            [[f"{bits}b", f"{grid[(bits, 1)]:.2f}", f"{grid[(bits, 8)]:.2f}"]
             for bits in (32, 64, 128)],
        ))
        print()


def _cmd_fig7(args) -> None:
    from repro.core.report import render_table
    from repro.engine.sweeps import FIG7_MACHINES, run_magicfilter_sweep
    from repro.kernels.magicfilter import UNROLL_RANGE, sweet_spot

    for machine in FIG7_MACHINES:
        sweep = run_magicfilter_sweep(args.engine, machine)
        print(render_table(
            f"Figure 7: magicfilter on {machine}",
            ["unroll", "Mcycles", "Maccesses"],
            [
                [u, f"{sweep[u].cycles / 1e6:.1f}",
                 f"{sweep[u].cache_accesses / 1e6:.2f}"]
                for u in UNROLL_RANGE
            ],
        ))
        spots = sweet_spot({u: sweep[u].cycles for u in UNROLL_RANGE})
        print(f"sweet spot: {spots}\n")


def _cmd_x1(args) -> None:
    from repro.arch import SNOWBALL_A9500
    from repro.engine.sweeps import run_page_alloc_sweep

    print("X1: run-to-run bandwidth at 32 KB (GB/s) over 6 simulated boots")
    grid = run_page_alloc_sweep(
        args.engine, machine=SNOWBALL_A9500.name,
        fragmentations=[0.0, 0.85], seeds=list(range(6)),
        array_bytes=32 * 1024, label="x1/page-alloc",
    )
    for fragmentation in (0.0, 0.85):
        values = [grid[(fragmentation, seed)] for seed in range(6)]
        print(f"  fragmentation {fragmentation:.2f}: "
              + " ".join(f"{v:.3f}" for v in values))


def _print_hybrid_efficiency(title: str) -> None:
    """X2's hybrid-efficiency table, under *title*."""
    from repro.core.report import render_table
    from repro.gpu import hybrid_efficiency_table

    print(render_table(
        title, ["platform", "SP", "DP", "note"],
        [[name, f"{sp:.2f}", f"{dp:.2f}", note]
         for name, sp, dp, note in hybrid_efficiency_table()],
    ))


def _cmd_x2(args) -> None:
    _print_hybrid_efficiency(
        "X2: peak efficiency with integrated GPUs (GFLOPS/W)"
    )


def _cmd_x3(args) -> None:
    from repro.arch import EXYNOS5_DUAL
    from repro.autotune import AutoTuner, ExhaustiveSearch
    from repro.gpu import (
        GpuKernelSpec, OpenClRuntime, tune_buffer_size, tuning_space,
    )

    _print_hybrid_efficiency("X3: hybrid efficiency (GFLOPS/W)")
    runtime = OpenClRuntime(
        accelerator=EXYNOS5_DUAL.accelerator,
        soc_bandwidth_bytes_per_s=EXYNOS5_DUAL.memory.sustained_bandwidth,
    )
    spec = GpuKernelSpec(name="mf-gpu", flops_per_item=32.0, bytes_per_item=24.0)
    tuner = AutoTuner(space=tuning_space(), strategy=ExhaustiveSearch())
    print("\nbuffer tuned to input length (Mali-T604):")
    for items in (2_000, 200_000, 2_000_000):
        report = tune_buffer_size(runtime, spec, items, tuner=tuner)
        print(f"  {items:>9,} items -> "
              f"{report.best_point['buffer_bytes'] // 1024} KB buffer")


def _cmd_x4(args) -> None:
    from repro.core.report import render_table
    from repro.core.stats import stable_seed, summarize_replicates
    from repro.engine.sweeps import run_replicated_energy, seed_series

    seeds = seed_series(args.seed, args.seeds)
    for name, app, app_args, counts in (
        ("SPECFEM3D", "specfem3d", {"timesteps": 10}, [8, 16, 32, 64]),
        ("BigDFT", "bigdft", {"scf_iterations": 4}, [4, 8, 16, 24, 36]),
    ):
        grid = run_replicated_energy(
            args.engine, app, counts=counts, num_nodes=96, seeds=seeds,
            app_args=app_args, label=f"x4/{app}",
        )
        if len(seeds) == 1:
            rows = [(cores, grid[cores][0]) for cores in counts]
            print(render_table(
                f"X4: energy at scale — {name}",
                ["cores", "time (s)", "energy (J)", "net power share"],
                [[cores, f"{v['elapsed_s']:.1f}", f"{v['energy_j']:,.0f}",
                  f"{v['network_power_fraction']:.0%}"] for cores, v in rows],
            ))
            optimum = min(rows, key=lambda pair: pair[1]["energy_j"])[0]
        else:
            points = [
                (cores, summarize_replicates(
                    [v["energy_j"] for v in grid[cores]], confidence=args.ci,
                    seed=stable_seed("x4", app, cores),
                ))
                for cores in counts
            ]
            print(render_table(
                f"X4: energy at scale — {name} (mean of {len(seeds)} seeds)",
                ["cores", "energy (J)", f"±{args.ci:.0%} CI", "cv"],
                [[cores, f"{s.mean:,.0f}", f"{s.ci_half_width:,.1f}",
                  f"{s.cv:.2%}"] for cores, s in points],
            ))
            optimum = min(points, key=lambda pair: pair[1].mean)[0]
            _record_summary(args, "x4", f"{app}/energy_j", points,
                            x_label="cores", y_label="energy_j")
        print(f"  energy optimum: {optimum} cores\n")


def _cmd_x5(args) -> None:
    from repro.arch import SNOWBALL_A9500
    from repro.engine import sweeps

    run = sweeps.MEMMODEL_FIT.run(
        args.engine, sweeps.memmodel_curve_point,
        [{"machine": SNOWBALL_A9500.name, "seed": 2,
          "sizes_kb": [2, 4, 8, 12, 16, 20, 24, 28, 32, 40, 48, 64, 96, 128]}],
        label="x5/memmodel-curve",
    )
    fit = run.values[0]
    print("X5: GA memory-model fit (ref [14]) on the Snowball")
    print(f"  recovered capacity : {fit['capacity_bytes'] // 1024} KB "
          "(true L1: 32 KB)")
    print(f"  plateaus           : {fit['fast_gb_per_s']:.2f} / "
          f"{fit['slow_gb_per_s']:.2f} GB/s (MSE {fit['mse']:.4f})")


def _cmd_x6(args) -> None:
    from repro.arch import EXYNOS5_DUAL, SNOWBALL_A9500
    from repro.ompss import (
        OmpSsScheduler, SchedulingPolicy, Worker, WorkerKind,
        cpu_workers, magicfilter_taskgraph,
    )

    graph = magicfilter_taskgraph(SNOWBALL_A9500, blocks_per_sweep=8)
    print("X6: OmpSs magicfilter task graph")
    for cores in (1, 2):
        schedule = OmpSsScheduler(cpu_workers(cores)).run(graph)
        print(f"  Snowball {cores} core(s): {schedule.makespan * 1e3:.2f} ms")
    hybrid_graph = magicfilter_taskgraph(
        EXYNOS5_DUAL, blocks_per_sweep=8, use_gpu=True
    )
    hybrid = OmpSsScheduler(
        cpu_workers(2) + [Worker(9, WorkerKind.GPU)],
        policy=SchedulingPolicy.EARLIEST_FINISH,
    ).run(hybrid_graph)
    cpu_only = OmpSsScheduler(cpu_workers(2)).run(hybrid_graph)
    print(f"  Exynos 2xA15: {cpu_only.makespan * 1e3:.3f} ms; "
          f"+Mali: {hybrid.makespan * 1e3:.3f} ms")


def _cmd_x7(args) -> None:
    from repro.apps import portfolio_scaling_report
    from repro.cluster import tibidabo
    from repro.core.report import render_table

    cluster = tibidabo(num_nodes=32, seed=args.seed)
    verdicts = sorted(
        portfolio_scaling_report(cluster, cores=32, baseline=2),
        key=lambda v: -v.efficiency,
    )
    print(render_table(
        "X7: Table I portfolio at 32 cores",
        ["code", "pattern", "efficiency"],
        [[v.code, v.pattern.value, f"{v.efficiency:.0%}"] for v in verdicts],
    ))


def _cmd_x8(args) -> None:
    from repro.apps import BigDFT
    from repro.cluster.prototype import montblanc_prototype
    from repro.engine.sweeps import run_fig4
    from repro.obs.report import FIG4_RANKS, fig4_num_nodes

    # Tibidabo's row is Figure 4's commodity job, read from its record.
    [(_, tibidabo_job)] = run_fig4(
        args.engine, seed=args.seed, variants=(False,), label="x8/tibidabo"
    )
    proto = montblanc_prototype(
        num_nodes=fig4_num_nodes(FIG4_RANKS), seed=args.seed
    )
    print("X8: Tibidabo vs the final Mont-Blanc prototype "
          f"(BigDFT, {FIG4_RANKS} cores)")
    print(f"  Tibidabo  : {tibidabo_job['elapsed_s']:.1f} s")
    print(f"  prototype : {BigDFT().run_cluster(proto, FIG4_RANKS):.1f} s")


def _cmd_faults(args) -> None:
    from repro.core.report import render_table
    from repro.engine.sweeps import run_fault_scaling

    counts = [8, 16] if args.quick else [8, 16, 32, 64]
    print(f"faults: LINPACK scaling under plan {args.plan!r} (seed {args.seed})\n")
    results = run_fault_scaling(
        args.engine, args.plan, counts=counts, num_nodes=32,
        seed=args.seed, label=f"faults/{args.plan}",
    )
    rows = []
    for cores, value in results:
        detect = value["detect_ms"]
        rows.append([
            cores,
            f"{value['clean_s']:.2f}",
            f"{value['wall_s']:.2f}",
            f"{value['slowdown']:.2f}x",
            value["restarts"],
            f"{value['rework_fraction']:.1%}",
            "-" if detect is None else f"{detect:.0f} ms",
            f"{value['retry_loss']:.2%}",
        ])
    print(render_table(
        f"LINPACK time-to-solution under {args.plan!r} faults",
        ["cores", "clean (s)", "faulty (s)", "slowdown", "restarts",
         "rework", "detect", "retry loss"],
        rows,
    ))
    print(f"\nresilience summary at {max(counts)} cores:")
    print(results[-1][1]["summary"])


def _cmd_x9(args) -> None:
    from repro.core.report import render_series
    from repro.engine.sweeps import run_checkpoint_sweep, run_replicated_times
    from repro.faults import named_plan

    num_nodes, cores, plan = 16, 32, "crashy"
    clean = run_replicated_times(
        args.engine, "linpack", counts=[cores], num_nodes=num_nodes,
        seeds=[args.seed], label="x9/clean",
    )[cores][0]
    horizon = 4.0 * clean
    crashes = named_plan(
        plan, num_nodes=num_nodes, horizon_s=horizon, seed=args.seed
    ).crashes
    fractions = [0.05, 0.2, 0.6] if args.quick else [0.02, 0.05, 0.1, 0.2, 0.4, 0.8]
    intervals = [max(0.5, f * clean) for f in fractions]
    sweep = run_checkpoint_sweep(
        args.engine, intervals, plan=plan, horizon_s=horizon, clean_s=clean,
        cores=cores, num_nodes=num_nodes, seed=args.seed, label="x9/checkpoint",
    )
    print(f"X9: LINPACK checkpoint-interval sweep under {plan!r} "
          f"({len(crashes)} crashes over {horizon:.0f}s horizon)")
    print(render_series(
        "time-to-solution vs checkpoint interval",
        [(round(interval, 2), value["wall_s"]) for interval, value in sweep],
        x_label="interval (s)", y_label="wall (s)",
    ))
    best_interval, best = min(sweep, key=lambda pair: pair[1]["wall_s"])
    print(f"\nsweet spot: interval {best_interval:.1f}s -> "
          f"wall {best['wall_s']:.1f}s "
          f"(rework {best['rework_fraction']:.1%}, "
          f"checkpoint overhead {best['checkpoint_overhead_s']:.1f}s, "
          f"{best['restarts']} restarts)")


def _record_summary(args, artefact, series, points, *, x_label, y_label) -> None:
    """Stash one multi-seed series for ``--summary-out`` / the bundle.

    *points* is ``[(x, ReplicateSummary), ...]``; the document layout
    is what :mod:`repro.obs.significance` pairs by (artefact, series,
    x), so ``repro compare`` can consume any two ``--summary-out``
    files.
    """
    entry = args.summaries.setdefault(artefact, {"series": {}})
    entry["series"][series] = {
        "x_label": x_label,
        "y_label": y_label,
        "points": [
            {"x": x, "summary": summary.to_dict()} for x, summary in points
        ],
    }


def _write_summary_document(args, path) -> None:
    """Write this invocation's replicate-summary document to *path* in
    canonical (byte-stable) JSON."""
    from repro.engine.hashing import canonical_json
    from repro.engine.sweeps import seed_series
    from repro.obs.significance import SUMMARY_SCHEMA

    document = {
        "schema": SUMMARY_SCHEMA,
        "confidence": args.ci,
        "seed": args.seed,
        "seeds": seed_series(args.seed, args.seeds),
        "artefacts": args.summaries,
    }
    Path(path).write_text(canonical_json(document) + "\n", encoding="utf-8")


def _cmd_claims(args) -> int:
    from repro.core.report import render_table
    from repro.engine.sweeps import seed_series
    from repro.paper import ALL_CLAIMS, audit, paper_values

    seeds = seed_series(args.seed, args.seeds)
    # One row per claim, one result per seed.
    by_claim = list(zip(*(
        audit(paper_values(args.engine, seed)) for seed in seeds
    )))
    if len(seeds) == 1:
        for (result,) in by_claim:
            print(result.describe())
    else:
        print(render_table(
            f"Paper claims at seeds {seeds[0]}..{seeds[-1]}",
            ["claim", "section", "passed", "failed at seeds"],
            [
                [claim.claim_id, claim.section,
                 f"{sum(r.passed for r in results)}/{len(seeds)}",
                 ", ".join(str(seed) for seed, r in zip(seeds, results)
                           if not r.passed) or "-"]
                for claim, results in zip(ALL_CLAIMS, by_claim)
            ],
        ))
    passed = sum(all(r.passed for r in results) for results in by_claim)
    every = "" if len(seeds) == 1 else " at every seed"
    print(f"\n{passed}/{len(ALL_CLAIMS)} paper claims reproduced{every}")
    return 0 if passed == len(ALL_CLAIMS) else 1


def _cmd_trace_report(args) -> int:
    from repro.obs.report import write_trace_report

    if args.stream and args.chrome_out:
        raise ReproError(
            "--chrome-out needs the materialized trace and cannot be "
            "combined with --stream (the bounded frontier never holds "
            "the whole timeline); drop one of the flags"
        )
    if args.frontier is not None and not args.stream:
        raise ReproError(
            "--frontier bounds the streaming analyzer and has no effect "
            "without --stream (the batch report holds the whole trace); "
            "add --stream or drop --frontier"
        )
    if args.frontier is not None and args.frontier < 1:
        raise ReproError(f"--frontier must be at least 1, got {args.frontier}")
    report, result, written = write_trace_report(
        args.out or "trace-report-out", app=args.app, seed=args.seed,
        stream=args.stream, frontier=args.frontier, chrome_out=args.chrome_out,
    )
    if args.stream:
        stats = result.stats
        print(
            f"[trace-stream] events={stats.events_ingested} "
            f"frontier_high_water={stats.frontier_high_water} "
            f"spill_bytes={stats.spill_bytes} "
            f"retired_segments={stats.retired_segments}",
            file=sys.stderr,
        )
    print(report.to_markdown(), end="")
    for name, path in sorted(written.items()):
        print(f"[trace-report] wrote {path}", file=sys.stderr)
    return 0


def _cmd_diff_metrics(args) -> int:
    from repro.obs import diff_metrics_files, parse_threshold

    if len(args.paths) != 2:
        raise ReproError(
            "diff-metrics needs exactly two metrics JSON paths, got "
            f"{len(args.paths)}"
        )
    diff = diff_metrics_files(
        args.paths[0], args.paths[1],
        threshold=parse_threshold(args.threshold),
    )
    print(diff.format(), end="")
    return 0 if diff.ok else 1


def _cmd_compare(args) -> int:
    from repro.obs import compare_summary_files

    if len(args.paths) != 2:
        raise ReproError(
            "compare needs exactly two replicate-summary JSON paths "
            f"(written with --summary-out), got {len(args.paths)}"
        )
    report = compare_summary_files(
        args.paths[0], args.paths[1], alpha=args.alpha, seed=args.seed,
    )
    print(report.format(), end="")
    return 0 if report.ok else 1


#: The artefacts ``reproduce-all`` regenerates, in order.  Everything
#: here must write byte-stable stdout and a deterministic metrics
#: export, so a warm (fully cached) rerun reproduces the bundle
#: manifest byte-identically.
PINNED_ARTEFACTS: tuple[str, ...] = (
    "table2", "fig3", "fig4", "fig6", "fig7",
    "x1", "x4", "x5", "x9", "trace-report",
)


def _cmd_reproduce_all(args) -> int:
    import io
    from contextlib import redirect_stdout

    from repro import metrics as metrics_mod
    from repro.engine import ExperimentEngine, ResultCache, sweeps
    from repro.metrics.registry import MetricsRegistry
    from repro.obs.bundle import (
        BUNDLE_SCHEMA, environment_capture, file_digests,
        write_bundle_manifest,
    )

    if args.paths:
        raise ReproError(
            "reproduce-all takes no positional paths "
            f"(got {args.paths}); use --out DIR"
        )
    names = list(PINNED_ARTEFACTS)
    if args.only is not None:
        requested = [n.strip() for n in args.only.split(",") if n.strip()]
        unknown = sorted(set(requested) - set(PINNED_ARTEFACTS))
        if unknown:
            raise ReproError(
                f"--only names unknown artefacts: {', '.join(unknown)} "
                f"(pinned: {', '.join(PINNED_ARTEFACTS)})"
            )
        names = [n for n in PINNED_ARTEFACTS if n in requested]
        if not names:
            raise ReproError("--only selected no artefacts")
    out_dir = Path(args.out or "bundle")
    out_dir.mkdir(parents=True, exist_ok=True)
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    artefact_records: dict[str, dict] = {}
    total_hits = total_misses = 0
    for name in names:
        artefact_dir = out_dir / name
        artefact_dir.mkdir(parents=True, exist_ok=True)
        # Each artefact runs under its own registry and engine, so its
        # metrics export and recompute counts are self-contained; the
        # content-addressed cache is shared across all of them.
        registry = MetricsRegistry()
        previous = metrics_mod.set_registry(registry)
        local = argparse.Namespace(**vars(args))
        local.summaries = {}
        try:
            local.engine = ExperimentEngine(
                cache=cache,
                jobs=args.jobs,
                manifest_dir=None,
                echo=lambda line: print(line, file=sys.stderr),
                policy=_build_policy(args),
            )
            if name == "trace-report":
                # One cached engine point; the pinned bundle keeps the
                # Chrome export.
                payload = sweeps.TRACE_REPORT.run(
                    local.engine, sweeps.trace_report_point,
                    [{"app": args.app, "seed": args.seed}],
                    label=f"trace-report/{args.app}",
                ).values[0]
                for file_name, text in payload["files"].items():
                    (artefact_dir / file_name).write_bytes(text.encode("utf-8"))
                stdout = payload["stdout"]
            else:
                buffer = io.StringIO()
                with redirect_stdout(buffer):
                    COMMANDS[name](local)
                stdout = buffer.getvalue()
        finally:
            metrics_mod.set_registry(previous)
        hits = local.engine.total_hits
        misses = local.engine.total_misses
        (artefact_dir / "stdout.txt").write_text(stdout, encoding="utf-8")
        if name != "trace-report":
            # trace-report writes its own deterministic metrics.json.
            metrics_mod.write_metrics(
                registry, artefact_dir / "metrics.json", "json",
                deterministic=True,
            )
        if local.summaries:
            _write_summary_document(local, artefact_dir / "summary.json")
        files = sorted(p for p in artefact_dir.rglob("*") if p.is_file())
        artefact_records[name] = {
            "files": file_digests(out_dir, files),
            "seed": args.seed,
            "seeds": sweeps.seed_series(args.seed, args.seeds),
            "confidence": args.ci,
        }
        total_hits += hits
        total_misses += misses
        print(f"[bundle] {name}: recomputed {misses} | hits {hits}",
              file=sys.stderr)
    digest = write_bundle_manifest(out_dir, {
        "schema": BUNDLE_SCHEMA,
        "config": {
            "artefacts": names,
            "quick": bool(args.quick),
            "seed": args.seed,
            "seeds": args.seeds,
            "confidence": args.ci,
        },
        "environment": environment_capture(),
        "artefacts": artefact_records,
    })
    print(f"[bundle] recomputed {total_misses} | hits {total_hits}",
          file=sys.stderr)
    print(digest)
    return 0


def _cmd_cache(args) -> int:
    from repro.engine import ResultCache

    actions = ("verify", "stats", "clear")
    if len(args.paths) != 1 or args.paths[0] not in actions:
        raise ReproError(
            "cache needs exactly one action: " + ", ".join(actions)
        )
    action = args.paths[0]
    cache = ResultCache(args.cache_dir)
    if action == "verify":
        report = cache.verify()
        print(report.format())
        return 1 if report.corrupt else 0
    if action == "stats":
        print(f"cache {cache.root}: {len(cache)} entries")
        return 0
    removed = cache.clear()
    print(f"cache {cache.root}: removed {removed} entries")
    return 0


def _parse_params(pairs) -> dict:
    """``--param k=v`` pairs -> a params dict; values parse as JSON
    first (numbers, lists, objects, booleans) and fall back to raw
    strings, so ``--param cores=16`` and ``--param app=bigdft`` both
    do what they look like."""
    import json

    params: dict = {}
    for pair in pairs or []:
        name, sep, raw = pair.partition("=")
        if not sep or not name:
            raise ReproError(
                f"--param needs name=value, got {pair!r}"
            )
        try:
            params[name] = json.loads(raw)
        except ValueError:
            params[name] = raw
    return params


def _cmd_serve(args) -> int:
    """Run the simulation job service until SIGTERM/SIGINT."""
    import asyncio

    from repro import metrics as metrics_mod
    from repro.service import JobService, ServiceConfig, serve

    run_dir = args.resume if args.resume is not None else args.run_dir
    config = ServiceConfig(
        cache_root=args.cache_dir,
        run_dir=run_dir,
        pool_size=args.pool,
        queue_limit=args.queue_limit,
        drain_s=args.drain,
        default_deadline_s=args.deadline,
        point_timeout_s=args.point_timeout,
        retries=args.retries,
        retry_delay_s=args.retry_delay,
        breaker_threshold=args.breaker_threshold,
        breaker_cooldown_s=args.breaker_cooldown,
    )
    # The service always runs instrumented — /metrics is part of its
    # contract — even when the CLI wasn't asked for a metrics export.
    installed = previous = None
    if not metrics_mod.current_registry().enabled:
        installed = metrics_mod.MetricsRegistry()
        previous = metrics_mod.set_registry(installed)
    try:
        asyncio.run(serve(JobService(config), host=args.host, port=args.port))
    finally:
        if installed is not None:
            metrics_mod.set_registry(previous)
    return 0


def _cmd_submit(args) -> int:
    """Submit one job to a running service and print its result."""
    import json

    from repro.service.client import ServiceClient

    if len(args.paths) != 1:
        raise ReproError(
            "submit needs exactly one scenario name "
            f"(e.g. cluster-elapsed), got {args.paths!r}"
        )
    client = ServiceClient(args.url)
    response = client.submit(
        args.paths[0], _parse_params(args.param),
        deadline_s=args.deadline, wait=not args.no_wait,
    )
    job = response["job"]
    print(
        f"[submit] job {job['job_id']} state={job['state']} "
        f"deduped={str(response['deduped']).lower()} "
        f"source={job['source'] or '-'} "
        f"attempts={job['attempts']}",
        file=sys.stderr,
    )
    if job["state"] == "done":
        sys.stdout.write(client.result_bytes(job["job_id"]).decode("utf-8"))
        return 0
    if job["state"] in ("failed", "cancelled"):
        error = job.get("error") or {}
        print(
            f"error in job {job['job_id']}: "
            f"{error.get('type', 'unknown')}: {error.get('message', '?')}",
            file=sys.stderr,
        )
        return 1
    # --no-wait: hand the id to the caller for status/result polling.
    print(json.dumps({"job_id": job["job_id"], "state": job["state"]}))
    return 0


def _cmd_status(args) -> int:
    """Service stats, or one job's snapshot with an id argument."""
    import json

    from repro.service.client import ServiceClient

    client = ServiceClient(args.url)
    if not args.paths:
        print(json.dumps(client.stats(), indent=2, sort_keys=True))
        return 0
    if len(args.paths) != 1:
        raise ReproError(
            f"status takes at most one job id, got {args.paths!r}"
        )
    job = client.status(args.paths[0])["job"]
    print(json.dumps(job, indent=2, sort_keys=True))
    return 0 if job["state"] != "failed" else 1


def _cmd_result(args) -> int:
    """Print a finished job's canonical result body."""
    from repro.service.client import ServiceClient

    if len(args.paths) != 1:
        raise ReproError(
            f"result needs exactly one job id, got {args.paths!r}"
        )
    client = ServiceClient(args.url)
    sys.stdout.write(client.result_bytes(args.paths[0]).decode("utf-8"))
    return 0


#: Maintenance commands: dispatched before the artefact loop and
#: never part of ``all`` (they are tools, not paper artefacts).
TOOL_COMMANDS: dict[str, Callable] = {
    "trace-report": _cmd_trace_report,
    "diff-metrics": _cmd_diff_metrics,
    "compare": _cmd_compare,
    "reproduce-all": _cmd_reproduce_all,
    "cache": _cmd_cache,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "status": _cmd_status,
    "result": _cmd_result,
}


COMMANDS: dict[str, Callable] = {
    "claims": _cmd_claims,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "fig1": _cmd_fig1,
    "fig2": _cmd_fig2,
    "fig3": _cmd_fig3,
    "fig4": _cmd_fig4,
    "fig5": _cmd_fig5,
    "fig6": _cmd_fig6,
    "fig7": _cmd_fig7,
    "x1": _cmd_x1,
    "x2": _cmd_x2,
    "x3": _cmd_x3,
    "x4": _cmd_x4,
    "x5": _cmd_x5,
    "x6": _cmd_x6,
    "x7": _cmd_x7,
    "x8": _cmd_x8,
    "x9": _cmd_x9,
    "faults": _cmd_faults,
}


_ARTEFACTS = (*COMMANDS, "all")

#: Each command-specific flag, the commands that read it, and why.  A
#: flag moved off its parser default on any other command would do
#: nothing, so ``main`` refuses it before anything runs.  The shared
#: engine and replicate flags are read everywhere and not listed.
FLAG_READERS: tuple[tuple[tuple[str, ...], tuple[str, ...], str], ...] = (
    (("--summary-out",), _ARTEFACTS,
     "only the artefacts and all write a replicate-summary document"),
    (("--run-dir", "--resume"), (*_ARTEFACTS, "serve"),
     "only the artefacts, all and serve keep a run directory"),
    (("--metrics-out", "--metrics-format"),
     (*_ARTEFACTS, *(name for name in TOOL_COMMANDS if name != "reproduce-all")),
     "the bundle writes each artefact's own metrics.json"),
    (("--app", "--out"), ("trace-report", "reproduce-all"),
     "only trace-report and reproduce-all read it"),
    (("--stream", "--frontier", "--chrome-out"), ("trace-report",),
     "only trace-report reads it"),
    (("--only",), ("reproduce-all",), "only reproduce-all reads it"),
    (("--plan",), ("faults", "all"), "only faults and all read it"),
    (("--threshold",), ("diff-metrics",), "only diff-metrics reads it"),
    (("--alpha",), ("compare",), "only compare reads it"),
    (("--host", "--port", "--pool", "--queue-limit", "--drain",
      "--breaker-threshold", "--breaker-cooldown"), ("serve",),
     "only serve reads it"),
    (("--deadline",), ("serve", "submit"), "only serve and submit read it"),
    (("--url",), ("submit", "status", "result"),
     "only submit, status and result read it"),
    (("--param", "--no-wait"), ("submit",), "only submit reads it"),
)


def build_parser() -> argparse.ArgumentParser:
    """The ``python -m repro`` argument parser."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Regenerate artefacts of the DATE'13 low-power-HPC paper.",
    )
    parser.add_argument(
        "artefact",
        choices=[*COMMANDS, "all", *TOOL_COMMANDS],
        help="which table/figure to regenerate, or a tool "
             "(trace-report, diff-metrics, compare, reproduce-all, "
             "cache, serve, submit, status, result)",
    )
    parser.add_argument(
        "paths", nargs="*", metavar="PATH",
        help="for diff-metrics/compare: the two JSON files to compare; "
             "for cache: the action (verify, stats, clear); for "
             "submit: the scenario name; for status/result: the job id",
    )
    parser.add_argument("--quick", action="store_true",
                        help="shrink the cluster sweeps")
    parser.add_argument("--seed", type=int, default=7,
                        help="seed for the stochastic pieces (default 7)")
    parser.add_argument("--seeds", type=int, default=1, metavar="N",
                        help="replicate count for multi-seed artefacts "
                             "(fig3, x4): run every sweep point once per "
                             "seed seed..seed+N-1 and report mean/CI "
                             "summaries (default 1: single run)")
    parser.add_argument("--ci", type=float, default=0.95, metavar="LEVEL",
                        help="bootstrap confidence level for replicate "
                             "summaries (default 0.95)")
    parser.add_argument("--summary-out", default=None, metavar="PATH",
                        help="write the replicate-summary JSON document "
                             "(per-point mean/CI/CV + raw values) to "
                             "PATH; input format of 'compare'")
    parser.add_argument("--alpha", type=float, default=0.05,
                        help="significance level for 'compare' "
                             "(default 0.05)")
    parser.add_argument("--only", default=None, metavar="LIST",
                        help="reproduce-all: comma-separated subset of "
                             "the pinned artefacts to regenerate")
    parser.add_argument("--plan", default="montblanc",
                        help="named fault plan for the faults artefact "
                             "(none, single-crash, crashy, flaky-links, "
                             "noisy, montblanc)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes for engine sweeps (default 1)")
    parser.add_argument("--cache-dir", default=None,
                        help="result-cache directory (default: "
                             "$REPRO_CACHE_DIR or ~/.cache/repro)")
    parser.add_argument("--no-cache", action="store_true",
                        help="disable the on-disk result cache")
    parser.add_argument("--point-timeout", type=float, default=None,
                        metavar="S",
                        help="wall-clock budget per sweep point; in "
                             "process mode a worker past it is killed "
                             "and the attempt retried")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="retry budget per sweep point (default 0: "
                             "a worker failure aborts the artefact)")
    parser.add_argument("--retry-delay", type=float, default=0.1,
                        metavar="S",
                        help="base backoff delay before the first "
                             "retry, doubling per attempt (default 0.1)")
    parser.add_argument("--run-dir", default=None, metavar="DIR",
                        help="journal every completed sweep point to "
                             "DIR/journal.jsonl and write manifests "
                             "under DIR (starts a fresh journal)")
    parser.add_argument("--resume", default=None, metavar="DIR",
                        help="resume the interrupted run journaled "
                             "under DIR: completed points are replayed, "
                             "only the tail executes")
    parser.add_argument("--app", default="bigdft",
                        choices=["bigdft", "specfem3d"],
                        help="application for trace-report (default bigdft)")
    parser.add_argument("--out", default=None, metavar="DIR",
                        help="trace-report output directory "
                             "(default trace-report-out)")
    parser.add_argument("--stream", action="store_true",
                        help="trace-report: bound the analyzer's in-memory "
                             "frontier (see --frontier), spilling older "
                             "events to disk, and write stream_stats.json "
                             "(same report, byte for byte)")
    parser.add_argument("--chrome-out", default=None, metavar="PATH",
                        help="trace-report: also write a Chrome trace-event "
                             "export to PATH (skipped entirely when absent; "
                             "incompatible with --stream)")
    parser.add_argument("--frontier", type=int, default=None, metavar="N",
                        help="trace-report --stream: in-memory event "
                             "frontier limit before spilling to disk, at "
                             "least 1 (default 8192); the live count can "
                             "exceed it by up to one buffered segment of "
                             "1024 receive waits")
    parser.add_argument("--threshold", default="5%",
                        help="diff-metrics drift threshold, e.g. 5%% or "
                             "0.05 (default 5%%)")
    parser.add_argument("--metrics-out", default=None, metavar="PATH",
                        help="collect metrics for this run and write the "
                             "export to PATH (stdout stays untouched)")
    parser.add_argument("--metrics-format", default=None,
                        choices=["json", "prom", "table"],
                        help="metrics export format (default json); with "
                             "no --metrics-out the export goes to stderr")
    service = parser.add_argument_group("simulation service (serve/submit)")
    service.add_argument("--host", default="127.0.0.1",
                         help="serve: bind address (default 127.0.0.1)")
    service.add_argument("--port", type=int, default=8642,
                         help="serve: TCP port; 0 picks an ephemeral one "
                              "(default 8642)")
    service.add_argument("--pool", type=int, default=2, metavar="N",
                         help="serve: worker process pool size (default 2)")
    service.add_argument("--queue-limit", type=int, default=16, metavar="N",
                         help="serve: bounded job queue capacity; "
                              "submissions past it get a typed 429 "
                              "(default 16)")
    service.add_argument("--drain", type=float, default=5.0, metavar="S",
                         help="serve: graceful-shutdown budget for "
                              "running jobs; the rest are persisted "
                              "(default 5)")
    service.add_argument("--breaker-threshold", type=int, default=3,
                         metavar="N",
                         help="serve: consecutive failures that open a "
                              "scenario class's circuit breaker "
                              "(default 3)")
    service.add_argument("--breaker-cooldown", type=float, default=5.0,
                         metavar="S",
                         help="serve: seconds an open breaker sheds its "
                              "class before half-open probing (default 5)")
    service.add_argument("--deadline", type=float, default=None, metavar="S",
                         help="serve: default per-job deadline; submit: "
                              "this job's deadline (cancels the job and "
                              "truncates retries when it expires)")
    service.add_argument("--url", default="http://127.0.0.1:8642",
                         help="submit/status/result: service base URL "
                              "(default http://127.0.0.1:8642)")
    service.add_argument("--param", action="append", metavar="K=V",
                         help="submit: one scenario parameter; values "
                              "parse as JSON with a raw-string fallback "
                              "(repeatable)")
    service.add_argument("--no-wait", action="store_true",
                         help="submit: return the job id immediately "
                              "instead of blocking for the result")
    return parser


def _build_policy(args):
    """The ExecutionPolicy the flags describe, or None for the default."""
    from repro.engine import ExecutionPolicy
    from repro.faults.detect import RetryPolicy

    if args.retries <= 0 and args.point_timeout is None:
        return None
    retry = None
    if args.retries > 0:
        retry = RetryPolicy(
            timeout_s=args.retry_delay, max_retries=args.retries
        )
    return ExecutionPolicy(
        point_timeout_s=args.point_timeout, retry=retry, seed=args.seed
    )


def _flush_interrupted(args, journal) -> None:
    """Best-effort partial-state flush after a SIGINT.

    Completed sweeps already wrote their manifests and the journal is
    durable per record; this adds ``interrupted.json`` to an active
    run directory (what finished, how much is journaled) so resuming
    tooling can tell a clean run from a truncated one.
    """
    import json

    run_dir = getattr(args, "resume", None) or getattr(args, "run_dir", None)
    if run_dir is None:
        return
    engine = getattr(args, "engine", None)
    marker = {
        "artefact": args.artefact,
        "completed_sweeps": (
            [m.sweep for m in engine.manifests] if engine is not None else []
        ),
        "journal_records": 0 if journal is None else len(journal),
    }
    try:
        Path(run_dir).mkdir(parents=True, exist_ok=True)
        (Path(run_dir) / "interrupted.json").write_text(
            json.dumps(marker, indent=2, sort_keys=True) + "\n",
            encoding="utf-8",
        )
        print(f"[engine] partial state flushed to {run_dir}/interrupted.json",
              file=sys.stderr)
    except OSError as error:
        print(f"[engine] could not flush interrupt marker: {error}",
              file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    # parse_intermixed_args lets flags appear between the positionals
    # ("diff-metrics --threshold 5% A.json B.json" and
    # "diff-metrics A.json B.json --threshold 5%" both work).
    parser = build_parser()
    args = parser.parse_intermixed_args(argv)
    if args.run_dir is not None and args.resume is not None:
        print("error: --run-dir and --resume are mutually exclusive "
              "(--resume already names the run directory)", file=sys.stderr)
        return 2
    for flag, value, bad, want in (
        ("--seeds", args.seeds, args.seeds < 1, ">= 1"),
        ("--ci", args.ci, not 0.0 < args.ci < 1.0, "in (0, 1)"),
        ("--jobs", args.jobs, args.jobs < 1, ">= 1"),
        ("--retries", args.retries, args.retries < 0, ">= 0"),
        ("--point-timeout", args.point_timeout,
         args.point_timeout is not None and args.point_timeout <= 0, "> 0"),
        ("--retry-delay", args.retry_delay, args.retry_delay <= 0, "> 0"),
        ("--port", args.port, not 0 <= args.port <= 65535, "in [0, 65535]"),
    ):
        if bad:
            print(f"error: {flag} must be {want}, got {value}",
                  file=sys.stderr)
            return 2
    # A flag the command never reads would silently do nothing (or,
    # for the bundle's metrics, write an empty export).
    for flags, readers, why in FLAG_READERS:
        for flag in flags:
            dest = flag[2:].replace("-", "_")
            if (args.artefact not in readers
                    and getattr(args, dest) != parser.get_default(dest)):
                print(f"error: {flag} has no effect on {args.artefact}: "
                      f"{why}", file=sys.stderr)
                return 2
    # Imported after parsing, so `--help` and a usage error load
    # nothing else.
    from repro import metrics as metrics_mod

    args.summaries = {}
    wants_metrics = (
        args.metrics_out is not None or args.metrics_format is not None
    )
    registry = metrics_mod.MetricsRegistry() if wants_metrics else None
    # Installed process-wide so every layer a command touches (DES,
    # MPI, engine, faults, tuner) reports into this run's registry;
    # the previous registry is restored on the way out, so in-process
    # callers (the test suite) never observe leaked global state.
    previous = metrics_mod.set_registry(registry) if registry is not None else None
    code = 0
    journal = None
    try:
        if args.artefact in TOOL_COMMANDS:
            try:
                code = TOOL_COMMANDS[args.artefact](args)
            except ReproError as error:
                print(f"error in {args.artefact}: {error}", file=sys.stderr)
                code = 1
        else:
            from repro.engine import ExperimentEngine, ResultCache, RunJournal

            cache = None if args.no_cache else ResultCache(args.cache_dir)
            run_dir = args.resume if args.resume is not None else args.run_dir
            try:
                if run_dir is not None:
                    journal = RunJournal(
                        Path(run_dir) / "journal.jsonl",
                        resume=args.resume is not None,
                    )
            except ReproError as error:
                print(f"error opening run journal: {error}", file=sys.stderr)
                return 1
            if run_dir is not None:
                manifest_dir = Path(run_dir) / "manifests"
            elif cache is not None:
                manifest_dir = cache.root / "manifests"
            else:
                manifest_dir = None
            args.engine = ExperimentEngine(
                cache=cache,
                jobs=args.jobs,
                manifest_dir=manifest_dir,
                echo=lambda line: print(line, file=sys.stderr),
                policy=_build_policy(args),
                journal=journal,
            )
            names = list(COMMANDS) if args.artefact == "all" else [args.artefact]
            for name in names:
                if len(names) > 1:
                    print(f"\n{'=' * 60}\n{name}\n{'=' * 60}")
                span = (
                    registry.span(f"artefact/{name}") if registry is not None
                    else nullcontext()
                )
                try:
                    with span:
                        # A failed claim exits 1, after `all` has run
                        # every other artefact.
                        code = max(code, COMMANDS[name](args) or 0)
                except ReproError as error:
                    print(f"error regenerating {name}: {error}", file=sys.stderr)
                    code = 1
                    break
            if code == 0 and args.summary_out is not None:
                try:
                    _write_summary_document(args, args.summary_out)
                except OSError as error:
                    print(f"error writing summary: {error}", file=sys.stderr)
                    code = 1
            if code == 0 and args.engine.manifests:
                print(f"[engine] totals: hits {args.engine.total_hits} | "
                      f"misses {args.engine.total_misses}", file=sys.stderr)
            if journal is not None:
                print(f"[engine] journal {journal.path}: replayed "
                      f"{journal.replayed} | appended {journal.appended}",
                      file=sys.stderr)
    except KeyboardInterrupt:
        # Ctrl-C is a request, not a crash: one line, exit code 130
        # (128+SIGINT), no traceback.  Durable state is already safe —
        # the journal fsyncs per record and finished sweeps saved their
        # manifests — but an active run directory gets an interrupted
        # marker so a later --resume knows the run was cut short.
        code = 130
        print(f"\ninterrupted: {args.artefact} stopped by SIGINT",
              file=sys.stderr)
        _flush_interrupted(args, journal)
    finally:
        if journal is not None:
            journal.close()
        if registry is not None:
            metrics_mod.set_registry(previous)
    if registry is not None:
        fmt = args.metrics_format or "json"
        # A failed export (an unwritable path) fails the run even when
        # the artefact itself succeeded.
        try:
            if args.metrics_out is not None:
                metrics_mod.write_metrics(registry, args.metrics_out, fmt)
            else:
                sys.stderr.write(metrics_mod.render_metrics(registry, fmt))
        except ReproError as error:
            print(f"error writing metrics: {error}", file=sys.stderr)
            code = 1
    return code
