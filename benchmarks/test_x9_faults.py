"""X9 — LINPACK under faults: time-to-solution with checkpoint/restart
and the checkpoint-interval sweet spot (Daly's trade-off) on the
simulated Tibidabo cluster.  The sweep is the ``repro x9`` record, on
a smaller instance of its own."""

from repro.apps import build_app
from repro.cluster import tibidabo
from repro.core.report import render_table
from repro.engine.sweeps import run_checkpoint_sweep
from repro.faults import named_plan
from repro.tracing import TraceRecorder, resilience_summary

APP_ARGS = {"cluster_n": 4096}
NUM_NODES, CORES, SEED = 8, 16, 7


def _regenerate(engine):
    app = build_app("linpack", APP_ARGS)
    cluster = tibidabo(num_nodes=NUM_NODES, seed=SEED)
    clean = app.run_cluster(cluster, CORES)
    plan = named_plan(
        "crashy", num_nodes=NUM_NODES, horizon_s=4.0 * clean, seed=SEED
    )
    sweep = run_checkpoint_sweep(
        engine, [max(0.5, f * clean) for f in (0.05, 0.15, 0.4, 1.0)],
        plan="crashy", horizon_s=4.0 * clean, clean_s=clean, cores=CORES,
        num_nodes=NUM_NODES, seed=SEED, app_args=APP_ARGS,
    )
    recorder = TraceRecorder()
    single = app.run_under_faults(
        cluster, CORES,
        named_plan("single-crash", num_nodes=NUM_NODES, horizon_s=clean,
                   seed=SEED),
        clean_elapsed_s=clean,
        checkpoint_interval_s=max(0.5, clean / 6.0),
        tracer=recorder,
    )
    return clean, plan, sweep, single, resilience_summary(recorder)


def test_x9_faults_smoke(benchmark, artefact, engine):
    clean, plan, sweep, single, report = benchmark.pedantic(
        lambda: _regenerate(engine), rounds=1, iterations=1
    )

    rows = [
        [
            f"{interval:.2f}",
            f"{value['wall_s']:.2f}",
            f"{value['rework_fraction'] * value['wall_s']:.2f}",
            f"{value['checkpoint_overhead_s']:.2f}",
            value["restarts"],
        ]
        for interval, value in sweep
    ]
    best_interval, best = min(sweep, key=lambda pair: pair[1]["wall_s"])
    artefact(
        "X9 — LINPACK under faults: checkpoint-interval sweep",
        render_table(
            f"clean {clean:.2f}s; plan 'crashy' with {len(plan.crashes)} crashes",
            ["interval (s)", "wall (s)", "rework (s)", "ckpt ovh (s)", "restarts"],
            rows,
        )
        + f"\n\nsweet spot: interval {best_interval:.2f}s -> {best['wall_s']:.2f}s"
        + f"\nsingle-crash run: wall {single.wall_seconds:.2f}s, "
        f"restarts {single.restarts}, rework {single.rework_fraction:.1%}\n"
        + report.format(),
    )

    # Every sweep point completed the job and is decomposed sanely.
    for _, value in sweep:
        assert value["wall_s"] >= clean
        assert value["rework_fraction"] >= 0.0
    # The crash was detected with the configured heartbeat latency and
    # the job still completed.
    assert single.restarts >= 1
    assert report.crashes == 1
    assert report.mean_detection_latency_s is not None
    # Daly's trade-off: the best interval is interior or at least no
    # worse than the extremes.
    assert best["wall_s"] <= sweep[0][1]["wall_s"]
    assert best["wall_s"] <= sweep[-1][1]["wall_s"]
