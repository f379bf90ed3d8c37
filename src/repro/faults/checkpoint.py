"""Coordinated checkpoint/restart on top of the fault layer.

The classic defence against fail-stop node loss: every
``interval_s`` of application progress, all ranks coordinate a
checkpoint costing ``write_cost_s``; when a crash is detected the job
rolls back to the last checkpoint, pays a restart cost, and *re-does*
the work lost since that checkpoint (the rework).  Too-frequent
checkpoints lose time to writing them, too-rare ones lose time to
rework — the interval sweet spot in between is Daly's optimum, and the
X9 experiment sweeps it.

:func:`run_with_checkpoints` combines two ingredients:

* a **DES probe** — the real :class:`~repro.cluster.mpi.MpiJob` runs
  under the :class:`~repro.faults.inject.FaultInjector`, so the first
  failure's dynamics (crash mid-collective, heartbeat detection
  latency, retry backoff, structured :class:`RankFailure`) are
  simulated faithfully and land in the trace;
* an **analytic walk** over the plan's remaining crash times with the
  checkpoint-overhead/rework/downtime bookkeeping, which composes the
  full time-to-solution without re-simulating every restart attempt
  (rank programs are generators and cannot be fast-forwarded to a
  checkpoint; the walk is the standard first-order model instead).

Crashed nodes are assumed repaired (rebooted or swapped from spares)
by the time the restart cost has been paid, so every attempt runs on
the full machine; crashes triggering during a restart window are
absorbed into it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.cluster.mpi import MpiJob
from repro.errors import CheckpointError, ConfigurationError, RankFailure
from repro.faults.detect import ResilienceConfig
from repro.faults.inject import FailureRecord, FaultInjector
from repro.faults.plan import FaultPlan


@dataclass(frozen=True)
class CheckpointConfig:
    """Coordinated-checkpoint parameters.

    ``write_cost_s`` is the wall time all ranks stall while the
    checkpoint drains to stable storage; ``restart_cost_s`` covers
    re-launching the job and reading the checkpoint back.
    """

    interval_s: float = 30.0
    write_cost_s: float = 2.0
    restart_cost_s: float = 10.0
    max_restarts: int = 16

    def __post_init__(self) -> None:
        if self.interval_s <= 0:
            raise ConfigurationError(f"interval must be positive, got {self.interval_s}")
        if self.write_cost_s < 0 or self.restart_cost_s < 0:
            raise ConfigurationError("checkpoint costs cannot be negative")
        if self.max_restarts < 0:
            raise ConfigurationError(f"negative max_restarts {self.max_restarts}")

    @classmethod
    def from_state_bytes(
        cls,
        state_bytes: float,
        *,
        interval_s: float,
        io_bandwidth_bytes_per_s: float = 100e6,
        restart_cost_s: float | None = None,
        max_restarts: int = 16,
    ) -> "CheckpointConfig":
        """Derive costs from the application's checkpoint footprint.

        Writing is serialized through the cluster's checkpoint I/O
        path (``io_bandwidth_bytes_per_s``, default a single shared
        GbE-class 100 MB/s store — Tibidabo had no parallel FS);
        restart re-reads the state and adds a fixed relaunch charge.
        """
        if state_bytes < 0:
            raise ConfigurationError(f"negative state size {state_bytes}")
        if io_bandwidth_bytes_per_s <= 0:
            raise ConfigurationError("I/O bandwidth must be positive")
        write = state_bytes / io_bandwidth_bytes_per_s
        if restart_cost_s is None:
            restart_cost_s = 5.0 + write  # relaunch + read-back
        return cls(
            interval_s=interval_s,
            write_cost_s=write,
            restart_cost_s=restart_cost_s,
            max_restarts=max_restarts,
        )

    @property
    def overhead_factor(self) -> float:
        """Wall seconds per useful second in the failure-free case."""
        return (self.interval_s + self.write_cost_s) / self.interval_s


@dataclass(frozen=True)
class ResilientRunResult:
    """Time-to-solution decomposition of one run under faults."""

    wall_seconds: float
    useful_seconds: float
    rework_seconds: float
    checkpoint_overhead_seconds: float
    downtime_seconds: float
    restarts: int
    failures: tuple[FailureRecord, ...]
    retry_wait_seconds: float
    loss_episodes: int
    plan_name: str
    checkpoint: CheckpointConfig = field(repr=False, default_factory=CheckpointConfig)

    @property
    def rework_fraction(self) -> float:
        """Fraction of wall time spent re-doing lost work."""
        return self.rework_seconds / self.wall_seconds if self.wall_seconds else 0.0

    @property
    def detection_latency_s(self) -> float | None:
        """Mean crash-to-detection latency across failures."""
        if not self.failures:
            return None
        return math.fsum(f.detection_latency_s for f in self.failures) / len(self.failures)

    @property
    def slowdown(self) -> float:
        """Wall time relative to the failure-free, checkpoint-free run."""
        return self.wall_seconds / self.useful_seconds if self.useful_seconds else 1.0


def run_with_checkpoints(
    cluster,
    num_ranks: int,
    program_factory,
    plan: FaultPlan,
    *,
    checkpoint: CheckpointConfig | None = None,
    resilience: ResilienceConfig | None = None,
    tracer=None,
    clean_elapsed_s: float | None = None,
) -> ResilientRunResult:
    """Time-to-solution of one MPI job under *plan* with checkpointing.

    Runs the failure-free job once (unless ``clean_elapsed_s`` is
    given), probes the faulty execution through the DES so failure
    dynamics are real, then composes the restart timeline.  Raises
    :class:`CheckpointError` if ``max_restarts`` is exceeded.
    """
    from repro.metrics.registry import current_registry

    metrics = current_registry()
    checkpoint = checkpoint or CheckpointConfig()
    resilience = resilience or ResilienceConfig()

    if clean_elapsed_s is None:
        cluster.reset()
        clean_elapsed_s = MpiJob(cluster, num_ranks, program_factory).run().elapsed_seconds
    useful = clean_elapsed_s

    # DES probe: faithful dynamics of the execution up to the first
    # detected failure (or the whole job when nothing crashes it).
    cluster.reset()
    injector = FaultInjector(plan, resilience=resilience)
    job = MpiJob(cluster, num_ranks, program_factory, tracer=tracer, injector=injector)
    probe_failed = False
    try:
        probe = job.run()
        probe_failed = bool(probe.failed_ranks)
        probe_elapsed = probe.elapsed_seconds
    except RankFailure:
        probe_failed = True
        probe_elapsed = None
    retry_wait = job.retry_wait_s
    losses = cluster.fabric.total_loss_episodes()

    interval = checkpoint.interval_s
    rate = 1.0 / checkpoint.overhead_factor  # useful seconds per wall second

    if not probe_failed:
        # Perturbed but never killed: the DES elapsed time already
        # includes slowdown/flap/noise effects; add checkpoint writes.
        wall = probe_elapsed * checkpoint.overhead_factor
        return ResilientRunResult(
            wall_seconds=wall,
            useful_seconds=useful,
            rework_seconds=0.0,
            checkpoint_overhead_seconds=wall - probe_elapsed,
            downtime_seconds=0.0,
            restarts=0,
            failures=tuple(injector.failures),
            retry_wait_seconds=retry_wait,
            loss_episodes=losses,
            plan_name=plan.name,
            checkpoint=checkpoint,
        )

    # Analytic restart walk over the plan's rank-affecting crashes.
    nodes_in_use = -(-num_ranks // job.ranks_per_node)
    crash_times = sorted(
        c.time_s for c in plan.crashes if c.node < nodes_in_use
    )
    detect_latency = resilience.detector.latency_s
    wall = 0.0
    progress = 0.0  # useful seconds completed and safely checkpointed
    rework_total = 0.0
    downtime_total = 0.0
    restarts = 0
    failures = list(injector.failures)
    for crash_t in crash_times:
        if crash_t < wall:
            continue  # struck during a restart window: absorbed by it
        finish_wall = wall + (useful - progress) / rate
        if crash_t >= finish_wall:
            break  # the job finished before this crash triggered
        progress_at = progress + (crash_t - wall) * rate
        checkpointed = min(progress_at, math.floor(progress_at / interval) * interval)
        rework_total += progress_at - checkpointed
        restarts += 1
        if restarts > checkpoint.max_restarts:
            raise CheckpointError(
                f"plan {plan.name!r} exceeded {checkpoint.max_restarts} restarts "
                f"(crash at t={crash_t:.1f}s)"
            )
        down = detect_latency + checkpoint.restart_cost_s
        record = getattr(tracer, "fault", None)
        if record is not None:
            record(
                "restart", crash_t + down, "job",
                resumed_from_s=checkpointed,
                rework_s=progress_at - checkpointed,
                restart=restarts,
            )
        wall = crash_t + down
        downtime_total += down
        progress = checkpointed
    if probe_failed and restarts == 0:
        # Aborted without a node crash (link-retry exhaustion): one
        # relaunch; the flap window is over by the time it comes back.
        down = detect_latency + checkpoint.restart_cost_s
        wall += down
        downtime_total += down
        restarts = 1
    wall += (useful - progress) / rate

    metrics.inc("faults.recoveries", restarts)
    metrics.inc("faults.rework_seconds", rework_total)
    return ResilientRunResult(
        wall_seconds=wall,
        useful_seconds=useful,
        rework_seconds=rework_total,
        checkpoint_overhead_seconds=max(
            0.0, wall - useful - rework_total - downtime_total
        ),
        downtime_seconds=downtime_total,
        restarts=restarts,
        failures=tuple(failures),
        retry_wait_seconds=retry_wait,
        loss_episodes=losses,
        plan_name=plan.name,
        checkpoint=checkpoint,
    )


def checkpoint_interval_sweep(
    cluster,
    num_ranks: int,
    program_factory,
    plan: FaultPlan,
    intervals_s: list[float],
    *,
    state_bytes: float | None = None,
    write_cost_s: float = 2.0,
    resilience: ResilienceConfig | None = None,
) -> list[tuple[float, ResilientRunResult]]:
    """Time-to-solution across checkpoint intervals (the X9 sweep).

    Returns ``(interval, result)`` pairs; the failure-free elapsed
    time is simulated once and shared across the sweep.
    """
    if not intervals_s:
        raise ConfigurationError("need at least one interval to sweep")
    cluster.reset()
    clean = MpiJob(cluster, num_ranks, program_factory).run().elapsed_seconds
    out = []
    for interval in intervals_s:
        if state_bytes is not None:
            config = CheckpointConfig.from_state_bytes(
                state_bytes, interval_s=interval
            )
        else:
            config = CheckpointConfig(interval_s=interval, write_cost_s=write_cost_s)
        out.append((
            interval,
            run_with_checkpoints(
                cluster, num_ranks, program_factory, plan,
                checkpoint=config, resilience=resilience,
                clean_elapsed_s=clean,
            ),
        ))
    return out
