"""Tests for repro.faults.checkpoint — coordinated checkpoint/restart."""

import pytest

from repro.cluster import MpiJob, tibidabo
from repro.errors import CheckpointError, ConfigurationError
from repro.faults import (
    CheckpointConfig,
    FaultPlan,
    NodeCrash,
    run_with_checkpoints,
)
from repro.tracing import TraceRecorder


def _cluster(nodes=8, seed=0):
    return tibidabo(num_nodes=nodes, seed=seed)


def _long_program(steps=30, compute_s=1.0):
    def program(rank):
        for _ in range(steps):
            yield rank.compute(compute_s)
            yield from rank.allreduce(64_000)

    return program


def _clean_s(cluster, num_ranks, program):
    """The failure-free elapsed time a checkpointed run measures against."""
    return MpiJob(cluster, num_ranks, program).run().elapsed_seconds


class TestCheckpointConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError):
            CheckpointConfig(interval_s=0.0)
        with pytest.raises(ConfigurationError):
            CheckpointConfig(write_cost_s=-1.0)

    def test_from_state_bytes(self):
        config = CheckpointConfig.from_state_bytes(
            1e9, interval_s=60.0, io_bandwidth_bytes_per_s=100e6
        )
        assert config.write_cost_s == pytest.approx(10.0)
        assert config.restart_cost_s == pytest.approx(15.0)  # 5 s + read-back

    def test_overhead_factor(self):
        config = CheckpointConfig(interval_s=10.0, write_cost_s=1.0)
        assert config.overhead_factor == pytest.approx(1.1)


class TestRunWithCheckpoints:
    def test_failure_free_run_pays_only_checkpoint_overhead(self):
        cluster = _cluster()
        program = _long_program(steps=5)
        result = run_with_checkpoints(
            cluster, 8, program, FaultPlan(),
            clean_elapsed_s=_clean_s(cluster, 8, program),
            checkpoint=CheckpointConfig(interval_s=5.0, write_cost_s=0.5),
        )
        assert result.restarts == 0 and not result.failures
        assert result.rework_seconds == 0.0
        assert result.wall_seconds == pytest.approx(
            result.useful_seconds * 1.1, rel=1e-6
        )

    def test_crash_costs_quantified_rework(self):
        """A crash mid-run: the job completes, and the decomposition
        accounts for rework, downtime and checkpoint overhead."""
        cluster = _cluster()
        recorder = TraceRecorder()
        plan = FaultPlan(events=(NodeCrash(time_s=9.0, node=0),), name="one-crash")
        program = _long_program()
        result = run_with_checkpoints(
            cluster, 8, program, plan,
            clean_elapsed_s=_clean_s(cluster, 8, program),
            checkpoint=CheckpointConfig(
                interval_s=5.0, write_cost_s=0.5, restart_cost_s=3.0
            ),
            tracer=recorder,
        )
        assert result.restarts == 1
        assert len(result.failures) == 1
        assert result.rework_seconds > 0
        assert 0 < result.rework_fraction < 1
        assert result.wall_seconds > result.useful_seconds
        assert result.wall_seconds == pytest.approx(
            result.useful_seconds
            + result.rework_seconds
            + result.checkpoint_overhead_seconds
            + result.downtime_seconds,
            rel=1e-6,
        )
        restart_records = recorder.faults_of("restart")
        assert len(restart_records) == 1
        assert restart_records[0]["rework_s"] == pytest.approx(
            result.rework_seconds
        )

    def test_max_restarts_exceeded_raises(self):
        cluster = _cluster()
        plan = FaultPlan(
            events=tuple(
                NodeCrash(time_s=5.0 + 10.0 * i, node=0) for i in range(4)
            ),
            name="relentless",
        )
        program = _long_program()
        clean = _clean_s(cluster, 8, program)
        with pytest.raises(CheckpointError, match="restarts"):
            run_with_checkpoints(
                cluster, 8, program, plan, clean_elapsed_s=clean,
                checkpoint=CheckpointConfig(
                    interval_s=5.0, write_cost_s=0.5,
                    restart_cost_s=3.0, max_restarts=2,
                ),
            )

    def test_crash_after_finish_changes_nothing_but_overhead(self):
        cluster = _cluster()
        plan = FaultPlan(events=(NodeCrash(time_s=1e6, node=0),))
        program = _long_program(steps=3)
        result = run_with_checkpoints(
            cluster, 8, program, plan,
            clean_elapsed_s=_clean_s(cluster, 8, program),
            checkpoint=CheckpointConfig(interval_s=5.0, write_cost_s=0.5),
        )
        assert result.restarts == 0
        assert result.rework_seconds == 0.0


class TestIntervalSweep:
    def test_sweep_shows_the_sweet_spot(self):
        """Very frequent checkpoints lose to write overhead, very rare
        ones to rework: some middle interval must beat both extremes."""
        cluster = _cluster()
        plan = FaultPlan(
            events=(
                NodeCrash(time_s=9.0, node=0),
                NodeCrash(time_s=21.0, node=3),
            ),
            name="two-crash",
        )
        program = _long_program()
        clean = _clean_s(cluster, 8, program)
        walls = {
            interval: run_with_checkpoints(
                cluster, 8, program, plan, clean_elapsed_s=clean,
                checkpoint=CheckpointConfig(
                    interval_s=interval, write_cost_s=0.5
                ),
            ).wall_seconds
            for interval in (1.0, 5.0, 30.0)
        }
        assert walls[5.0] < walls[1.0]
        assert walls[5.0] < walls[30.0]
