"""App-level resilience: LINPACK (and friends) under fault plans."""

import pytest

from repro.apps import BigDFT, Linpack, Specfem3D
from repro.cluster import tibidabo
from repro.faults import FaultPlan, NodeCrash
from repro.tracing import TraceRecorder, resilience_summary


def _cluster(nodes=8, seed=0):
    return tibidabo(num_nodes=nodes, seed=seed)


def _small_linpack():
    return Linpack(cluster_n=2048, nb=256)


class TestRunUnderFaults:
    def test_linpack_completes_with_quantified_rework(self):
        """The acceptance scenario: checkpoint/restart completes LINPACK
        under a mid-run crash and quantifies the rework."""
        app = _small_linpack()
        cluster = _cluster()
        clean = app.run_cluster(cluster, 8)
        plan = FaultPlan(
            events=(NodeCrash(time_s=0.5 * clean, node=0),), name="mid-crash"
        )
        recorder = TraceRecorder()
        result = app.run_under_faults(
            cluster, 8, plan, clean_elapsed_s=clean,
            checkpoint_interval_s=max(0.5, clean / 8.0),
            tracer=recorder,
        )
        assert result.restarts == 1
        assert result.rework_seconds >= 0.0
        assert result.wall_seconds > clean
        assert 0.0 <= result.rework_fraction < 1.0
        report = resilience_summary(recorder)
        assert report.crashes == 1
        assert report.mean_detection_latency_s == pytest.approx(0.15)

    def test_fault_free_plan_only_pays_checkpoints(self):
        app = _small_linpack()
        cluster = _cluster()
        result = app.run_under_faults(
            cluster, 8, FaultPlan(),
            clean_elapsed_s=app.run_cluster(cluster, 8),
        )
        assert result.restarts == 0 and result.rework_seconds == 0.0

    def test_checkpoint_bytes_overrides(self):
        cluster = _cluster()
        linpack = _small_linpack()
        assert linpack.checkpoint_bytes(cluster, 8) == pytest.approx(
            8.0 * 2048**2
        )
        assert Specfem3D().checkpoint_bytes(cluster, 8) == pytest.approx(
            36.0 * 4_000_000
        )
        assert BigDFT().checkpoint_bytes(cluster, 8) == pytest.approx(1.15e9)
