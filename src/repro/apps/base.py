"""Common application-model machinery.

A :class:`RunResult` is what every single-node run returns: wall time,
the benchmark's native metric, and the paper's rough TDP-based energy.
:class:`AppModel` is the interface Table II and the scaling benches
drive.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.arch.cpu import MachineModel
from repro.cluster.cluster import ClusterModel
from repro.cluster.mpi import MpiJob, MpiRank, RankProgram
from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RunResult:
    """Outcome of one single-node benchmark run."""

    app: str
    machine: str
    cores: int
    elapsed_seconds: float
    metric_name: str
    metric_value: float
    tdp_watts: float

    def __post_init__(self) -> None:
        if self.elapsed_seconds <= 0:
            raise ConfigurationError(f"{self.app}: non-positive runtime")

    @property
    def energy_joules(self) -> float:
        """The paper's rough model: full TDP for the whole run."""
        return self.tdp_watts * self.elapsed_seconds


class AppModel:
    """Interface of an application performance model."""

    #: Application name as it appears in Table II.
    name: str = "app"
    #: Table II metric: "MFLOPS", "ops/s" or "s".
    metric_name: str = "s"
    #: True when a larger metric value is better (rates vs times).
    higher_is_better: bool = False

    def run(self, machine: MachineModel, cores: int | None = None) -> RunResult:
        """Run the benchmark on all (or *cores*) cores of one node."""
        raise NotImplementedError

    def _result(
        self,
        machine: MachineModel,
        cores: int,
        elapsed: float,
        metric_value: float,
    ) -> RunResult:
        return RunResult(
            app=self.name,
            machine=machine.name,
            cores=cores,
            elapsed_seconds=elapsed,
            metric_name=self.metric_name,
            metric_value=metric_value,
            tdp_watts=machine.tdp_watts,
        )

    @staticmethod
    def _resolve_cores(machine: MachineModel, cores: int | None) -> int:
        resolved = machine.num_cores if cores is None else cores
        if not 1 <= resolved <= machine.num_cores:
            raise ConfigurationError(
                f"cores must be in [1, {machine.num_cores}], got {resolved}"
            )
        return resolved


class ScalableAppModel(AppModel):
    """An app that also runs on the cluster simulator (Figure 3)."""

    def rank_program(
        self, cluster: ClusterModel, num_ranks: int
    ) -> Callable[[MpiRank], RankProgram]:
        """Factory producing each rank's program for a given job size."""
        raise NotImplementedError

    def run_cluster(
        self,
        cluster: ClusterModel,
        num_ranks: int,
        *,
        tracer=None,
    ) -> float:
        """Simulate the job on *num_ranks* cores; returns elapsed seconds."""
        if num_ranks < 1:
            raise ConfigurationError("need at least one rank")
        cluster.reset()
        job = MpiJob(
            cluster,
            num_ranks,
            self.rank_program(cluster, num_ranks),
            tracer=tracer,
        )
        return job.run().elapsed_seconds

    def checkpoint_bytes(self, cluster: ClusterModel, num_ranks: int) -> float:
        """Coordinated-checkpoint footprint of the whole job in bytes.

        The default charges a flat 64 MiB per rank; apps override with
        their real working-set (LINPACK: the matrix, SPECFEM3D: the
        wavefield, BigDFT: the wavefunctions).
        """
        if num_ranks < 1:
            raise ConfigurationError("need at least one rank")
        return 64e6 * num_ranks

    def run_under_faults(
        self,
        cluster: ClusterModel,
        num_ranks: int,
        plan,
        *,
        clean_elapsed_s: float,
        checkpoint_interval_s: float = 30.0,
        resilience=None,
        tracer=None,
    ):
        """Time-to-solution of the cluster job under a fault plan.

        Combines :meth:`rank_program` with the resilience stack:
        ``clean_elapsed_s`` is the failure-free time
        :meth:`run_cluster` returned, checkpoint costs derive from
        :meth:`checkpoint_bytes`, the DES probe runs under the plan's
        injector, and the result is a
        :class:`~repro.faults.checkpoint.ResilientRunResult`.
        """
        # Deferred: keeps the apps layer importable without pulling in
        # the whole fault stack for plain Figure 3 runs.
        from repro.faults.checkpoint import CheckpointConfig, run_with_checkpoints

        config = CheckpointConfig.from_state_bytes(
            self.checkpoint_bytes(cluster, num_ranks),
            interval_s=checkpoint_interval_s,
        )
        return run_with_checkpoints(
            cluster,
            num_ranks,
            self.rank_program(cluster, num_ranks),
            plan,
            clean_elapsed_s=clean_elapsed_s,
            checkpoint=config,
            resilience=resilience,
            tracer=tracer,
        )

    def speedup_curve(
        self,
        cluster: ClusterModel,
        core_counts: list[int],
        *,
        baseline_cores: int = 1,
    ) -> list[tuple[int, float]]:
        """Strong-scaling speedups relative to *baseline_cores*.

        SPECFEM3D's instance "cannot be run on less than 2 nodes", so
        its Figure 3b curve uses ``baseline_cores=4`` — the speedup is
        normalized as ``baseline_cores * t(baseline) / t(cores)``.
        """
        if baseline_cores not in core_counts:
            raise ConfigurationError(
                f"baseline {baseline_cores} missing from sweep {core_counts}"
            )
        times = {n: self.run_cluster(cluster, n) for n in core_counts}
        base_time = times[baseline_cores]
        return [
            (n, baseline_cores * base_time / times[n])
            for n in sorted(core_counts)
        ]
