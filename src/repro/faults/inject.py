"""The fault injector: arms a :class:`FaultPlan` onto a running MpiJob.

The injector is the bridge between the *schedule* (plan.py) and the
*mechanisms* (the DES, the MPI runtime, the fabric).  It schedules one
simulator event per fault trigger and mutates the simulated hardware
when they fire: killing rank processes on a crash, scaling NIC line
rates, shrinking switch buffers, inflating compute intervals.  It also
owns the failure-detection timeline — a crash is *silent* until the
heartbeat detector's latency has elapsed, at which point blocked ranks
are failed with a structured :class:`~repro.errors.RankFailure`.

Determinism: the injector draws nothing at runtime.  Every trigger
time and parameter comes from the (seeded) plan, and detection latency
is a fixed function of the detector config, so two same-seed runs
produce byte-identical traces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError, RankFailure, SimulationError
from repro.faults.detect import ResilienceConfig
from repro.metrics.registry import current_registry
from repro.faults.plan import (
    FaultPlan,
    LinkDegrade,
    LinkFlap,
    NodeCrash,
    NodeSlowdown,
    OSNoiseBurst,
    SwitchBufferShrink,
)


@dataclass(frozen=True)
class FailureRecord:
    """One detected rank-affecting node failure."""

    node: int
    ranks: tuple[int, ...]
    crash_time_s: float
    detected_time_s: float

    @property
    def detection_latency_s(self) -> float:
        """Seconds the failure stayed invisible."""
        return self.detected_time_s - self.crash_time_s

    def to_exception(self) -> RankFailure:
        """The structured exception describing this failure."""
        return RankFailure(
            self.ranks,
            crash_time_s=self.crash_time_s,
            detected_time_s=self.detected_time_s,
            node=self.node,
        )


class FaultInjector:
    """Binds one :class:`FaultPlan` to one MpiJob execution.

    One-shot: build a fresh injector per job run (the plan itself is
    immutable and reusable).
    """

    def __init__(self, plan: FaultPlan, *, resilience: ResilienceConfig | None = None) -> None:
        self.plan = plan
        self.resilience = resilience or ResilienceConfig()
        self._metrics = current_registry()
        self._job = None
        self.fired = 0
        self.failures: list[FailureRecord] = []
        #: node -> crash time (fired crashes, detected or not).
        self.crashed_nodes: dict[int, float] = {}
        #: node -> detection time.
        self.detected_nodes: dict[int, float] = {}
        #: ranks confirmed dead by the detector.
        self.dead_ranks: set[int] = set()
        #: node -> link-down-until time (LinkFlap windows).
        self._link_down_until: dict[int, float] = {}
        #: node -> (speed factor, until) for NodeSlowdown.
        self._slow_until: dict[int, tuple[float, float]] = {}
        #: (node | None, stolen fraction, until) for OSNoiseBurst.
        self._noise: list[tuple[int | None, float, float]] = []

    # -- arming ------------------------------------------------------------

    def arm(self, job) -> None:
        """Schedule every plan event on the job's simulator."""
        if self._job is not None:
            raise ConfigurationError("FaultInjector instances are one-shot; build a new one")
        self._job = job
        for event in self.plan:
            job.sim.schedule_at(event.time_s, lambda e=event: self._fire(e))

    def _trace_fault(self, kind: str, time_s: float, target: str, **detail) -> None:
        tracer = getattr(self._job, "tracer", None)
        record = getattr(tracer, "fault", None)
        if record is not None:
            record(kind, time_s, target, **detail)

    # -- event dispatch ----------------------------------------------------

    def _fire(self, event) -> None:
        self.fired += 1
        dispatch = {
            NodeCrash: ("crash", self._fire_crash),
            NodeSlowdown: ("slowdown", self._fire_slowdown),
            LinkDegrade: ("degrade", self._fire_degrade),
            LinkFlap: ("flap", self._fire_flap),
            SwitchBufferShrink: ("buffer-shrink", self._fire_buffer_shrink),
            OSNoiseBurst: ("os-noise", self._fire_noise),
        }.get(type(event))
        if dispatch is None:
            raise SimulationError(f"unhandled fault event {event!r}")
        kind, handler = dispatch
        self._metrics.inc(f"faults.injected.{kind}")
        handler(event)

    def _ranks_on(self, node: int) -> tuple[int, ...]:
        job = self._job
        return tuple(
            rank for rank in range(job.num_ranks) if job._node_of(rank) == node
        )

    def _fire_crash(self, event: NodeCrash) -> None:
        job = self._job
        now = job.sim.now
        if event.node in self.crashed_nodes:
            return  # already dead
        self.crashed_nodes[event.node] = now
        ranks = self._ranks_on(event.node) if event.node < job.cluster.num_nodes else ()
        self._trace_fault("crash", now, f"node{event.node}", ranks=list(ranks))
        for rank in ranks:
            process = job._processes[rank]
            process.kill()
            job._remove_parked(process)
        latency = self.resilience.detector.latency_s
        job.sim.schedule(latency, lambda: self._detect(event.node, now))

    def _detect(self, node: int, crash_time: float) -> None:
        job = self._job
        now = job.sim.now
        self.detected_nodes[node] = now
        ranks = self._ranks_on(node) if node < job.cluster.num_nodes else ()
        self._trace_fault(
            "detect", now, f"node{node}",
            latency_s=now - crash_time, ranks=list(ranks),
        )
        if not ranks:
            return  # a spare died; nobody was running there
        self.dead_ranks.update(ranks)
        record = FailureRecord(
            node=node, ranks=ranks, crash_time_s=crash_time, detected_time_s=now
        )
        self.failures.append(record)
        self._metrics.inc("faults.detections")
        self._metrics.inc("faults.detection_latency_seconds", now - crash_time)
        job._on_failure_detected(record)

    def _fire_slowdown(self, event: NodeSlowdown) -> None:
        now = self._job.sim.now
        self._slow_until[event.node] = (event.factor, now + event.duration_s)
        self._trace_fault(
            "slowdown", now, f"node{event.node}",
            factor=event.factor, duration_s=event.duration_s,
        )

    def _fire_degrade(self, event: LinkDegrade) -> None:
        job = self._job
        now = job.sim.now
        if event.node >= job.cluster.num_nodes:
            return
        fabric = job.cluster.fabric
        # Pass the simulation clock so a degrade (and its restore)
        # re-books any message already in flight, rather than waiting
        # for the next occupy() to notice the new rate.
        fabric.set_node_link_scale(event.node, event.factor, now=now)
        job.sim.schedule(
            event.duration_s,
            lambda: fabric.set_node_link_scale(event.node, 1.0, now=job.sim.now),
        )
        self._trace_fault(
            "degrade", now, f"node{event.node}",
            factor=event.factor, duration_s=event.duration_s,
        )

    def _fire_flap(self, event: LinkFlap) -> None:
        now = self._job.sim.now
        until = now + event.duration_s
        self._link_down_until[event.node] = max(
            self._link_down_until.get(event.node, 0.0), until
        )
        self._trace_fault(
            "flap", now, f"node{event.node}", duration_s=event.duration_s
        )

    def _fire_buffer_shrink(self, event: SwitchBufferShrink) -> None:
        job = self._job
        now = job.sim.now
        fabric = job.cluster.fabric
        fabric.set_buffer_scale(event.factor)
        job.sim.schedule(event.duration_s, lambda: fabric.set_buffer_scale(1.0))
        self._trace_fault(
            "buffer-shrink", now, "fabric",
            factor=event.factor, duration_s=event.duration_s,
        )

    def _fire_noise(self, event: OSNoiseBurst) -> None:
        now = self._job.sim.now
        self._noise.append((event.node, event.stolen_fraction, now + event.duration_s))
        target = "all-nodes" if event.node is None else f"node{event.node}"
        self._trace_fault(
            "os-noise", now, target,
            stolen_fraction=event.stolen_fraction, duration_s=event.duration_s,
        )

    # -- queries the MPI layer makes ---------------------------------------

    def compute_scale(self, node: int, now: float) -> float:
        """Multiplier (>= 1) applied to compute intervals on *node*."""
        scale = 1.0
        slow = self._slow_until.get(node)
        if slow is not None and now < slow[1]:
            scale /= slow[0]
        for target, stolen, until in self._noise:
            if now < until and (target is None or target == node):
                scale /= 1.0 - stolen
        return scale

    def link_down(self, node: int, now: float) -> bool:
        """Whether *node*'s link is inside a flap window at *now*."""
        until = self._link_down_until.get(node)
        return until is not None and now < until

    def rank_detected_dead(self, rank: int) -> bool:
        """Whether the detector has already declared *rank* dead."""
        return rank in self.dead_ranks

    def failure_for_node(self, node: int) -> RankFailure:
        """The structured exception for a detected node failure."""
        for record in self.failures:
            if record.node == node:
                return record.to_exception()
        raise SimulationError(f"node {node} has no detected failure")

    @property
    def mean_detection_latency_s(self) -> float | None:
        """Mean crash-to-detection latency over detected failures."""
        if not self.failures:
            return None
        return math.fsum(f.detection_latency_s for f in self.failures) / len(self.failures)
