"""Frozen batch trace-analysis pipeline, kept for benchmark comparison.

This is the happens-before graph (``repro.tracing.graph``) and the
batch wait-state drivers (``repro.tracing.waitstates``) exactly as they
shipped before ``TraceStreamAnalyzer`` became the only trace store: the
whole trace materialized in a :class:`~repro.tracing.recorder.TraceRecorder`,
sorted into per-rank arrays, then walked and classified.  The shared
attribution core, the report types and :class:`~repro.obs.report.RunReport`
are imported from the program, so both sides of a comparison run the
same arithmetic and produce the same document.

``benchmarks/bench_trace.py`` runs it in the same process as the
streaming analyzer: its record+analyze events/sec is the denominator of
the committed ``BENCH_trace.json`` ratio, and its report is the
reference the streamed report must equal byte for byte.  Do not
modernize this file; its cost is the baseline.
"""

from __future__ import annotations

from bisect import bisect_right

from repro.errors import TraceError
from repro.metrics.export import registry_to_dict
from repro.metrics.registry import MetricsRegistry, NullRegistry
from repro.obs.report import RunReport
from repro.tracing.attribution import (
    _EPS,
    CriticalPath,
    ListCursor,
    TimelineView,
    WaitClassifier,
    extract_critical_path,
)
from repro.tracing.events import CommEvent, StateEvent
from repro.tracing.recorder import TraceRecorder
from repro.tracing.waitstates import (
    CONTENTION_FACTOR as DEFAULT_CONTENTION_FACTOR,
    EfficiencyReport,
    WaitStateReport,
    baselines_from_latencies,
    collective_instance_spreads,
    wait_entries_from_buckets,
)


class HappensBeforeGraph(TimelineView):
    """The causal structure of one recorded job.

    Nodes are state intervals; edges are (a) program order on each
    rank and (b) message edges ``send -> arrival``.  The graph is
    acyclic by construction — every edge points forward in simulated
    time — and :meth:`validate` checks exactly that.
    """

    def __init__(self, recorder: TraceRecorder) -> None:
        if not recorder.states:
            raise TraceError("cannot build a graph from a trace without states")
        self.recorder = recorder
        #: Per-rank state intervals, sorted by (t1, t0) for the walk.
        self.states_by_rank: dict[int, list[StateEvent]] = {}
        for state in recorder.states:
            self.states_by_rank.setdefault(state.rank, []).append(state)
        for states in self.states_by_rank.values():
            states.sort(key=lambda s: (s.t1, s.t0))
        self._end_index = {
            rank: [s.t1 for s in states]
            for rank, states in self.states_by_rank.items()
        }
        #: Messages by causal stamp (only stamped messages join the graph).
        self.messages: dict[int, CommEvent] = {
            c.seq: c for c in recorder.comms if c.seq >= 0
        }

    @property
    def node_count(self) -> int:
        """State intervals in the graph."""
        return len(self.recorder.states)

    @property
    def edge_count(self) -> int:
        """Program-order edges plus stamped message edges."""
        program = sum(
            len(states) - 1 for states in self.states_by_rank.values()
        )
        return program + len(self.messages)

    @property
    def end_time(self) -> float:
        """When the last rank finished."""
        return max(times[-1] for times in self._end_index.values())

    @property
    def end_rank(self) -> int:
        """The rank whose last state ends the job (lowest on ties)."""
        end = self.end_time
        return min(
            rank
            for rank, times in self._end_index.items()
            if times[-1] >= end - _EPS
        )

    def validate(self) -> None:
        """Check every edge points forward in time (acyclicity)."""
        for message in self.messages.values():
            if message.arrival_time + _EPS < message.send_time:
                raise TraceError(f"message edge goes backwards: {message}")
        for state in self.recorder.states:
            if state.cause >= 0 and state.kind == "wait":
                message = self.messages.get(state.cause)
                if message is not None and message.arrival_time > state.t1 + _EPS:
                    raise TraceError(
                        f"wait {state} ends before its cause arrives at "
                        f"{message.arrival_time}"
                    )

    # -- the TimelineView the shared walk/classifier consume ---------------

    def anchor(self, rank: int, t: float, eps: float) -> ListCursor:
        states = self.states_by_rank.get(rank)
        if not states:
            return ListCursor([], -1)
        index = bisect_right(self._end_index[rank], t + eps) - 1
        return ListCursor(states, index)

    def message(self, seq: int) -> CommEvent | None:
        return self.messages.get(seq)

    def job_end_time(self) -> float:
        return self.end_time

    def job_end_rank(self) -> int:
        return self.end_rank

    def walk_budget(self) -> int:
        return 4 * (self.node_count + len(self.messages)) + 16

    # -- the walk -----------------------------------------------------------

    def critical_path(self) -> CriticalPath:
        """Walk backwards from the job end and attribute every second
        (see :func:`repro.tracing.attribution.extract_critical_path`)."""
        return extract_critical_path(self)


def efficiency_report(recorder: TraceRecorder) -> EfficiencyReport:
    """POP efficiencies from *recorder*'s compute intervals."""
    if not recorder.states:
        raise TraceError("cannot compute efficiencies of an empty trace")
    useful = [0.0] * recorder.num_ranks
    for state in recorder.states:
        if state.kind == "compute":
            useful[state.rank] += state.duration
    return EfficiencyReport(
        runtime_seconds=recorder.end_time, useful_seconds=tuple(useful)
    )


def _baselines(recorder: TraceRecorder) -> dict[str, float]:
    latencies: dict[str, list[float]] = {}
    for comm in recorder.comms:
        latencies.setdefault(comm.label, []).append(comm.latency)
    return baselines_from_latencies(latencies)


def _introduced_imbalance(
    recorder: TraceRecorder,
) -> list[tuple[str, float]]:
    instances: dict[tuple, dict[str, dict[int, float]]] = {}
    for comm in recorder.comms:
        instance = comm.collective_instance
        if instance is None:
            continue
        record = instances.setdefault(instance, {"entry": {}, "exit": {}})
        entry = record["entry"].get(comm.src)
        if entry is None or comm.send_time < entry:
            record["entry"][comm.src] = comm.send_time
        exit_ = record["exit"].get(comm.dst)
        if exit_ is None or comm.arrival_time > exit_:
            record["exit"][comm.dst] = comm.arrival_time
    return collective_instance_spreads(instances)


def classify_wait_states(
    recorder: TraceRecorder,
    *,
    contention_factor: float = DEFAULT_CONTENTION_FACTOR,
) -> WaitStateReport:
    """Root-cause every receive wait in *recorder*.

    The baseline latency per operation label is the trace-wide median
    — on a congested run most messages are still clean (the Figure 4
    observation), so the median is the uncongested reference and
    messages beyond ``contention_factor`` times it are congested.
    """
    if contention_factor <= 1.0:
        raise TraceError(
            f"contention_factor must exceed 1, got {contention_factor}"
        )
    if not recorder.states:
        raise TraceError("cannot classify an empty trace")

    view = HappensBeforeGraph(recorder)
    classifier = WaitClassifier(view, _baselines(recorder), contention_factor)
    buckets: dict[tuple[str, str], list] = {}

    def add(category: str, label: str, seconds: float) -> None:
        bucket = buckets.setdefault((category, label), [0.0, 0])
        bucket[0] += seconds
        bucket[1] += 1

    for state in recorder.states:
        if state.kind != "wait" or state.cause < 0:
            continue
        for category, seconds in classifier.classify(state).items():
            if seconds > 0.0:
                add(category, state.label, seconds)

    for kind, spread in _introduced_imbalance(recorder):
        add("collective-imbalance", kind, spread)

    return WaitStateReport(
        entries=wait_entries_from_buckets(buckets),
        efficiencies=efficiency_report(recorder),
        baseline_latency_s=dict(sorted(classifier.baselines.items())),
        contention_factor=contention_factor,
    )


def build_run_report(
    recorder: TraceRecorder,
    *,
    scenario: str,
    registry: MetricsRegistry | NullRegistry | None = None,
    contention_factor: float = DEFAULT_CONTENTION_FACTOR,
) -> RunReport:
    """Analyze *recorder* and assemble the combined report.

    The happens-before graph is validated and the critical path's
    coverage invariant checked before anything is reported.
    """
    graph = HappensBeforeGraph(recorder)
    graph.validate()
    path = graph.critical_path()
    waits = classify_wait_states(recorder, contention_factor=contention_factor)
    metrics = (
        None
        if registry is None
        else registry_to_dict(registry, deterministic=True)
    )
    return RunReport(
        scenario=scenario,
        num_ranks=recorder.num_ranks,
        runtime_seconds=recorder.end_time,
        path=path,
        waits=waits,
        metrics=metrics,
    )
