"""Extrae-style trace recorder.

Pass a :class:`TraceRecorder` as ``tracer=`` to
:class:`repro.cluster.mpi.MpiJob`; it accumulates state intervals and
message records which :mod:`repro.tracing.paraver` can export,
:mod:`repro.tracing.chrome` can render for Perfetto, and
:mod:`repro.tracing.analysis` can mine.  :meth:`TraceRecorder.replay`
feeds the recorded events to another tracer — the
:class:`~repro.tracing.stream.TraceStreamAnalyzer` for the critical
path and wait states.
"""

from __future__ import annotations

from typing import Any

from repro.errors import TraceError
from repro.tracing.events import CommEvent, FaultRecord, StateEvent


class TraceRecorder:
    """Accumulates the full event history of one MPI job."""

    def __init__(self) -> None:
        self.states: list[StateEvent] = []
        self.comms: list[CommEvent] = []
        self.faults: list[FaultRecord] = []

    # -- MpiJob-facing interface -------------------------------------------

    def state(
        self,
        rank: int,
        label: str,
        t0: float,
        t1: float,
        *,
        kind: str = "state",
        cause: int = -1,
    ) -> None:
        """Record one state interval (optionally kind-classified and
        causally linked to a message, see :class:`StateEvent`)."""
        self.states.append(
            StateEvent(rank=rank, label=label, t0=t0, t1=t1, kind=kind, cause=cause)
        )

    def comm(self, message: Any) -> None:
        """Record one message (anything with the Message fields)."""
        self.comms.append(
            CommEvent(
                src=message.src,
                dst=message.dst,
                tag=message.tag,
                nbytes=message.nbytes,
                send_time=message.send_time,
                arrival_time=message.arrival_time,
                label=message.label,
                seq=getattr(message, "seq", -1),
            )
        )

    def fault(self, kind: str, time_s: float, target: str, **detail: Any) -> None:
        """Record one fault-layer event (injection/detection/recovery).

        List-valued details are frozen to tuples so records stay
        immutable and same-seed traces compare byte-identically.
        """
        items = tuple(
            (key, tuple(value) if isinstance(value, list) else value)
            for key, value in sorted(detail.items())
        )
        self.faults.append(
            FaultRecord(kind=kind, time_s=time_s, target=target, detail=items)
        )

    def replay(self, tracer: Any) -> None:
        """Drive *tracer* with every recorded event: the messages, then
        the states, then the fault records, each kind in record order.

        Messages go first, so a consumer resolves each wait's cause
        the moment the wait arrives, as it does when ``MpiJob`` drives
        it (a message is recorded at send time).
        """
        for comm in self.comms:
            tracer.comm(comm)
        for state in self.states:
            tracer.state(
                state.rank, state.label, state.t0, state.t1,
                kind=state.kind, cause=state.cause,
            )
        for fault in self.faults:
            tracer.fault(
                fault.kind, fault.time_s, fault.target, **dict(fault.detail)
            )

    # -- queries -----------------------------------------------------------

    @property
    def num_ranks(self) -> int:
        """Highest rank observed plus one."""
        ranks = [s.rank for s in self.states] + [
            r for c in self.comms for r in (c.src, c.dst)
        ]
        return max(ranks) + 1 if ranks else 0

    @property
    def end_time(self) -> float:
        """Latest timestamp in the trace."""
        times = [s.t1 for s in self.states] + [c.arrival_time for c in self.comms]
        return max(times) if times else 0.0

    def states_of(self, rank: int, label: str | None = None) -> list[StateEvent]:
        """State intervals of one rank, optionally filtered by label."""
        return [
            s
            for s in self.states
            if s.rank == rank and (label is None or s.label == label)
        ]

    def comms_labelled(self, label: str) -> list[CommEvent]:
        """All messages with a given label (e.g. ``"alltoallv"``)."""
        return [c for c in self.comms if c.label == label]

    def faults_of(self, kind: str) -> list[FaultRecord]:
        """All fault records of one kind (e.g. ``"crash"``)."""
        return [f for f in self.faults if f.kind == kind]

    def time_in_state(self, rank: int, label: str) -> float:
        """Total seconds *rank* spent in *label* states."""
        return sum(s.duration for s in self.states_of(rank, label))

    def check_sanity(self) -> None:
        """Raise :class:`TraceError` on malformed traces (test hook)."""
        for state in self.states:
            if state.t0 < 0:
                raise TraceError(f"state before time zero: {state}")
        for comm in self.comms:
            if comm.send_time < 0:
                raise TraceError(f"message before time zero: {comm}")
        for previous, current in zip(self.faults, self.faults[1:]):
            if current.time_s < previous.time_s:
                raise TraceError(
                    f"fault records out of order: {current} after {previous}"
                )
