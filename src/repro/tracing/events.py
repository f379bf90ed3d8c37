"""Trace event records."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Hashable

from repro.errors import TraceError


#: The state kinds the MPI runtime emits; ``"state"`` is the neutral
#: default for hand-built traces and parsed ``.prv`` files.
STATE_KINDS = ("state", "compute", "send", "wait", "retry")


@dataclass(frozen=True)
class StateEvent:
    """One rank spent [t0, t1] in a named state (compute, send, ...).

    ``kind`` classifies the interval for the happens-before graph
    (``"compute"``, ``"send"``, ``"wait"``, ``"retry"``; plain
    ``"state"`` when unknown).  ``cause`` is the causality link the
    critical-path walk follows: for a ``"wait"`` interval it is the
    :attr:`CommEvent.seq` of the message whose arrival ended the wait,
    for a ``"send"`` interval the message the send injected; ``-1``
    means no linked message.
    """

    rank: int
    label: str
    t0: float
    t1: float
    kind: str = "state"
    cause: int = -1

    def __post_init__(self) -> None:
        if self.t1 < self.t0:
            raise TraceError(
                f"state {self.label!r} on rank {self.rank} ends before it begins"
            )
        if self.kind not in STATE_KINDS:
            raise TraceError(
                f"unknown state kind {self.kind!r}; want one of {STATE_KINDS}"
            )

    @property
    def duration(self) -> float:
        """State duration in seconds."""
        return self.t1 - self.t0


@dataclass(frozen=True)
class CommEvent:
    """One point-to-point message, as the recorder stores it.

    ``seq`` is the message's globally unique causal stamp, drawn from
    the DES event sequence (:meth:`repro.cluster.des.Simulator.stamp`)
    so message identity is totally ordered consistently with event
    execution; ``-1`` for hand-built or parsed traces without stamps.
    """

    src: int
    dst: int
    tag: Hashable
    nbytes: int
    send_time: float
    arrival_time: float
    label: str
    seq: int = -1

    def __post_init__(self) -> None:
        if self.arrival_time < self.send_time:
            raise TraceError("message arrives before it is sent")
        if self.nbytes < 0:
            raise TraceError("negative message size")

    @property
    def latency(self) -> float:
        """End-to-end message latency in seconds."""
        return self.arrival_time - self.send_time

    @property
    def collective_instance(self) -> tuple | None:
        """Collective instance key ``(kind, seq)`` if this message
        belongs to a collective, else None.

        MpiRank tags collective messages ``(kind, seq, round)``; the
        first two components identify the instance across ranks.
        """
        return collective_instance(self.tag)


def collective_instance(tag: Hashable) -> tuple | None:
    """The collective instance ``(kind, seq)`` a message *tag* names,
    or None (see :attr:`CommEvent.collective_instance`)."""
    if isinstance(tag, tuple) and len(tag) >= 2 and isinstance(tag[0], str):
        return (tag[0], tag[1])
    return None


@dataclass(frozen=True)
class FaultRecord:
    """One fault-layer event: an injection, a detection, or a recovery.

    ``kind`` is the event family (``"crash"``, ``"detect"``,
    ``"slowdown"``, ``"degrade"``, ``"flap"``, ``"buffer-shrink"``,
    ``"os-noise"``, ``"restart"``); ``target`` names the afflicted
    entity (``"node3"``, ``"fabric"``, ``"job"``); ``detail`` carries
    kind-specific numbers as a sorted, immutable item tuple so that
    same-seed traces compare (and repr) byte-identically.
    """

    kind: str
    time_s: float
    target: str
    detail: tuple[tuple[str, Any], ...] = field(default=())

    def __post_init__(self) -> None:
        if self.time_s < 0:
            raise TraceError(f"fault {self.kind!r} before time zero: {self.time_s}")
        object.__setattr__(self, "detail", tuple(sorted(self.detail)))

    def __getitem__(self, key: str) -> Any:
        for name, value in self.detail:
            if name == key:
                return value
        raise KeyError(key)

    def get(self, key: str, default: Any = None) -> Any:
        """Detail value for *key*, or *default*."""
        for name, value in self.detail:
            if name == key:
                return value
        return default

