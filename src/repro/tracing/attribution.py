"""The attribution core: the critical-path walk and the wait classifier.

The critical-path walk (:func:`extract_critical_path`) and the
Scalasca-style per-wait root-causing (:class:`WaitClassifier`) are
expressed against an abstract :class:`TimelineView`, not against a
store.  The trace store (:mod:`repro.tracing.stream`, a frontier plus
spilled segments) implements the view; the contract that keeps its
answers independent of where its rows live is that each rank's states
come back in ``(t1, t0)`` order, stable in record order, and that a
stamp names the last-recorded message carrying it.

A view answers four questions:

* ``anchor(rank, t, eps)`` — a cursor at the latest state on *rank*
  ending at or before ``t + eps``, stepping backwards via
  ``retreat()``;
* ``message(seq)`` — the stamped message for a causal link (the
  last-recorded one when a stamp was reused);
* ``job_end_time()`` / ``job_end_rank()`` — where the backward walk
  starts;
* ``walk_budget()`` — the step budget that turns a malformed trace
  into a :class:`TraceError` instead of a hang.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import TraceError
from repro.tracing.events import CommEvent, StateEvent

#: Timestamp tolerance (seconds) for the walk's "ends exactly where
#: the next begins" matches — far below any modelled latency (>= 1 µs).
_EPS = 1e-9

#: The classifier's tolerance: residual gaps below this are float dust,
#: not lateness.
_CLASSIFY_EPS = 1e-12

#: How many late-sender hops the delay-cost walk follows before giving
#: up and charging the remainder as ``late-sender``.
_MAX_PROPAGATION_DEPTH = 8

#: Critical-path attribution categories, in display order.
PATH_CATEGORIES = ("compute", "send", "wait", "rework", "idle")

_KIND_TO_CATEGORY = {
    "compute": "compute",
    "send": "send",
    "wait": "wait",
    "retry": "rework",
}

#: Labels that mean fault-recovery work even without a kind tag.
_REWORK_LABELS = frozenset({"retry", "rework", "checkpoint", "restart"})


def _category_of(state: StateEvent) -> str:
    category = _KIND_TO_CATEGORY.get(state.kind)
    if category is not None:
        return category
    if state.label in _REWORK_LABELS:
        return "rework"
    return "compute"


# ---------------------------------------------------------------------------
# Path segments and the extracted path
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PathSegment:
    """One critical-path interval on one rank."""

    rank: int
    t0: float
    t1: float
    category: str
    label: str

    @property
    def duration(self) -> float:
        """Segment length in seconds."""
        return self.t1 - self.t0


@dataclass(frozen=True)
class CriticalPath:
    """The extracted critical path with per-segment attribution."""

    segments: tuple[PathSegment, ...]
    total_seconds: float

    @property
    def breakdown(self) -> dict[str, float]:
        """Seconds per attribution category (all categories present)."""
        sums = {category: 0.0 for category in PATH_CATEGORIES}
        for segment in self.segments:
            sums[segment.category] += segment.duration
        return sums

    @property
    def by_label(self) -> dict[tuple[str, str], float]:
        """Seconds per ``(category, label)`` pair, largest first."""
        sums: dict[tuple[str, str], float] = {}
        for segment in self.segments:
            key = (segment.category, segment.label)
            sums[key] = sums.get(key, 0.0) + segment.duration
        return dict(sorted(sums.items(), key=lambda kv: (-kv[1], kv[0])))

    @property
    def rank_changes(self) -> int:
        """How many times the path hops between ranks."""
        return sum(
            1 for a, b in zip(self.segments, self.segments[1:]) if a.rank != b.rank
        )

    def dominant_wait_label(self) -> str | None:
        """Label carrying the most on-path wait time, if any waited."""
        waits = {
            label: seconds
            for (category, label), seconds in self.by_label.items()
            if category == "wait" and seconds > 0.0
        }
        if not waits:
            return None
        return max(sorted(waits), key=lambda label: waits[label])

    def _largest_gap(self) -> str:
        """Describe the largest uncovered window, naming the bordering
        segment's rank, category and time window — the handle a human
        needs to find the hole in a million-event trace."""
        if not self.segments:
            return (
                f"no segments at all for the "
                f"[0.000000000, {self.total_seconds:.9f}] window"
            )
        first = self.segments[0]
        best_gap = first.t0
        best = (
            f"[0.000000000, {first.t0:.9f}] before the first segment "
            f"({first.category} {first.label!r} on rank {first.rank})"
        )
        for earlier, later in zip(self.segments, self.segments[1:]):
            gap = later.t0 - earlier.t1
            if gap > best_gap:
                best_gap = gap
                best = (
                    f"[{earlier.t1:.9f}, {later.t0:.9f}] between the "
                    f"{earlier.category} segment {earlier.label!r} on rank "
                    f"{earlier.rank} and the {later.category} segment "
                    f"{later.label!r} on rank {later.rank}"
                )
        last = self.segments[-1]
        tail = self.total_seconds - last.t1
        if tail > best_gap:
            best_gap = tail
            best = (
                f"[{last.t1:.9f}, {self.total_seconds:.9f}] after the last "
                f"segment ({last.category} {last.label!r} on rank {last.rank})"
            )
        return f"largest uncovered window is {best_gap:.9f}s at {best}"

    def check_coverage(self) -> None:
        """Assert the segments tile ``[0, total]`` — the walk's output
        invariant (raises :class:`TraceError` otherwise)."""
        covered = math.fsum(s.duration for s in self.segments)
        if abs(covered - self.total_seconds) > max(1e-6, 1e-6 * self.total_seconds):
            raise TraceError(
                f"critical path covers {covered:.9f}s of "
                f"{self.total_seconds:.9f}s; {self._largest_gap()}"
            )
        for earlier, later in zip(self.segments, self.segments[1:]):
            if later.t0 < earlier.t1 - _EPS:
                raise TraceError(
                    f"critical path segments overlap by "
                    f"{earlier.t1 - later.t0:.9f}s: the {earlier.category} "
                    f"segment {earlier.label!r} on rank {earlier.rank} "
                    f"[{earlier.t0:.9f}, {earlier.t1:.9f}] then the "
                    f"{later.category} segment {later.label!r} on rank "
                    f"{later.rank} [{later.t0:.9f}, {later.t1:.9f}]"
                )


# ---------------------------------------------------------------------------
# The view interface and the in-memory cursor
# ---------------------------------------------------------------------------


class ListCursor:
    """Backward cursor over an in-memory ``(t1, t0)``-sorted list."""

    __slots__ = ("_states", "_index", "state")

    def __init__(self, states: list[StateEvent], index: int) -> None:
        self._states = states
        self._index = index
        self.state: StateEvent | None = states[index] if index >= 0 else None

    def retreat(self) -> None:
        self._index -= 1
        self.state = self._states[self._index] if self._index >= 0 else None


class TimelineView:
    """What the walk and the classifier need from an event store."""

    def anchor(self, rank: int, t: float, eps: float):
        """Cursor at the latest state on *rank* with ``t1 <= t + eps``
        (``cursor.state is None`` when there is none)."""
        raise NotImplementedError

    def message(self, seq: int) -> CommEvent | None:
        """The stamped message for *seq* (last-recorded wins), or
        ``None`` for unknown/unstamped links."""
        raise NotImplementedError

    def job_end_time(self) -> float:
        """When the last rank's last state ends."""
        raise NotImplementedError

    def job_end_rank(self) -> int:
        """The rank whose last state ends the job (lowest on ties)."""
        raise NotImplementedError

    def walk_budget(self) -> int:
        """Step budget for the backward walk."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# The backward walk
# ---------------------------------------------------------------------------


def extract_critical_path(view: TimelineView) -> CriticalPath:
    """Walk backwards from the job end and attribute every second.

    Raises :class:`TraceError` if the walk fails to make progress (a
    malformed trace), which the step budget guarantees is detected
    rather than looped on.
    """
    segments: list[PathSegment] = []

    def emit(rank: int, t0: float, t1: float, category: str, label: str) -> None:
        if t1 - t0 > _EPS:
            segments.append(PathSegment(rank, t0, t1, category, label))

    rank = view.job_end_rank()
    t = view.job_end_time()
    total = t
    cursor = view.anchor(rank, t, _EPS)
    budget = view.walk_budget()
    while t > _EPS:
        budget -= 1
        if budget < 0:
            raise TraceError("critical-path walk failed to converge")
        state = cursor.state
        if state is None:
            # Nothing earlier on this rank: the head of the trace.
            emit(rank, 0.0, t, "idle", "idle")
            break
        if state.t1 < t - _EPS:
            # Trace gap on this rank.
            emit(rank, state.t1, t, "idle", "idle")
            t = state.t1
            continue
        if state.duration <= _EPS:
            # Zero-length marker (e.g. a mailbox-hit receive):
            # consume it and look further back on the same rank.
            cursor.retreat()
            continue
        category = _category_of(state)
        message = (
            view.message(state.cause)
            if state.kind == "wait" and state.cause >= 0
            else None
        )
        if message is not None:
            in_flight_start = max(state.t0, message.send_time)
            emit(rank, in_flight_start, state.t1, "wait", state.label)
            if message.send_time > state.t0 + _EPS:
                # Blocked before the send existed: the sender's
                # timeline owns the remainder (late-sender hop).
                rank = message.src
                t = message.send_time
                cursor = view.anchor(rank, t, _EPS)
                continue
            t = state.t0
        else:
            emit(rank, state.t0, state.t1, category, state.label)
            t = state.t0
        cursor.retreat()
        state = cursor.state
        if state is not None and state.t1 > t + _EPS:
            # Overlapping records (e.g. a send resumed mid-wait):
            # re-anchor on the interval that actually ends at t.
            cursor = view.anchor(rank, t, _EPS)

    segments.reverse()
    path = CriticalPath(segments=tuple(segments), total_seconds=total)
    path.check_coverage()
    return path


# ---------------------------------------------------------------------------
# The wait classifier
# ---------------------------------------------------------------------------


class WaitClassifier:
    """One wait-state classification pass against a timeline view.

    See :mod:`repro.tracing.waitstates` for the category semantics;
    this class holds the per-wait arithmetic.
    """

    def __init__(
        self,
        view: TimelineView,
        baselines: dict[str, float],
        contention_factor: float,
    ) -> None:
        self.view = view
        self.baselines = baselines
        self.factor = contention_factor

    def congested(self, message: CommEvent) -> bool:
        baseline = self.baselines.get(message.label, _CLASSIFY_EPS)
        return message.latency > self.factor * baseline

    def split_in_flight(
        self, message: CommEvent, t0: float, t1: float, blame: dict[str, float]
    ) -> None:
        """Attribute blocked-while-in-flight time ``[t0, t1]``."""
        span = t1 - t0
        if span <= 0.0:
            return
        if self.congested(message):
            # Within the baseline the network is merely transferring;
            # everything past the expected arrival is the switch.
            expected_arrival = message.send_time + self.baselines.get(
                message.label, _CLASSIFY_EPS
            )
            normal = max(0.0, min(t1, expected_arrival) - t0)
            blame["transfer"] = blame.get("transfer", 0.0) + min(span, normal)
            excess = span - min(span, normal)
            if excess > 0.0:
                blame["switch-contention"] = (
                    blame.get("switch-contention", 0.0) + excess
                )
        else:
            blame["transfer"] = blame.get("transfer", 0.0) + span

    def attribute_lateness(
        self, rank: int, before: float, gap: float, blame: dict[str, float], depth: int
    ) -> None:
        """Blame *rank*'s most recent blocking before *before* for *gap*
        seconds of lateness (Scalasca-style delay-cost propagation).

        Intrinsic work (compute, send overhead) is skipped: equal work
        cannot make one rank later than another, earlier blocking can.
        Lateness not explained by any blocking is genuine
        ``late-sender``.
        """
        if depth > _MAX_PROPAGATION_DEPTH:
            blame["late-sender"] = blame.get("late-sender", 0.0) + gap
            return
        cursor = self.view.anchor(rank, before, _CLASSIFY_EPS)
        while gap > _CLASSIFY_EPS and cursor.state is not None:
            state = cursor.state
            cursor.retreat()
            if state.kind != "wait" or state.duration <= 0.0 or state.cause < 0:
                continue
            message = self.view.message(state.cause)
            if message is None:
                continue
            # Most recent lateness first: the in-flight tail of the
            # wait, then (recursively) the blocked-before-send head.
            in_flight = max(0.0, state.t1 - max(state.t0, message.send_time))
            take = min(gap, in_flight)
            if take > 0.0:
                self.split_in_flight(
                    message, state.t1 - take, state.t1, blame
                )
                gap -= take
            pre_send = max(0.0, min(message.send_time, state.t1) - state.t0)
            take = min(gap, pre_send)
            if take > 0.0:
                self.attribute_lateness(
                    message.src, message.send_time, take, blame, depth + 1
                )
                gap -= take
        if gap > _CLASSIFY_EPS:
            blame["late-sender"] = blame.get("late-sender", 0.0) + gap

    def classify(self, state: StateEvent) -> dict[str, float]:
        """Root-cause one receive wait; returns seconds per category."""
        blame: dict[str, float] = {}
        message = self.view.message(state.cause)
        if message is None:
            return blame
        if state.duration <= 0.0:
            buffered = state.t0 - message.arrival_time
            if buffered > 0.0:
                blame["late-receiver"] = buffered
            return blame
        pre_send = min(message.send_time, state.t1) - state.t0
        if pre_send > 0.0:
            self.attribute_lateness(
                message.src, message.send_time, pre_send, blame, 0
            )
        self.split_in_flight(
            message, max(state.t0, message.send_time), state.t1, blame
        )
        return blame
