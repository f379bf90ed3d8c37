"""Closed-form oracles for the trace store.

Hypothesis generates random fig4-shaped traces — per-rank monotone
timelines, cross-rank messages, waits in arrival order, all timestamps
multiples of 1/8 so float arithmetic is exact, or plain ``int`` time
units for some traces, and in some traces stamps recorded twice and
message and state records that arrive late — and checks the
analyzer against values computed directly from the generated calls,
at frontier limits 1, 3, 17 and None (from every row spilled to none):

* each rank's backward cursor from the end of time yields that rank's
  states in stable ``(t1, t0)`` order, wherever the rows live;
* a stamp resolves to the last-recorded message carrying it;
* runtime, rank count, per-rank useful seconds and per-label baseline
  latencies equal direct reductions of the calls;
* a resolved blocked wait is billed exactly its duration across
  ``transfer``, ``switch-contention`` and ``late-sender``, and a
  resolved zero-length wait its buffered time as ``late-receiver``;
* the frontier limit never changes the report;
* a wait that ends before its cause arrives is rejected at every
  limit.
"""

import dataclasses
import math
import statistics

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from repro.errors import TraceError
from repro.obs import build_run_report
from repro.tracing.events import CommEvent, StateEvent
from repro.tracing.stream import (
    StreamConfig,
    TraceStreamAnalyzer,
    _StreamingView,
)

Q = 0.125  # all times are multiples of this; float addition is exact


@st.composite
def trace_ops(draw):
    """One random trace as a replayable list of tracer calls.

    In a *reordered* trace some stamps are recorded a second time, with
    a different size (and a different label and a send time no later
    than the first record's, so which of the two the analysis resolves
    shows in the report), and some message and wait records are held
    back to the end of the trace, after later-stamped messages and
    later states of their rank.  The last-recorded message of a stamp
    must then win, and a late state take its place in its rank's
    timeline, wherever the stream keeps them: in the frontier, among
    the stragglers or in a spilled segment.
    """
    num_ranks = draw(st.integers(2, 4))
    rounds = draw(st.integers(1, 4))
    unit = draw(st.sampled_from([Q, 1]))  # 1: integer timestamps
    reordered = draw(st.booleans())
    now = [0 * unit] * num_ranks
    ops = []
    held_back = []
    seq = 0
    for round_index in range(rounds):
        for rank in range(num_ranks):
            dt = draw(st.integers(1, 6)) * unit
            ops.append(
                ("state", rank, "compute", now[rank], now[rank] + dt,
                 "compute", -1)
            )
            now[rank] += dt
        messages = []
        for src in range(num_ranks):
            for _ in range(draw(st.integers(0, 2))):
                dst = draw(st.integers(0, num_ranks - 1))
                if dst == src:
                    dst = (src + 1) % num_ranks
                latency = draw(st.integers(1, 12)) * unit
                send = now[src]
                ops.append(
                    ("state", src, "msg", send, send + unit, "send", seq)
                )
                now[src] = send + unit
                message = CommEvent(
                    src=src, dst=dst, tag=("t", round_index, src),
                    nbytes=1024, send_time=send,
                    arrival_time=send + latency, label="msg", seq=seq,
                )
                records = [message]
                if reordered and draw(st.booleans()):
                    earlier = draw(st.integers(0, 2)) * unit
                    records.append(dataclasses.replace(
                        message, nbytes=2048, label="resent",
                        send_time=max(send - earlier, 0 * unit),
                    ))
                for record in records:
                    if reordered and draw(st.booleans()):
                        held_back.append(("comm", record))
                    else:
                        ops.append(("comm", record))
                messages.append(message)
                seq += 1
        inbound = {}
        for message in messages:
            inbound.setdefault(message.dst, []).append(message)
        for dst in range(num_ranks):
            arrivals = sorted(
                inbound.get(dst, ()), key=lambda m: (m.arrival_time, m.seq)
            )
            for message in arrivals:
                t0 = now[dst]
                t1 = max(t0, message.arrival_time)
                wait = ("state", dst, "msg", t0, t1, "wait", message.seq)
                if reordered and draw(st.booleans()):
                    held_back.append(wait)
                else:
                    ops.append(wait)
                now[dst] = t1
    return ops + held_back


def feed(ops, tracer):
    for op in ops:
        if op[0] == "state":
            _, rank, label, t0, t1, kind, cause = op
            tracer.state(rank, label, t0, t1, kind=kind, cause=cause)
        else:
            tracer.comm(op[1])


#: From "every row spills at once" to "nothing is ever evicted".
LIMITS = (1, 3, 17, None)


def analyzer_for(limit):
    return TraceStreamAnalyzer(
        StreamConfig(frontier_limit=limit, segment_events=4)
    )


def analyze(ops, limit):
    with analyzer_for(limit) as analyzer:
        feed(ops, analyzer)
        return analyzer.finalize()


def state_ops(ops):
    return [op for op in ops if op[0] == "state"]


def last_recorded(ops):
    """The last-recorded message of each stamp."""
    return {op[1].seq: op[1] for op in ops if op[0] == "comm"}


def backward(cursor):
    states = []
    while cursor.state is not None:
        states.append(cursor.state)
        cursor.retreat()
    return states


@settings(max_examples=40, deadline=None)
@given(ops=trace_ops())
def test_cursors_and_lookups_follow_the_calls(ops):
    timelines = {}
    for _, rank, label, t0, t1, kind, cause in state_ops(ops):
        timelines.setdefault(rank, []).append(
            StateEvent(rank, label, t0, t1, kind, cause)
        )
    for states in timelines.values():
        states.sort(key=lambda s: (s.t1, s.t0))  # stable: record order
    messages = last_recorded(ops)
    for limit in LIMITS:
        with analyzer_for(limit) as analyzer:
            feed(ops, analyzer)
            view = _StreamingView(analyzer)
            for rank, states in timelines.items():
                cursor = view.anchor(rank, math.inf, 0.0)
                assert backward(cursor) == states[::-1]
            for seq in range(max(messages, default=-1) + 2):
                assert view.message(seq) == messages.get(seq)


@settings(max_examples=40, deadline=None)
@given(ops=trace_ops())
def test_scalars_equal_direct_reductions(ops):
    states = state_ops(ops)
    comms = [op[1] for op in ops if op[0] == "comm"]
    runtime = max(
        [op[4] for op in states] + [c.arrival_time for c in comms]
    )
    num_ranks = 1 + max(
        [op[1] for op in states] + [r for c in comms for r in (c.src, c.dst)]
    )
    useful = [0.0] * num_ranks
    for _, rank, _, t0, t1, kind, _ in states:
        if kind == "compute":
            useful[rank] += t1 - t0
    latencies = {}
    for c in comms:
        latencies.setdefault(c.label, []).append(c.arrival_time - c.send_time)
    baselines = {
        label: float(max(statistics.median(values), 1e-12))
        for label, values in sorted(latencies.items())
    }
    for limit in LIMITS:
        result = analyze(ops, limit)
        assert result.runtime_seconds == runtime
        assert result.num_ranks == num_ranks
        assert result.waits.efficiencies.useful_seconds == tuple(useful)
        assert result.waits.baseline_latency_s == baselines


@settings(max_examples=40, deadline=None)
@given(ops=trace_ops())
def test_every_resolved_wait_is_billed_exactly_once(ops):
    messages = last_recorded(ops)
    blocked, buffered = [], []
    for _, _, _, t0, t1, kind, cause in state_ops(ops):
        message = messages.get(cause) if kind == "wait" else None
        if message is None:
            continue
        if t1 > t0:
            blocked.append(t1 - t0)
        else:
            buffered.append(max(t0 - message.arrival_time, 0))
    for limit in LIMITS:
        waits = analyze(ops, limit).waits
        billed = math.fsum(
            entry.seconds
            for entry in waits.entries
            if entry.category not in ("collective-imbalance", "late-receiver")
        )
        assert billed == pytest.approx(math.fsum(blocked), abs=1e-9)
        assert waits.seconds("late-receiver") == pytest.approx(
            math.fsum(buffered), abs=1e-9
        )


def report_outcome(ops, limit):
    with analyzer_for(limit) as analyzer:
        feed(ops, analyzer)
        try:
            result = analyzer.finalize()
        except TraceError:
            return "error", None
        return "ok", build_run_report(result, scenario="p").to_json()


@settings(max_examples=40, deadline=None)
@given(ops=trace_ops())
def test_frontier_limit_never_changes_the_report(ops):
    assert len({report_outcome(ops, limit) for limit in LIMITS}) == 1


@settings(max_examples=40, deadline=None)
@given(ops=trace_ops(), data=st.data())
def test_truncated_wait_is_rejected_at_every_limit(ops, data):
    """Truncate one wait so it ends before its cause arrives."""
    candidates = [
        index
        for index, op in enumerate(ops)
        if op[0] == "state" and op[5] == "wait" and op[4] > op[3]
    ]
    assume(candidates)
    index = data.draw(st.sampled_from(candidates))
    _, rank, label, t0, t1, kind, cause = ops[index]
    ops = list(ops)
    ops[index] = ("state", rank, label, t0, t0, kind, cause)
    for limit in LIMITS:
        with analyzer_for(limit) as analyzer:
            feed(ops, analyzer)
            with pytest.raises(TraceError, match="before its cause arrives"):
                analyzer.finalize()
