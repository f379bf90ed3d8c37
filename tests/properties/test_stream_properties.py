"""Property-based equivalence of streaming and batch trace analysis.

Hypothesis generates random fig4-shaped traces — per-rank monotone
timelines, cross-rank messages, waits in arrival order, all timestamps
multiples of 1/8 so float arithmetic is exact, or plain ``int`` time
units for some traces, and in some traces stamps recorded twice and
message records that arrive late — and the tests assert the streaming
analyzer's contract:

* for any trace, streaming produces *exactly* the batch report
  (same JSON document, byte for byte);
* the frontier limit — how aggressively events are evicted to the
  spill log — never changes the answer, only the memory profile;
* a trace the batch pipeline rejects is rejected by the stream too.
"""

import dataclasses

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, given, settings, strategies as st

from repro.errors import TraceError
from repro.obs import build_run_report, build_stream_run_report
from repro.tracing import TraceRecorder
from repro.tracing.events import CommEvent
from repro.tracing.stream import StreamConfig, TraceStreamAnalyzer

Q = 0.125  # all times are multiples of this; float addition is exact


@st.composite
def trace_ops(draw):
    """One random trace as a replayable list of tracer calls.

    In a *reordered* trace some stamps are recorded a second time, with
    a different size (and a different label and a send time no later
    than the first record's, so which of the two the analysis resolves
    shows in the report), and some message records are held back to
    the end of the trace, after later-stamped messages.  The
    last-recorded message of a stamp must then win wherever the stream
    keeps it: in the frontier, among the stragglers or in a spilled
    segment.
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
                ops.append(("state", dst, "msg", t0, t1, "wait", message.seq))
                now[dst] = t1
    return ops + held_back


def feed(ops, tracer):
    for op in ops:
        if op[0] == "state":
            _, rank, label, t0, t1, kind, cause = op
            tracer.state(rank, label, t0, t1, kind=kind, cause=cause)
        else:
            tracer.comm(op[1])


def batch_outcome(recorder):
    try:
        return "ok", build_run_report(recorder, scenario="p").to_json()
    except TraceError:
        return "error", None


def stream_outcome(ops, config):
    with TraceStreamAnalyzer(config) as analyzer:
        feed(ops, analyzer)
        try:
            result = analyzer.finalize()
        except TraceError:
            return "error", None
        return "ok", build_stream_run_report(result, scenario="p").to_json()


@settings(max_examples=60, deadline=None)
@given(ops=trace_ops())
def test_streaming_equals_batch_exactly(ops):
    recorder = TraceRecorder()
    feed(ops, recorder)
    kind, batch_doc = batch_outcome(recorder)
    stream_kind, stream_doc = stream_outcome(
        ops, StreamConfig(frontier_limit=4, segment_events=4)
    )
    assert stream_kind == kind
    assert stream_doc == batch_doc


@settings(max_examples=40, deadline=None)
@given(ops=trace_ops())
def test_frontier_limit_never_changes_the_report(ops):
    outcomes = {
        stream_outcome(
            ops, StreamConfig(frontier_limit=limit, segment_events=4)
        )
        for limit in (1, 3, 17, None)
    }
    assert len(outcomes) == 1


@settings(max_examples=40, deadline=None)
@given(ops=trace_ops(), data=st.data())
def test_batch_rejection_implies_stream_rejection(ops, data):
    """Truncate one wait so it ends before its cause arrives — the
    validation failure must surface identically in both pipelines."""
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

    recorder = TraceRecorder()
    feed(ops, recorder)
    assert batch_outcome(recorder)[0] == "error"
    assert stream_outcome(
        ops, StreamConfig(frontier_limit=2, segment_events=2)
    )[0] == "error"
