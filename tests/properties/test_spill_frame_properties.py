"""Property-based round trips of the streaming spill frames.

State, message and wait segments go through the real spill path —
the series' rows, :class:`SpillLog` framing, the segment cache and
the wait log — with values chosen to break a careless codec:
``-0.0``, subnormals, ``±1e308`` and infinities, ints past 2**53 and
past 64 bits, integer timestamps, a float ``nbytes``,
``bool`` causes, non-ASCII labels and nested tuple tags holding
``None`` and floats.  Every decoded event must equal its original in
value *and* type (compared by ``repr``, which tells ``-0.0`` from
``0.0`` and ``1`` from ``1.0``).  Separately, any single flipped byte,
any truncation, and any read with the wrong kind or rank must raise
:class:`TraceError` before anything is decoded, given the digest the
writer kept in memory.
"""

import hashlib

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from repro.errors import TraceError
from repro.tracing.events import STATE_KINDS, CommEvent, StateEvent
from repro.tracing.stream import (
    SpillLog,
    TraceStreamAnalyzer,
    _CommSeries,
    _SegmentCache,
    _StateSeries,
    decode_frame,
    encode_frame,
)

EDGE_FLOATS = [-0.0, 0.0, 5e-324, -2.5e-310, 1e308, -1e308]

floats = st.one_of(
    st.sampled_from(EDGE_FLOATS), st.floats(allow_nan=False)
)
int64s = st.integers(-(2**63), 2**63 - 1)
ints = st.one_of(
    int64s, st.integers(2**53, 2**80), st.integers(-(2**80), -(2**53))
)
times = st.one_of(floats, ints)
labels = st.one_of(
    st.sampled_from(["alltoallv", "émission", "通信", "ränk-🚀"]), st.text()
)
causes = st.one_of(ints, st.booleans())
scalars = st.one_of(
    st.none(), st.booleans(), ints, floats, st.text(max_size=4)
)
tags = st.recursive(
    scalars, lambda inner: st.lists(inner, max_size=3).map(tuple), max_leaves=8
)
sizes = st.one_of(
    st.integers(0, 2**70), st.floats(min_value=0.0, allow_infinity=False)
)


@st.composite
def states(draw, rank=None):
    a, b = draw(times), draw(times)
    return StateEvent(
        draw(ints) if rank is None else rank,
        draw(labels), min(a, b), max(a, b),
        kind=draw(st.sampled_from(STATE_KINDS)), cause=draw(causes),
    )


@st.composite
def messages(draw):
    a, b = draw(times), draw(times)
    return CommEvent(
        src=draw(ints), dst=draw(ints), tag=draw(tags), nbytes=draw(sizes),
        send_time=min(a, b), arrival_time=max(a, b),
        label=draw(labels), seq=draw(ints),
    )


def exact(values):
    """Value-and-type fingerprint of a field sequence."""
    return [(type(value), repr(value)) for value in values]


def fields(event):
    return exact(vars(event).values())


def state_row(event, pos):
    """The row a state series holds for *event* at record position *pos*."""
    return (event.t1, event.t0, pos, event.label, event.kind, event.cause)


def comm_row(event, gpos):
    """The row the message series holds for *event* at position *gpos*."""
    return (
        event.seq, gpos, event.src, event.dst, event.tag, event.nbytes,
        event.send_time, event.arrival_time, event.label,
    )


def wait_row(event):
    """The row the wait log holds for *event*."""
    return (
        event.rank, event.label, event.t0, event.t1, event.kind, event.cause
    )


def spill_and_reload(series, keyed_events, tmp_path):
    """Spill the events as one segment, read it back; returns the
    decoded rows' keys and the events built from the decoded rows."""
    log = SpillLog(tmp_path / "s.spill")
    row_of = comm_row if isinstance(series, _CommSeries) else state_row
    try:
        for key, event in keyed_events:
            series.rows.append(row_of(event, key[-1]))
        series.cache = _SegmentCache(log, 2)
        assert series.spill(log, len(keyed_events)) == len(keyed_events)
        segment = series.cache.get(series, series.segments[0])
        width = len(keyed_events[0][0])
        return [row[:width] for row in segment.rows], [
            segment.event(i) for i in range(len(segment.rows))
        ]
    finally:
        log.close()


@settings(max_examples=60, deadline=None)
@given(data=st.data(), rank=int64s, count=st.integers(1, 12))
def test_state_segments_round_trip_exactly(
    data, rank, count, tmp_path_factory
):
    events = data.draw(st.lists(states(rank), min_size=count, max_size=count))
    keyed = [((e.t1, e.t0, pos), e) for pos, e in enumerate(events)]
    keys, decoded = spill_and_reload(
        _StateSeries(rank, None), keyed, tmp_path_factory.mktemp("states")
    )
    assert [exact(k) for k in keys] == [exact(k) for k, _ in keyed]
    assert [fields(e) for e in decoded] == [fields(e) for e in events]


@settings(max_examples=60, deadline=None)
@given(events=st.lists(messages(), min_size=1, max_size=12))
def test_message_segments_round_trip_exactly(events, tmp_path_factory):
    keyed = [((e.seq, gpos), e) for gpos, e in enumerate(events)]
    keys, decoded = spill_and_reload(
        _CommSeries(-1, None), keyed, tmp_path_factory.mktemp("comms")
    )
    assert [exact(k) for k in keys] == [exact(k) for k, _ in keyed]
    assert [fields(e) for e in decoded] == [fields(e) for e in events]


@settings(max_examples=60, deadline=None)
@given(waits=st.lists(states(), min_size=1, max_size=12))
def test_wait_segments_round_trip_exactly(waits):
    with TraceStreamAnalyzer() as analyzer:
        analyzer._wait_tail = [wait_row(e) for e in waits]
        analyzer._flush_waits()
        assert analyzer._wait_tail == []
        replayed = list(analyzer._iter_waits())
    assert [fields(e) for e in replayed] == [fields(e) for e in waits]


@st.composite
def frames(draw):
    """A frame of a random kind and rank, the digest its writer keeps,
    and that kind and rank."""
    rank = draw(int64s)
    kind = draw(st.sampled_from(["states", "comms", "waits"]))
    events = draw(st.lists(
        messages() if kind == "comms" else states(rank),
        min_size=1, max_size=4,
    ))
    if kind == "comms":
        rows = [comm_row(e, i) for i, e in enumerate(events)]
    elif kind == "states":
        rows = [state_row(e, i) for i, e in enumerate(events)]
    else:
        rows = [wait_row(e) for e in events]
    frame = encode_frame(kind, rank, rows)
    return frame, hashlib.sha256(frame[32:]).digest(), kind, rank


@settings(max_examples=60, deadline=None)
@given(framed=frames(), data=st.data())
def test_any_flipped_byte_is_a_trace_error(framed, data):
    frame, digest, kind, rank = framed
    decode_frame(frame, kind=kind, rank=rank, digest=digest)  # intact
    index = data.draw(st.integers(0, len(frame) - 1))
    flip = data.draw(st.integers(1, 255))
    damaged = bytearray(frame)
    damaged[index] ^= flip
    with pytest.raises(TraceError, match="corrupt"):
        decode_frame(bytes(damaged), kind=kind, rank=rank, digest=digest)


@settings(max_examples=60, deadline=None)
@given(framed=frames(), data=st.data())
def test_any_truncation_is_a_trace_error(framed, data):
    frame, digest, kind, rank = framed
    cut = data.draw(st.integers(0, len(frame) - 1))
    with pytest.raises(TraceError, match="corrupt"):
        decode_frame(frame[:cut], kind=kind, rank=rank, digest=digest)


@settings(max_examples=60, deadline=None)
@given(framed=frames(), data=st.data())
def test_wrong_kind_or_rank_is_a_trace_error(framed, data):
    frame, digest, kind, rank = framed
    other_kind = data.draw(
        st.sampled_from([k for k in ("states", "comms", "waits") if k != kind])
    )
    other_rank = data.draw(st.integers(-5, 5).filter(lambda r: r != rank))
    with pytest.raises(TraceError, match="misaddressed"):
        decode_frame(frame, kind=other_kind, rank=rank, digest=digest)
    with pytest.raises(TraceError, match="misaddressed"):
        decode_frame(frame, kind=kind, rank=other_rank, digest=digest)
