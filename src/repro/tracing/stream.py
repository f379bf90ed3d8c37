"""The trace store: bounded-memory incremental analysis.

:class:`TraceStreamAnalyzer` analyzes a trace *while it is being
produced*, so the diagnosis still fits in memory on thousand-rank ×
fault-injected runs.  It implements the tracer interface (``state`` /
``comm`` / ``fault``), so a simulation drives it directly in place of
a :class:`~repro.tracing.recorder.TraceRecorder`; a run that also needs
the recorder's event list (for the Chrome or Paraver writers) records
first and replays it with :meth:`TraceRecorder.replay`.  With
``frontier_limit=None`` nothing ever leaves memory and no spill
directory is made — that is how ``trace-report`` runs without
``--stream``.

Memory model
------------

Events live in a bounded **frontier** as plain row tuples, one per
event: per-rank state series plus one global message series, each a
sorted array.  A row's leading fields are its sort key — ``(t1, t0,
record position)`` for states, ``(seq, record position)`` for
messages — so rows sort and bisect as their keys.  The public
:class:`StateEvent` / :class:`CommEvent` is built only when a cursor
or a message lookup reads it.  When the live count exceeds
``frontier_limit``, the oldest rows of the largest series are retired
to an append-only **spill log** in segments of ``segment_events``.
Each segment is one frame — a small header and the ``marshal``'d rows
— behind a sha256 digest of the exact bytes written, which the log
also keeps in memory; a small LRU cache decodes retired segments back
on demand.  Receive waits additionally ride the log in record order,
so the final classification replays them exactly.  A ``seq`` index
finds each stamped message in one step: it maps the stamp to the
last-recorded message's row while that row is in memory, and to its
segment's number once it spilled.  What never spills is that index and
scalar state: per-label latency arrays (for the baseline medians),
per-rank useful-compute sums and collective entry/exit extrema.

Cursors present each rank's states in ``(t1, t0)`` order, stable in
record order, wherever the rows live, and the arithmetic lives in
:mod:`repro.tracing.attribution`, so the frontier limit never changes
the answer: the golden ``fig4_trace_report.json`` reproduces exactly
with no limit and under ``--stream --frontier 64``.
"""

from __future__ import annotations

import hashlib
import marshal
import os
import random
import shutil
import statistics
import struct
import tempfile
from array import array
from bisect import bisect_right, insort
from collections import OrderedDict
from dataclasses import asdict, dataclass
from itertools import starmap
from pathlib import Path
from typing import Any, Callable, Iterator, Sequence

from repro.errors import TraceError
from repro.metrics.registry import current_registry
from repro.tracing.attribution import (
    _EPS,
    CriticalPath,
    ListCursor,
    TimelineView,
    WaitClassifier,
    extract_critical_path,
)
from repro.tracing.events import (
    STATE_KINDS,
    CommEvent,
    StateEvent,
    collective_instance,
)
from repro.tracing.waitstates import (
    CONTENTION_FACTOR,
    EfficiencyReport,
    WaitStateReport,
    baselines_from_latencies,
    collective_instance_spreads,
    wait_entries_from_buckets,
)

#: Bump when the spill-frame layout changes.
SPILL_SCHEMA = 3

#: How often (in ingested events) the ``trace.*`` metrics are flushed
#: to the registry between the final flush at :meth:`finalize`.
_METRICS_EVERY = 4096

#: Ingested events between two live summaries when
#: :attr:`StreamConfig.on_summary` is set.
_SUMMARY_EVERY = 2048

#: Reservoir size (and seed) for the *provisional* per-label baseline
#: latencies behind live summaries (the exact baselines are computed
#: at finalize from the full latency arrays).
_LIVE_BASELINE_RESERVOIR = 512
_LIVE_BASELINE_SEED = "trace-stream-live:7"

#: Decoded spill segments the LRU cache keeps.
_CACHE_SEGMENTS = 48

_INF = float("inf")


# ---------------------------------------------------------------------------
# Spill frames
# ---------------------------------------------------------------------------
#
# frame  := sha256(body) body
# body   := header marshal.dumps(rows)
# header := schema u16, kind u8, rank i64, events u32
#
# ``marshal`` writes every row value by its exact built-in type, so a
# decoded row equals the original in value and type (``-0.0``, ints past
# 64 bits, ``True`` against ``1``), and it refuses subclasses and foreign
# objects.  Its format is for trusted bytes only: a frame is unmarshalled
# only when its sha256 is the digest this process kept in memory when it
# wrote the frame, so a spill log never outlives the process that wrote it.

_FRAME_KINDS = ("states", "comms", "waits")

_DIGEST_BYTES = hashlib.sha256().digest_size
_HEADER = struct.Struct("<HBqI")


def encode_frame(kind: str, rank: int, rows: Sequence[tuple]) -> bytes:
    """One spill frame holding a segment of *kind* rows for *rank*."""
    try:
        header = _HEADER.pack(
            SPILL_SCHEMA, _FRAME_KINDS.index(kind), rank, len(rows)
        )
    except struct.error as error:
        raise TraceError(
            f"cannot frame {len(rows)} {kind} of rank {rank}: {error}"
        ) from None
    try:
        body = header + marshal.dumps(rows)
    except ValueError as error:
        raise TraceError(
            f"cannot spill {kind} of rank {rank}: {error}; streaming "
            "analysis needs message tags and event fields of exact "
            "built-in types (no subclasses)"
        ) from None
    return hashlib.sha256(body).digest() + body


def decode_frame(
    data: bytes, *, kind: str, rank: int, digest: bytes
) -> list[tuple]:
    """The rows of a frame written by :func:`encode_frame`.

    *digest* is the frame's sha256 as kept in memory when it was
    written.  The bytes must hash to the digest they carry, that digest
    must be *digest*, and the header must name *kind* and *rank* — all
    before anything is unmarshalled; every failure is a
    :class:`TraceError`.
    """
    view = memoryview(data)
    body = view[_DIGEST_BYTES:]
    if (
        len(body) < _HEADER.size
        or hashlib.sha256(body).digest() != view[:_DIGEST_BYTES]
    ):
        raise TraceError("corrupt: its sha256 does not match its bytes")
    if view[:_DIGEST_BYTES] != digest:
        raise TraceError("rewritten: its sha256 is not the one written")
    schema, code, frame_rank, _ = _HEADER.unpack_from(body)
    frame_kind = _FRAME_KINDS[code] if code < len(_FRAME_KINDS) else code
    if schema != SPILL_SCHEMA or frame_kind != kind or frame_rank != rank:
        raise TraceError(
            f"misaddressed: holds schema {schema} kind={frame_kind!r} "
            f"rank={frame_rank}, wanted schema {SPILL_SCHEMA} "
            f"kind={kind!r} rank={rank}"
        )
    return marshal.loads(body[_HEADER.size:])


class SpillLog:
    """Append-only log of sha256-framed segments (journal discipline).

    One frame per segment (see :func:`encode_frame`).  The log keeps
    each frame's digest in memory, and every read checks the bytes on
    disk against it and the frame's kind and rank before decoding, so
    a bad disk turns into a :class:`TraceError` instead of silently
    wrong analysis.
    """

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)
        self._file = open(self.path, "w+b")
        #: offset -> sha256 of the frame written there.
        self._digests: dict[int, bytes] = {}
        self.bytes_written = 0
        self.segments_written = 0

    def append(
        self, kind: str, rank: int, rows: Sequence[tuple]
    ) -> tuple[int, int]:
        """Frame one segment's rows; returns ``(offset, length)``."""
        data = encode_frame(kind, rank, rows)
        self._file.seek(0, os.SEEK_END)
        offset = self._file.tell()
        self._file.write(data)
        self._file.flush()
        self._digests[offset] = data[:_DIGEST_BYTES]
        self.bytes_written += len(data)
        self.segments_written += 1
        return offset, len(data)

    def read(
        self, offset: int, length: int, *, kind: str, rank: int
    ) -> list[tuple]:
        """The verified rows of the frame at *offset*."""
        where = f"spill frame at offset {offset} of {self.path.name}"
        digest = self._digests.get(offset)
        if digest is None:
            raise TraceError(f"{where} is misaddressed: none was written")
        self._file.seek(offset)
        data = self._file.read(length)
        if len(data) != length:
            raise TraceError(
                f"{where} is truncated: read {len(data)} of {length} bytes"
            )
        try:
            return decode_frame(data, kind=kind, rank=rank, digest=digest)
        except TraceError as error:
            raise TraceError(f"{where} is {error}") from None

    def close(self) -> None:
        if not self._file.closed:
            self._file.close()


# ---------------------------------------------------------------------------
# Event series over frontier, stragglers and spilled segments
# ---------------------------------------------------------------------------


class _Segment:
    """A decoded spill segment: its rows, and the events built from
    them on first access (a cursor or lookup touches few)."""

    __slots__ = ("rows", "_events", "_build")

    def __init__(self, rows: list[tuple], build: Callable) -> None:
        self.rows = rows
        self._events: list = [None] * len(rows)
        self._build = build

    def event(self, index: int):
        event = self._events[index]
        if event is None:
            event = self._events[index] = self._build(self.rows[index])
        return event


class _SegmentCache:
    """Tiny LRU over decoded spill segments (bounded working set)."""

    def __init__(self, log: SpillLog | None, capacity: int) -> None:
        #: The log the segments live in (``None`` until the first spill).
        self.log = log
        self._capacity = capacity
        self._entries: OrderedDict[int, _Segment] = OrderedDict()

    def get(self, series: "_EventSeries", ref: tuple[int, int]) -> _Segment:
        """The segment whose frame sits at ``ref = (offset, length)``."""
        # Frames of every series share one log, so an offset names one.
        offset, length = ref
        entry = self._entries.get(offset)
        if entry is not None:
            self._entries.move_to_end(offset)
            return entry
        entry = _Segment(
            self.log.read(offset, length, kind=series.kind, rank=series.rank),
            series.build,
        )
        self._entries[offset] = entry
        if len(self._entries) > self._capacity:
            self._entries.popitem(last=False)
        return entry


class _SeriesCursor:
    """Backward cursor merging a series' frontier, stragglers, and
    retired segments in descending key order (the ``retreat()``
    protocol the shared walk and classifier consume)."""

    __slots__ = ("_series", "_f", "_s", "_g", "_w", "_seg", "_source", "state")

    def __init__(self, series: "_EventSeries", f: int, s: int, g: int, w: int):
        self._series = series
        self._f = f
        self._s = s
        self._g = g
        self._w = w
        self._seg: _Segment | None = None
        if g >= 0:
            self._load_segment()
        self._select()

    def _load_segment(self) -> None:
        self._seg = self._series.cache.get(
            self._series, self._series.segments[self._g]
        )

    def _select(self) -> None:
        series = self._series
        # Frontier rows sort above every retired row, so the cursor
        # leaves the frontier before it enters the segments; only
        # stragglers interleave with either.
        if self._f >= 0:
            source, best = "f", series.rows[self._f]
        elif self._w >= 0:
            source, best = "g", self._seg.rows[self._w]
        else:
            source = best = None
        if self._s >= 0:
            row = series.stragglers[self._s]
            if best is None or row > best:
                source, best = "s", row
        self._source = source
        if source == "g":
            self.state = self._seg.event(self._w)
        elif source is not None:
            self.state = series.build(best)
        else:
            self.state = None

    def retreat(self) -> None:
        if self._source == "f":
            self._f -= 1
        elif self._source == "s":
            self._s -= 1
        elif self._source == "g":
            self._w -= 1
            if self._w < 0:
                self._g -= 1
                if self._g >= 0:
                    self._load_segment()
                    self._w = len(self._seg.rows) - 1
        self._select()


class _EventSeries:
    """One key-ordered event stream: a sorted in-memory frontier, a
    straggler overflow for keys below the spill watermark, and the
    ascending retired segments on disk.

    Every tier holds row tuples whose leading fields are the sort key
    and whose key ends in a record position unique to the series, so
    comparing two rows never looks past the key.  The total order
    across all three tiers is that key order, which is what makes
    cursors over a spilled stream behave identically to cursors over
    one that never spilled.
    """

    kind = "events"

    def __init__(self, rank: int, cache: _SegmentCache) -> None:
        self.rank = rank
        self.cache = cache
        self.rows: list[tuple] = []
        self.stragglers: list[tuple] = []
        #: ``(offset, length)`` of each retired segment's frame.
        self.segments: list[tuple[int, int]] = []
        self._segment_min_keys: list[tuple] = []
        self.watermark: tuple | None = None
        self.next_pos = 0

    def build(self, row: tuple):
        """The public event record a row stands for."""
        raise NotImplementedError

    def add(self, row: tuple) -> None:
        if self.watermark is not None and row < self.watermark:
            # Arrived after its key range was already retired: keep it
            # in memory forever (stragglers are rare by construction —
            # recorders emit per-rank times almost in order).
            insort(self.stragglers, row)
        elif self.rows and row < self.rows[-1]:
            insort(self.rows, row)
        else:
            self.rows.append(row)

    def spillable(self) -> int:
        return len(self.rows)

    def spill(self, log: SpillLog, count: int) -> int:
        """Retire the oldest *count* frontier rows to *log*."""
        count = min(count, len(self.rows))
        if count <= 0:
            return 0
        retired = self.rows[:count]
        self.segments.append(log.append(self.kind, self.rank, retired))
        self._segment_min_keys.append(retired[0])
        self.watermark = retired[-1]
        del self.rows[:count]
        self.retired(retired)
        return count

    def retired(self, rows: list[tuple]) -> None:
        """Called once *rows* live only in the newest segment."""

    def cursor_at(self, probe: tuple) -> _SeriesCursor:
        """Backward cursor at the last event with key ``<= probe``."""
        f = bisect_right(self.rows, probe) - 1
        s = bisect_right(self.stragglers, probe) - 1
        g = bisect_right(self._segment_min_keys, probe) - 1
        w = -1
        if g >= 0:
            segment = self.cache.get(self, self.segments[g])
            w = bisect_right(segment.rows, probe) - 1
        return _SeriesCursor(self, f, s, g, w)


class _StateSeries(_EventSeries):
    """Per-rank state intervals, one row
    ``(t1, t0, record position, label, kind, cause)`` each."""

    kind = "states"

    def build(self, row: tuple) -> StateEvent:
        t1, t0, _, label, kind, cause = row
        return StateEvent(self.rank, label, t0, t1, kind, cause)


class _CommSeries(_EventSeries):
    """All stamped messages, one row
    ``(seq, record position, src, dst, tag, nbytes, send, arrival,
    label)`` each, plus the ``seq`` index that finds the last-recorded
    message of a stamp: a later record of a stamp overwrites an
    earlier one."""

    kind = "comms"

    def __init__(self, rank: int, cache: _SegmentCache) -> None:
        super().__init__(rank, cache)
        #: seq -> the last-recorded message's row while it is in
        #: memory (frontier or straggler), or the number of the
        #: segment it spilled to.
        self.index: dict[int, tuple | int] = {}

    def build(self, row: tuple) -> CommEvent:
        seq, _, src, dst, tag, nbytes, send, arrival, label = row
        return CommEvent(src, dst, tag, nbytes, send, arrival, label, seq)

    def add(self, row: tuple) -> None:
        super().add(row)
        self.index[row[0]] = row

    def retired(self, rows: list[tuple]) -> None:
        segment = len(self.segments) - 1
        index = self.index
        for row in rows:
            if index.get(row[0]) is row:
                index[row[0]] = segment

    def lookup(self, seq: int) -> CommEvent | None:
        """The last-recorded message stamped *seq*, wherever it lives."""
        where = self.index.get(seq)
        if where is None:
            return None
        if type(where) is tuple:
            return self.build(where)
        segment = self.cache.get(self, self.segments[where])
        # The segment holds the stamp's last-recorded message, which
        # sorts after any earlier message with the same stamp.
        return segment.event(bisect_right(segment.rows, (seq, _INF)) - 1)


@dataclass(frozen=True)
class StreamConfig:
    """Knobs of one streaming analysis.

    ``frontier_limit`` bounds the live in-memory event count (``None``
    never evicts and never spills); ``segment_events`` sizes retired
    segments and wait log frames; ``on_summary``, when set, receives a
    provisional live summary every 2,048 ingested events.  A bounded
    analyzer makes its spill log in a fresh ``trace-stream-*`` directory
    under :func:`tempfile.gettempdir` (``TMPDIR``) on its first spill;
    :meth:`TraceStreamAnalyzer.close` removes it.
    """

    frontier_limit: int | None = 8192
    segment_events: int = 1024
    on_summary: Callable[[dict], None] | None = None

    def __post_init__(self) -> None:
        if self.frontier_limit is not None and self.frontier_limit < 1:
            raise TraceError(
                f"frontier_limit must be >= 1 or None, got {self.frontier_limit}"
            )
        if self.segment_events < 1:
            raise TraceError(
                f"segment_events must be >= 1, got {self.segment_events}"
            )


@dataclass(frozen=True)
class StreamStats:
    """Ingestion accounting of one streaming analysis."""

    events_ingested: int
    states_ingested: int
    comms_ingested: int
    faults_ingested: int
    distinct_messages: int
    frontier_live: int
    frontier_high_water: int
    spill_bytes: int
    retired_segments: int

    def to_dict(self) -> dict[str, int]:
        return asdict(self)


@dataclass(frozen=True)
class StreamResult:
    """What :meth:`TraceStreamAnalyzer.finalize` learned
    (:func:`repro.obs.report.build_run_report` turns it into the run
    report)."""

    path: CriticalPath
    waits: WaitStateReport
    num_ranks: int
    runtime_seconds: float
    stats: StreamStats


class _StreamingView(TimelineView):
    """The analyzer's frontier+spill store as the timeline view the
    walk and the classifier read."""

    def __init__(self, analyzer: "TraceStreamAnalyzer") -> None:
        self._a = analyzer
        self._seq: int | None = None
        self._message: CommEvent | None = None

    def anchor(self, rank: int, t: float, eps: float):
        series = self._a._states.get(rank)
        if series is None:
            return ListCursor([], -1)
        return series.cursor_at((t + eps, _INF, _INF))

    def message(self, seq: int) -> CommEvent | None:
        # The classifier asks again for the message the finalize loop
        # just checked: keep the last answer rather than rebuild it.
        if seq != self._seq:
            self._seq = seq
            self._message = self._a._comms.lookup(seq) if seq >= 0 else None
        return self._message

    def job_end_time(self) -> float:
        return max(self._a._rank_end.values())

    def job_end_rank(self) -> int:
        end = self.job_end_time()
        return min(
            rank
            for rank, t1 in self._a._rank_end.items()
            if t1 >= end - _EPS
        )

    def walk_budget(self) -> int:
        return 4 * (self._a._states_n + len(self._a._comms.index)) + 16


class TraceStreamAnalyzer:
    """Incremental trace analysis behind the tracer interface.

    Drive it as the tracer (``MpiJob(..., tracer=analyzer)``); then
    call :meth:`finalize` for the exact analysis and :meth:`close` to
    drop the spill log, if it spilled.
    """

    def __init__(
        self,
        config: StreamConfig | None = None,
        *,
        registry=None,
    ) -> None:
        self.config = config or StreamConfig()
        self._registry = registry
        #: The spill directory and log, made on the first spill.
        self._dir: Path | None = None
        self._log: SpillLog | None = None
        self._cache = _SegmentCache(None, _CACHE_SEGMENTS)
        self._states: dict[int, _StateSeries] = {}
        self._comms = _CommSeries(-1, self._cache)
        self._latencies: dict[str, array] = {}
        self._instances: dict[tuple, dict[str, dict[int, float]]] = {}
        self._useful: list[float] = []
        self._rank_end: dict[int, float] = {}
        self._num_ranks = 0
        self._end_time = 0.0
        #: Rows ``(rank, label, t0, t1, kind, cause)`` of the receive
        #: waits not yet spilled; ``(offset, length)`` of each spilled
        #: wait frame.
        self._wait_tail: list[tuple] = []
        self._wait_segments: list[tuple[int, int]] = []
        self._events = 0
        self._states_n = 0
        self._comms_n = 0
        self._faults_n = 0
        self._live = 0
        self._high_water = 0
        self._flushed_events = 0
        self._flushed_bytes = 0
        self._flushed_segments = 0
        limit = self.config.frontier_limit
        self._limit = _INF if limit is None else limit
        # Without a frontier limit the waits stay in memory too.
        self._wait_frame = (
            _INF if limit is None else self.config.segment_events
        )
        self._tracking_live = self.config.on_summary is not None
        self._next_summary = _SUMMARY_EVERY if self._tracking_live else _INF
        self._live_buckets: dict[tuple[str, str], list] = {}
        self._live_classified = 0
        self._live_pending = 0
        self._live_reservoirs: dict[str, list[float]] = {}
        self._live_rngs: dict[str, random.Random] = {}
        self._live_counts: dict[str, int] = {}
        self._live_medians: dict[str, tuple[int, float]] = {}
        self._result: StreamResult | None = None
        self._closed = False

    # -- the tracer interface ----------------------------------------------

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
        """Ingest one state interval."""
        self._check_open()
        if t1 < t0 or kind not in STATE_KINDS:
            # The record's own validation raises the TraceError.
            StateEvent(rank, label, t0, t1, kind=kind, cause=cause)
        series = self._states.get(rank)
        if series is None:
            series = self._states[rank] = _StateSeries(rank, self._cache)
        pos = series.next_pos
        series.next_pos = pos + 1
        series.add((t1, t0, pos, label, kind, cause))
        self._live += 1
        self._states_n += 1
        if rank >= self._num_ranks:
            self._num_ranks = rank + 1
        if t1 > self._end_time:
            self._end_time = t1
        previous = self._rank_end.get(rank)
        if previous is None or t1 > previous:
            self._rank_end[rank] = t1
        if kind == "compute":
            while len(self._useful) <= rank:
                self._useful.append(0.0)
            self._useful[rank] += t1 - t0
        elif kind == "wait" and cause >= 0:
            self._note_wait((rank, label, t0, t1, kind, cause))
        self._after_ingest()

    def comm(self, message) -> None:
        """Ingest one message record (reads the same attributes
        :meth:`TraceRecorder.comm` does)."""
        self._check_open()
        src = message.src
        dst = message.dst
        tag = message.tag
        nbytes = message.nbytes
        send = message.send_time
        arrival = message.arrival_time
        label = message.label
        seq = getattr(message, "seq", -1)
        if arrival < send or nbytes < 0:
            # The record's own validation raises the TraceError.
            CommEvent(src, dst, tag, nbytes, send, arrival, label, seq)
        self._comms_n += 1
        latency = arrival - send
        latencies = self._latencies.get(label)
        if latencies is None:
            latencies = self._latencies[label] = array("d")
        latencies.append(latency)
        top = max(src, dst)
        if top >= self._num_ranks:
            self._num_ranks = top + 1
        if arrival > self._end_time:
            self._end_time = arrival
        instance = collective_instance(tag)
        if instance is not None:
            record = self._instances.setdefault(
                instance, {"entry": {}, "exit": {}}
            )
            entry = record["entry"].get(src)
            if entry is None or send < entry:
                record["entry"][src] = send
            exit_ = record["exit"].get(dst)
            if exit_ is None or arrival > exit_:
                record["exit"][dst] = arrival
        if seq >= 0:
            comms = self._comms
            comms.add(
                (seq, comms.next_pos, src, dst, tag, nbytes, send, arrival,
                 label)
            )
            comms.next_pos += 1
            self._live += 1
        if self._tracking_live:
            self._note_live_latency(label, latency)
        self._after_ingest()

    def fault(self, kind: str, time_s: float, target: str, **detail) -> None:
        """Fault records don't join the happens-before analysis; they
        are counted so ingestion accounting stays complete."""
        self._check_open()
        self._faults_n += 1
        self._after_ingest()

    # -- ingestion internals ------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise TraceError("stream analyzer is closed")
        if self._result is not None:
            raise TraceError("stream analyzer already finalized")

    def _note_wait(self, row: tuple) -> None:
        self._wait_tail.append(row)
        self._live += 1
        if len(self._wait_tail) >= self._wait_frame:
            self._flush_waits()
        if self._tracking_live:
            self._provisional_classify(StateEvent(*row))

    def _spill_log(self) -> SpillLog:
        """The spill log, made with its directory on the first spill."""
        if self._log is None:
            self._dir = Path(tempfile.mkdtemp(prefix="trace-stream-"))
            self._log = self._cache.log = SpillLog(self._dir / "trace.spill")
        return self._log

    def _spilled(self) -> tuple[int, int]:
        """Bytes and frames written to the spill log so far."""
        log = self._log
        return (0, 0) if log is None else (
            log.bytes_written, log.segments_written
        )

    def _flush_waits(self) -> None:
        self._wait_segments.append(
            self._spill_log().append("waits", -1, self._wait_tail)
        )
        self._live -= len(self._wait_tail)
        self._wait_tail = []

    def _iter_waits(self) -> Iterator[StateEvent]:
        """Replay every receive wait in exact record order."""
        for offset, length in self._wait_segments:
            yield from starmap(
                StateEvent,
                self._log.read(offset, length, kind="waits", rank=-1),
            )
        yield from starmap(StateEvent, self._wait_tail)

    def _after_ingest(self) -> None:
        self._events += 1
        if self._live > self._high_water:
            self._high_water = self._live
        if self._live > self._limit:
            self._evict()
        if self._events - self._flushed_events >= _METRICS_EVERY:
            self._flush_metrics()
        if self._events >= self._next_summary:
            self._next_summary = self._events + _SUMMARY_EVERY
            self.config.on_summary(self.live_summary())

    def _evict(self) -> None:
        while self._live > self._limit:
            candidates = [
                series
                for series in list(self._states.values()) + [self._comms]
                if series.spillable() > 0
            ]
            if not candidates:
                # Only stragglers and the wait tail remain; nothing
                # retires (high-water then reflects the overflow).
                return
            series = max(candidates, key=lambda s: s.spillable())
            spilled = series.spill(
                self._spill_log(),
                min(self.config.segment_events, series.spillable()),
            )
            self._live -= spilled

    # -- live summaries (provisional) ---------------------------------------

    def _note_live_latency(self, label: str, latency: float) -> None:
        seen = self._live_counts.get(label, 0) + 1
        self._live_counts[label] = seen
        reservoir = self._live_reservoirs.setdefault(label, [])
        if len(reservoir) < _LIVE_BASELINE_RESERVOIR:
            reservoir.append(latency)
        else:
            rng = self._live_rngs.get(label)
            if rng is None:
                rng = self._live_rngs[label] = random.Random(
                    f"{_LIVE_BASELINE_SEED}:{label}"
                )
            slot = rng.randrange(seen)
            if slot < _LIVE_BASELINE_RESERVOIR:
                reservoir[slot] = latency
        self._live_medians.pop(label, None)

    def _live_baseline(self, label: str) -> float:
        cached = self._live_medians.get(label)
        count = self._live_counts.get(label, 0)
        if cached is not None and cached[0] == count:
            return cached[1]
        reservoir = self._live_reservoirs.get(label)
        value = (
            max(statistics.median(reservoir), 1e-12) if reservoir else 1e-12
        )
        self._live_medians[label] = (count, value)
        return value

    def _provisional_classify(self, event: StateEvent) -> None:
        """Cheap per-wait attribution at ingest: no delay-cost
        recursion, provisional (reservoir) baselines.  Feeds live
        summaries only; finalize recomputes everything exactly."""
        message = self._comms.lookup(event.cause)
        if message is None:
            self._live_pending += 1
            return
        self._live_classified += 1
        blame: dict[str, float] = {}
        if event.duration <= 0.0:
            buffered = event.t0 - message.arrival_time
            if buffered > 0.0:
                blame["late-receiver"] = buffered
        else:
            pre_send = min(message.send_time, event.t1) - event.t0
            if pre_send > 0.0:
                blame["late-sender"] = pre_send
            t0 = max(event.t0, message.send_time)
            span = event.t1 - t0
            if span > 0.0:
                baseline = self._live_baseline(message.label)
                if message.latency > CONTENTION_FACTOR * baseline:
                    expected = message.send_time + baseline
                    normal = max(0.0, min(event.t1, expected) - t0)
                    normal = min(span, normal)
                    if normal > 0.0:
                        blame["transfer"] = normal
                    if span - normal > 0.0:
                        blame["switch-contention"] = span - normal
                else:
                    blame["transfer"] = span
        for category, seconds in blame.items():
            if seconds > 0.0:
                bucket = self._live_buckets.setdefault(
                    (category, event.label), [0.0, 0]
                )
                bucket[0] += seconds
                bucket[1] += 1

    def live_summary(self) -> dict[str, Any]:
        """A provisional wait-state summary of the stream so far.

        Numbers are marked ``provisional``: message lookups can miss
        (wait seen before its comm record) and baselines come from a
        bounded reservoir, so they converge to — but are not — the
        finalized exact analysis.
        """
        top = sorted(
            self._live_buckets.items(), key=lambda kv: (-kv[1][0], kv[0])
        )[:5]
        spill_bytes, retired_segments = self._spilled()
        return {
            "provisional": True,
            "events_ingested": self._events,
            "states_ingested": self._states_n,
            "comms_ingested": self._comms_n,
            "end_time_s": self._end_time,
            "num_ranks": self._num_ranks,
            "waits_classified": self._live_classified,
            "waits_pending": self._live_pending,
            "top_wait_states": [
                {
                    "category": category,
                    "label": label,
                    "seconds": seconds,
                    "occurrences": count,
                }
                for (category, label), (seconds, count) in top
            ],
            "frontier": {
                "live": self._live,
                "high_water": self._high_water,
                "spill_bytes": spill_bytes,
                "retired_segments": retired_segments,
            },
        }

    # -- metrics ------------------------------------------------------------

    def _flush_metrics(self) -> None:
        registry = (
            self._registry if self._registry is not None else current_registry()
        )
        delta = self._events - self._flushed_events
        if delta:
            registry.inc("trace.events_ingested", delta, volatile=True)
        registry.gauge_max(
            "trace.frontier_high_water", float(self._high_water), volatile=True
        )
        spill_bytes, retired_segments = self._spilled()
        delta = spill_bytes - self._flushed_bytes
        if delta:
            registry.inc("trace.spill_bytes", delta, volatile=True)
        delta = retired_segments - self._flushed_segments
        if delta:
            registry.inc("trace.retired_segments", delta, volatile=True)
        self._flushed_events = self._events
        self._flushed_bytes = spill_bytes
        self._flushed_segments = retired_segments

    # -- finalization -------------------------------------------------------

    @property
    def stats(self) -> StreamStats:
        """Current ingestion accounting (valid before finalize too)."""
        spill_bytes, retired_segments = self._spilled()
        return StreamStats(
            events_ingested=self._events,
            states_ingested=self._states_n,
            comms_ingested=self._comms_n,
            faults_ingested=self._faults_n,
            distinct_messages=len(self._comms.index),
            frontier_live=self._live,
            frontier_high_water=self._high_water,
            spill_bytes=spill_bytes,
            retired_segments=retired_segments,
        )

    def finalize(self) -> StreamResult:
        """Run the exact analysis over everything ingested.

        Idempotent: the first call computes and caches the result.
        """
        if self._result is not None:
            return self._result
        if self._closed:
            raise TraceError("stream analyzer is closed")
        if self._states_n == 0:
            raise TraceError("cannot analyze an empty trace stream")
        baselines = baselines_from_latencies(self._latencies)
        view = _StreamingView(self)
        classifier = WaitClassifier(view, baselines, CONTENTION_FACTOR)
        buckets: dict[tuple[str, str], list] = {}

        def add(category: str, label: str, seconds: float) -> None:
            bucket = buckets.setdefault((category, label), [0.0, 0])
            bucket[0] += seconds
            bucket[1] += 1

        for event in self._iter_waits():
            message = view.message(event.cause)
            if (
                message is not None
                and message.arrival_time > event.t1 + _EPS
            ):
                raise TraceError(
                    f"wait {event} ends before its cause arrives at "
                    f"{message.arrival_time}"
                )
            for category, seconds in classifier.classify(event).items():
                if seconds > 0.0:
                    add(category, event.label, seconds)

        for kind, spread in collective_instance_spreads(self._instances):
            add("collective-imbalance", kind, spread)

        path = extract_critical_path(view)
        useful = list(self._useful)
        useful.extend([0.0] * (self._num_ranks - len(useful)))
        waits = WaitStateReport(
            entries=wait_entries_from_buckets(buckets),
            efficiencies=EfficiencyReport(
                runtime_seconds=self._end_time,
                useful_seconds=tuple(useful),
            ),
            baseline_latency_s=dict(sorted(baselines.items())),
            contention_factor=CONTENTION_FACTOR,
        )
        self._flush_metrics()
        self._result = StreamResult(
            path=path,
            waits=waits,
            num_ranks=self._num_ranks,
            runtime_seconds=self._end_time,
            stats=self.stats,
        )
        return self._result

    # -- lifecycle ----------------------------------------------------------

    def close(self) -> None:
        """Close the spill log and remove its directory, if it spilled."""
        if self._closed:
            return
        self._closed = True
        if self._log is not None:
            self._log.close()
        if self._dir is not None:
            shutil.rmtree(self._dir, ignore_errors=True)

    def __enter__(self) -> "TraceStreamAnalyzer":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def build_synthetic_trace(
    tracer,
    *,
    num_ranks: int = 36,
    rounds: int = 100,
    seed: int = 7,
) -> int:
    """Drive *tracer* with a fig4-shaped synthetic workload.

    Each round every rank computes, sends to three peers over a
    congestible fabric (8% of messages see an 8× latency tail, the
    incast pathology), and waits for its inbound messages in arrival
    order; message tags carry a collective instance so imbalance
    accounting engages.  Event volume is ~``10 * num_ranks`` per round
    (36 ranks → 360 events/round), so ``rounds`` scales the trace to
    any multiple of the fig4 event count.  Returns the event count.
    """
    if num_ranks < 2:
        raise TraceError(f"synthetic trace needs >= 2 ranks, got {num_ranks}")
    rng = random.Random(f"trace-synthetic:{seed}")
    now = [0.0] * num_ranks
    seq = 0
    events = 0
    for round_index in range(rounds):
        for rank in range(num_ranks):
            dt = 0.01 + 0.002 * rng.random()
            tracer.state(rank, "compute", now[rank], now[rank] + dt,
                         kind="compute")
            now[rank] += dt
            events += 1
        messages: list[CommEvent] = []
        for src in range(num_ranks):
            peers = [
                (src + 1) % num_ranks,
                (src + 7) % num_ranks,
                rng.randrange(num_ranks),
            ]
            for dst in peers:
                if dst == src:
                    dst = (src + 13) % num_ranks
                latency = 0.001 * (1.0 + 0.2 * rng.random())
                if rng.random() < 0.08:
                    latency *= 8.0
                send_time = now[src]
                tracer.state(src, "alltoallv", send_time, send_time + 1e-5,
                             kind="send", cause=seq)
                now[src] = send_time + 1e-5
                events += 1
                message = CommEvent(
                    src=src, dst=dst,
                    tag=("alltoallv", round_index, src),
                    nbytes=64 * 1024,
                    send_time=send_time,
                    arrival_time=send_time + latency,
                    label="alltoallv", seq=seq,
                )
                # Recorded at send time, the way MpiJob does — so an
                # incremental consumer can resolve a wait's cause the
                # moment the wait is ingested.
                tracer.comm(message)
                events += 1
                messages.append(message)
                seq += 1
        inbound: dict[int, list[CommEvent]] = {}
        for message in messages:
            inbound.setdefault(message.dst, []).append(message)
        for dst in range(num_ranks):
            arrivals = sorted(
                inbound.get(dst, ()), key=lambda m: (m.arrival_time, m.seq)
            )
            for message in arrivals:
                t0 = now[dst]
                t1 = max(t0, message.arrival_time)
                tracer.state(dst, "alltoallv", t0, t1, kind="wait",
                             cause=message.seq)
                now[dst] = t1
                events += 1
    return events
