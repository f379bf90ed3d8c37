"""The trace store: bounded memory, exactness, failure modes.

The load-bearing claim is *byte identity*: for the same trace, the
analysis — whatever its frontier limit, however much it spilled —
produces the same :class:`RunReport` JSON as with no limit, which is
what ``trace-report`` runs without ``--stream``.  Everything else
(spill framing, eviction accounting, live summaries) supports that.
"""

import tempfile
from types import SimpleNamespace

import pytest

from repro.errors import TraceError
from repro.metrics.export import registry_to_dict
from repro.metrics.registry import MetricsRegistry
from repro.obs import build_run_report
from repro.tracing import TraceRecorder, stream
from repro.tracing.stream import (
    SpillLog,
    StreamConfig,
    TraceStreamAnalyzer,
    build_synthetic_trace,
    encode_frame,
)


def _tee(config=None, *, num_ranks=6, rounds=30, seed=11, registry=None):
    """Feed one seeded synthetic trace to a recorder and to the analyzer.

    The trace is a pure function of its seed, so the two runs see the
    same events in the same order.
    """
    recorder = TraceRecorder()
    analyzer = TraceStreamAnalyzer(config, registry=registry)
    for tracer in (recorder, analyzer):
        build_synthetic_trace(
            tracer, num_ranks=num_ranks, rounds=rounds, seed=seed
        )
    return recorder, analyzer


def _stream_only(config=None, **kwargs):
    analyzer = TraceStreamAnalyzer(config)
    build_synthetic_trace(analyzer, **kwargs)
    return analyzer


class TestByteIdentity:
    def test_stream_equals_batch_under_aggressive_eviction(self):
        """The streamed run against the recorded one replayed with no
        frontier limit: ``trace-report --stream`` against
        ``trace-report --chrome-out``."""
        config = StreamConfig(frontier_limit=64, segment_events=16)
        recorder, analyzer = _tee(config)
        with analyzer:
            result = analyzer.finalize()
            streamed = build_run_report(result, scenario="tee")
        with TraceStreamAnalyzer(StreamConfig(frontier_limit=None)) as batch:
            recorder.replay(batch)
            batch_report = build_run_report(batch.finalize(), scenario="tee")
        assert streamed.to_json() == batch_report.to_json()
        # The equality must have been earned: this run really spilled.
        assert result.stats.retired_segments > 0
        assert result.stats.spill_bytes > 0
        assert result.stats.frontier_high_water < result.stats.events_ingested

    def test_frontier_limit_never_changes_the_answer(self):
        documents = set()
        for limit in (1, 17, 256, None):
            with _stream_only(
                StreamConfig(frontier_limit=limit, segment_events=8)
            ) as analyzer:
                result = analyzer.finalize()
                documents.add(build_run_report(result, scenario="x").to_json())
        assert len(documents) == 1

    def test_high_water_respects_the_limit(self):
        config = StreamConfig(frontier_limit=64, segment_events=16)
        with _stream_only(config) as analyzer:
            stats = analyzer.finalize().stats
        # Eviction runs after each ingest, so the high-water mark can
        # overshoot by at most one segment of not-yet-flushed waits.
        assert stats.frontier_high_water <= 64 + config.segment_events
        assert stats.frontier_live <= stats.frontier_high_water

    def test_finalize_is_idempotent(self):
        with _stream_only(StreamConfig(frontier_limit=32)) as analyzer:
            assert analyzer.finalize() is analyzer.finalize()


class TestSeqIndex:
    def test_lookup_finds_each_recorded_message(self):
        recorder, analyzer = _tee(
            StreamConfig(frontier_limit=64, segment_events=16)
        )
        with analyzer:
            comms = analyzer._comms
            found = {seq: comms.lookup(seq) for seq in comms.index}
        assert found == {c.seq: c for c in recorder.comms}

    def test_spilled_messages_leave_only_their_segment_number(self):
        """The index keeps no spilled row alive: a stamp maps to its
        row while the row is in memory, else to the row's segment."""
        config = StreamConfig(frontier_limit=64, segment_events=16)
        with _stream_only(config) as analyzer:
            comms = analyzer._comms
            in_memory = {id(row) for row in comms.rows + comms.stragglers}
            where = list(comms.index.values())
            spilled = [w for w in where if type(w) is int]
            assert spilled
            assert all(0 <= w < len(comms.segments) for w in spilled)
            assert all(type(w) is int or id(w) in in_memory for w in where)
            assert analyzer.stats.distinct_messages == len(where)


class TestLifecycle:
    def test_empty_stream_is_rejected(self):
        with TraceStreamAnalyzer() as analyzer:
            with pytest.raises(TraceError, match="empty trace stream"):
                analyzer.finalize()

    def test_finalize_after_close_is_rejected(self):
        analyzer = _stream_only(rounds=2)
        analyzer.close()
        with pytest.raises(TraceError, match="closed"):
            analyzer.finalize()

    def test_ingest_after_close_is_rejected(self):
        analyzer = TraceStreamAnalyzer()
        analyzer.close()
        with pytest.raises(TraceError, match="closed"):
            analyzer.state(0, "compute", 0.0, 1.0)

    def test_close_drops_the_owned_spill_dir(self):
        analyzer = _stream_only(
            StreamConfig(frontier_limit=8, segment_events=4), rounds=10
        )
        spill_dir = analyzer._dir
        assert spill_dir.exists()
        analyzer.close()
        assert not spill_dir.exists()

    def test_concurrent_analyzers_keep_separate_spill_logs(self):
        config = StreamConfig(frontier_limit=8, segment_events=4)
        first = _stream_only(config, rounds=10)
        second = _stream_only(config, rounds=10)
        with first, second:
            assert first._dir != second._dir
            assert first.finalize().waits == second.finalize().waits

    def test_no_frontier_limit_never_touches_disk(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with _stream_only(
            StreamConfig(frontier_limit=None), num_ranks=12, rounds=40
        ) as analyzer:
            # 12 ranks x 3 messages x 40 rounds: 1,440 receive waits,
            # more than one segment_events frame, all still in memory.
            assert len(analyzer._wait_tail) == 1440
            assert analyzer.stats.spill_bytes == 0
            assert analyzer.stats.retired_segments == 0
            assert not list(tmp_path.glob("trace-stream-*"))
            assert analyzer.finalize().stats.spill_bytes == 0
            assert not list(tmp_path.glob("trace-stream-*"))


STATE_ROWS = [
    (1.0, 0.0, 0, "compute", "compute", -1),
    (2.5, 1.0, 1, "alltoallv", "wait", 4),
]


class Stamp(int):
    pass


class TestSpillLog:
    def test_round_trip(self, tmp_path):
        log = SpillLog(tmp_path / "s.spill")
        offset, length = log.append("states", 3, STATE_ROWS)
        assert log.read(offset, length, kind="states", rank=3) == STATE_ROWS
        assert log.bytes_written == length
        assert log.segments_written == 1
        log.close()

    def test_corruption_is_a_trace_error(self, tmp_path):
        log = SpillLog(tmp_path / "s.spill")
        offset, length = log.append("states", 0, STATE_ROWS)
        log._file.seek(offset + length - 3)
        log._file.write(b"X")
        log._file.flush()
        with pytest.raises(TraceError, match="corrupt: its sha256"):
            log.read(offset, length, kind="states", rank=0)
        log.close()

    def test_misaddressed_read_is_a_trace_error(self, tmp_path):
        log = SpillLog(tmp_path / "s.spill")
        offset, length = log.append("states", 0, [])
        with pytest.raises(TraceError, match="misaddressed"):
            log.read(offset, length, kind="states", rank=7)
        with pytest.raises(TraceError, match="misaddressed"):
            log.read(offset, length, kind="waits", rank=0)
        with pytest.raises(TraceError, match="misaddressed: none was"):
            log.read(offset + 1, length - 1, kind="states", rank=0)
        log.close()

    def test_truncated_frame_is_a_trace_error(self, tmp_path):
        log = SpillLog(tmp_path / "s.spill")
        offset, length = log.append("states", 0, STATE_ROWS)
        with pytest.raises(TraceError, match="corrupt"):
            log.read(offset, length - 5, kind="states", rank=0)
        log._file.truncate(offset + length - 5)
        with pytest.raises(TraceError, match="truncated: read"):
            log.read(offset, length, kind="states", rank=0)
        log.close()

    def test_rewritten_frame_is_refused_before_decoding(
        self, tmp_path, monkeypatch
    ):
        """A frame swapped on disk for another well-formed one — new
        body, matching embedded sha256 — is not this process's frame,
        so its bytes never reach ``marshal.loads``."""
        log = SpillLog(tmp_path / "s.spill")
        offset, length = log.append("states", 0, STATE_ROWS)
        forged = encode_frame(
            "states", 0, [STATE_ROWS[0], STATE_ROWS[1][:-1] + (5,)]
        )
        assert len(forged) == length
        log._file.seek(offset)
        log._file.write(forged)
        log._file.flush()

        def refuse(data):
            raise AssertionError("a rewritten frame reached marshal.loads")

        monkeypatch.setattr(stream, "marshal", SimpleNamespace(loads=refuse))
        with pytest.raises(TraceError, match="rewritten: its sha256"):
            log.read(offset, length, kind="states", rank=0)
        log.close()

    def test_malformed_segments_are_refused_at_write(self, tmp_path):
        log = SpillLog(tmp_path / "s.spill")
        with pytest.raises(TraceError, match="cannot frame"):
            log.append("states", 2**63, STATE_ROWS)
        assert log.segments_written == 0
        log.close()

    def test_subclassed_value_is_refused_at_write(self):
        # A subclass would come back as its base type: refuse, never
        # coerce.
        with pytest.raises(TraceError, match="cannot spill comms"):
            encode_frame(
                "comms", -1,
                [(0, 0, 1, 2, ("alltoallv", Stamp(3)), 8, 0.0, 1.0, "p2p")],
            )

    def test_foreign_object_is_refused_at_write(self):
        with pytest.raises(TraceError, match="exact built-in types"):
            encode_frame(
                "comms", -1,
                [(0, 0, 1, 2, object(), 8, 0.0, 1.0, "p2p")],
            )


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"frontier_limit": 0}, "frontier_limit"),
            ({"segment_events": 0}, "segment_events"),
        ],
    )
    def test_bad_knobs_are_rejected(self, kwargs, match):
        with pytest.raises(TraceError, match=match):
            StreamConfig(**kwargs)


class TestMetrics:
    def test_trace_metrics_flow_and_stay_volatile(self):
        registry = MetricsRegistry()
        config = StreamConfig(frontier_limit=64, segment_events=16)
        recorder, analyzer = _tee(config, registry=registry)
        with analyzer:
            result = analyzer.finalize()
        stats = result.stats
        assert registry.counter("trace.events_ingested").value == (
            stats.events_ingested
        )
        assert registry.counter("trace.spill_bytes").value == stats.spill_bytes
        assert registry.counter("trace.retired_segments").value == (
            stats.retired_segments
        )
        assert registry.gauge("trace.frontier_high_water").value == (
            stats.frontier_high_water
        )
        # Volatile: present in the observability export, absent from
        # the deterministic one — so streaming never perturbs goldens.
        live = registry_to_dict(registry, deterministic=False)
        frozen = registry_to_dict(registry, deterministic=True)
        assert "trace.events_ingested" in live["counters"]
        assert not any(k.startswith("trace.") for k in frozen["counters"])
        assert not any(k.startswith("trace.") for k in frozen["gauges"])


class TestLiveSummaries:
    def test_on_summary_fires_with_monotone_progress(self):
        summaries = []
        config = StreamConfig(
            frontier_limit=64,
            segment_events=16,
            on_summary=summaries.append,
        )
        # ~60 events a round: four summaries, one every 2,048 events.
        with _stream_only(config, rounds=140) as analyzer:
            final = analyzer.live_summary()
            analyzer.finalize()
        assert len(summaries) >= 3
        counts = [s["events_ingested"] for s in summaries]
        assert counts == sorted(counts)
        assert all(s["provisional"] for s in summaries)
        for summary in summaries:
            assert summary["frontier"]["high_water"] >= summary["frontier"]["live"]
            for entry in summary["top_wait_states"]:
                assert entry["seconds"] > 0.0
                assert entry["occurrences"] >= 1
        assert final["events_ingested"] >= counts[-1]

    def test_summaries_are_provisional_not_authoritative(self):
        """The live classification converges toward — but is allowed to
        differ from — the exact finalized analysis."""
        config = StreamConfig(on_summary=lambda s: None)
        with _stream_only(config, rounds=40) as analyzer:
            live = analyzer.live_summary()
            result = analyzer.finalize()
        live_total = sum(e["seconds"] for e in live["top_wait_states"])
        exact_total = sum(e.seconds for e in result.waits.entries)
        assert live_total > 0.0
        assert exact_total > 0.0


class TestStreamingValidation:
    def test_wait_ending_before_arrival_is_rejected(self):
        """A wait cannot end before its cause arrives: checked at
        finalize, once every message is in."""

        class _Msg:
            src, dst, tag, nbytes, seq = 0, 1, "t", 8, 0
            send_time, arrival_time, label = 0.0, 5.0, "p2p"

        analyzer = TraceStreamAnalyzer()
        analyzer.state(0, "compute", 0.0, 1.0)
        analyzer.state(1, "p2p", 1.0, 2.0, kind="wait", cause=0)
        analyzer.comm(_Msg())
        with analyzer:
            with pytest.raises(TraceError, match="before its cause arrives"):
                analyzer.finalize()
