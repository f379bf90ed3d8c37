"""Tests for the happens-before structure the trace store keeps
(program order + stamped message edges) and critical-path extraction."""

import math

import pytest

from repro.cluster import MpiJob, tibidabo
from repro.errors import TraceError
from repro.tracing.attribution import (
    PATH_CATEGORIES,
    CriticalPath,
    PathSegment,
)
from repro.tracing.recorder import TraceRecorder
from repro.tracing.stream import StreamConfig, TraceStreamAnalyzer


class _Msg:
    """Minimal message stand-in for recorder.comm()."""

    def __init__(self, src, dst, send_time, arrival_time, label, seq, tag="t"):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = 1000
        self.send_time = send_time
        self.arrival_time = arrival_time
        self.label = label
        self.seq = seq


def _late_sender_trace():
    """Rank 0 computes long, then sends; rank 1 blocks waiting for it."""
    rec = TraceRecorder()
    rec.state(0, "work", 0.0, 5.0, kind="compute")
    rec.state(0, "send", 5.0, 5.1, kind="send", cause=1)
    rec.comm(_Msg(0, 1, 5.0, 5.2, "p2p", seq=1))
    rec.state(1, "work", 0.0, 1.0, kind="compute")
    rec.state(1, "recv", 1.0, 5.2, kind="wait", cause=1)
    rec.state(1, "work", 5.2, 6.0, kind="compute")
    return rec


def _analyze(recorder):
    """*recorder*'s events replayed into an analyzer that never evicts
    (what ``trace-report --chrome-out`` runs), finalized."""
    with TraceStreamAnalyzer(StreamConfig(frontier_limit=None)) as analyzer:
        recorder.replay(analyzer)
        return analyzer.finalize()


def _path(recorder):
    return _analyze(recorder).path


class TestHappensBeforeGraph:
    def test_counts_and_end(self):
        result = _analyze(_late_sender_trace())
        # 5 state intervals (the nodes) and one stamped message edge.
        assert result.stats.states_ingested == 5
        assert result.stats.distinct_messages == 1
        assert result.runtime_seconds == pytest.approx(6.0)
        # The walk starts from the rank that ends the job.
        assert result.path.segments[-1].rank == 1

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            _analyze(TraceRecorder())

    def test_validate_passes_on_consistent_trace(self):
        _analyze(_late_sender_trace())

    def test_validate_rejects_wait_ending_before_arrival(self):
        rec = TraceRecorder()
        rec.state(0, "send", 0.0, 0.1, kind="send", cause=1)
        rec.comm(_Msg(0, 1, 0.0, 9.0, "p2p", seq=1))
        rec.state(1, "recv", 0.0, 1.0, kind="wait", cause=1)
        with pytest.raises(TraceError, match="before its cause arrives"):
            _analyze(rec)


class TestCriticalPath:
    def test_late_sender_hop(self):
        path = _path(_late_sender_trace())
        # The path must hop from rank 1's wait to rank 0's compute at
        # the injection time — never charge rank 1's pre-send blocking.
        assert path.rank_changes == 1
        assert [s.rank for s in path.segments] == [0, 1, 1]
        assert path.breakdown["compute"] == pytest.approx(5.8)
        assert path.breakdown["wait"] == pytest.approx(0.2)
        assert path.breakdown["idle"] == pytest.approx(0.0)
        assert path.dominant_wait_label() == "recv"

    def test_segments_tile_the_runtime(self):
        path = _path(_late_sender_trace())
        covered = math.fsum(s.duration for s in path.segments)
        assert covered == pytest.approx(path.total_seconds)
        path.check_coverage()

    def test_trace_gap_becomes_idle(self):
        rec = TraceRecorder()
        rec.state(0, "work", 0.0, 1.0, kind="compute")
        rec.state(0, "work", 2.0, 3.0, kind="compute")
        path = _path(rec)
        assert path.breakdown["idle"] == pytest.approx(1.0)
        assert path.breakdown["compute"] == pytest.approx(2.0)

    def test_retry_states_become_rework(self):
        rec = TraceRecorder()
        rec.state(0, "work", 0.0, 1.0, kind="compute")
        rec.state(0, "retry", 1.0, 1.5, kind="retry")
        rec.state(0, "work", 1.5, 2.0, kind="compute")
        path = _path(rec)
        assert path.breakdown["rework"] == pytest.approx(0.5)

    def test_by_label_sorted_largest_first(self):
        path = _path(_late_sender_trace())
        seconds = list(path.by_label.values())
        assert seconds == sorted(seconds, reverse=True)

    def test_check_coverage_rejects_overlap(self):
        bad = CriticalPath(
            segments=(
                PathSegment(3, 0.0, 2.0, "compute", "fft"),
                PathSegment(5, 1.0, 2.0, "compute", "conv"),
            ),
            total_seconds=3.0,
        )
        with pytest.raises(TraceError) as err:
            bad.check_coverage()
        # The message names both offenders: rank, category, label and
        # the exact time windows — enough to find them in the trace.
        message = str(err.value)
        assert "overlap" in message
        assert "'fft' on rank 3" in message
        assert "'conv' on rank 5" in message
        assert "[0.000000000, 2.000000000]" in message

    def test_check_coverage_rejects_shortfall(self):
        bad = CriticalPath(
            segments=(PathSegment(2, 0.0, 1.0, "compute", "fft"),),
            total_seconds=5.0,
        )
        with pytest.raises(TraceError) as err:
            bad.check_coverage()
        # The message localizes the largest hole next to a named
        # segment, not just "coverage mismatch".
        message = str(err.value)
        assert "covers 1.000000000s of 5.000000000s" in message
        assert "[1.000000000, 5.000000000] after the last segment" in message
        assert "'fft' on rank 2" in message

    def test_check_coverage_names_interior_gap(self):
        bad = CriticalPath(
            segments=(
                PathSegment(0, 0.0, 1.0, "compute", "fft"),
                PathSegment(4, 3.0, 4.0, "mpi-wait", "alltoallv"),
            ),
            total_seconds=4.0,
        )
        with pytest.raises(TraceError) as err:
            bad.check_coverage()
        message = str(err.value)
        assert "[1.000000000, 3.000000000] between" in message
        assert "compute segment 'fft' on rank 0" in message
        assert "mpi-wait segment 'alltoallv' on rank 4" in message


class TestOnRealJob:
    @pytest.fixture(scope="class")
    def recorder(self):
        cluster = tibidabo(num_nodes=8, seed=1)
        rec = TraceRecorder()

        def program(rank):
            yield rank.compute(0.01, label="work")
            yield from rank.alltoallv([5000] * rank.size)
            yield rank.compute(0.005, label="work")
            yield from rank.barrier()

        MpiJob(cluster, 8, program, tracer=rec).run()
        return rec

    def test_walk_converges_and_tiles(self, recorder):
        path = _path(recorder)
        path.check_coverage()
        assert path.total_seconds == pytest.approx(
            max(s.t1 for s in recorder.states)
        )

    def test_categories_are_known(self, recorder):
        path = _path(recorder)
        assert {s.category for s in path.segments} <= set(PATH_CATEGORIES)

    def test_collective_wait_lands_on_path(self, recorder):
        # Over half the 8-rank job is the alltoallv exchange; some of
        # it must be on the path as wait time.
        path = _path(recorder)
        assert path.breakdown["wait"] > 0.0
        assert path.dominant_wait_label() == "alltoallv"

    def test_deterministic(self, recorder):
        first = _path(recorder)
        second = _path(recorder)
        assert first.segments == second.segments
