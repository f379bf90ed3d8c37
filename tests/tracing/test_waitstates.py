"""Tests for Scalasca-style wait-state classification and POP metrics."""

import pytest

from repro.cluster import MpiJob, tibidabo
from repro.errors import TraceError
from repro.tracing.recorder import TraceRecorder
from repro.tracing.stream import StreamConfig, TraceStreamAnalyzer
from repro.tracing.waitstates import (
    BENIGN_CATEGORIES,
    WAIT_CATEGORIES,
    EfficiencyReport,
)


class _Msg:
    def __init__(self, src, dst, send_time, arrival_time, label, seq, tag="t"):
        self.src = src
        self.dst = dst
        self.tag = tag
        self.nbytes = 1000
        self.send_time = send_time
        self.arrival_time = arrival_time
        self.label = label
        self.seq = seq


def _analyze(recorder):
    """*recorder*'s events replayed into an analyzer that never evicts
    (what ``trace-report --chrome-out`` runs), finalized."""
    with TraceStreamAnalyzer(StreamConfig(frontier_limit=None)) as analyzer:
        recorder.replay(analyzer)
        return analyzer.finalize()


def _waits(recorder):
    return _analyze(recorder).waits


def _clean_peers(rec, label="p2p", n=4, latency=0.1, seq0=100):
    """Add n clean messages so the label's baseline is `latency`."""
    for i in range(n):
        rec.comm(_Msg(2, 3, 10.0 + i, 10.0 + i + latency, label, seq=seq0 + i))


class TestClassification:
    def test_genuine_late_sender(self):
        # The sender computes right up to the send: its lateness bottoms
        # out in intrinsic work, so the wait is charged as late-sender.
        rec = TraceRecorder()
        rec.state(0, "work", 0.0, 5.0, kind="compute")
        rec.comm(_Msg(0, 1, 5.0, 5.1, "p2p", seq=1))
        rec.state(1, "recv", 0.0, 5.1, kind="wait", cause=1)
        _clean_peers(rec)
        report = _waits(rec)
        assert report.seconds("late-sender", "recv") == pytest.approx(5.0)
        assert report.seconds("transfer", "recv") == pytest.approx(0.1)
        assert report.dominant.category == "late-sender"

    def test_congested_message_is_switch_contention(self):
        rec = TraceRecorder()
        # Baseline latency 0.1s; the watched message takes 2.1s.
        _clean_peers(rec, n=5, latency=0.1)
        rec.comm(_Msg(0, 1, 0.0, 2.1, "p2p", seq=1))
        rec.state(1, "recv", 0.0, 2.1, kind="wait", cause=1)
        report = _waits(rec)
        assert report.seconds("switch-contention", "recv") == pytest.approx(
            2.0, rel=0.01
        )
        assert report.seconds("transfer", "recv") == pytest.approx(0.1, rel=0.01)
        assert report.dominant.category == "switch-contention"

    def test_clean_in_flight_is_transfer_only(self):
        rec = TraceRecorder()
        _clean_peers(rec, n=5, latency=0.1)
        rec.comm(_Msg(0, 1, 0.0, 0.1, "p2p", seq=1))
        rec.state(1, "recv", 0.0, 0.1, kind="wait", cause=1)
        report = _waits(rec)
        assert report.seconds("switch-contention") == 0.0
        assert report.seconds("transfer", "recv") == pytest.approx(0.1)

    def test_delay_cost_propagates_through_late_sender(self):
        # Rank 1 sends late because *it* was blocked on a congested
        # message from rank 0 — rank 2's wait must be billed to the
        # switch, not to rank 1.
        rec = TraceRecorder()
        _clean_peers(rec, n=5, latency=0.1)
        rec.comm(_Msg(0, 1, 0.0, 3.0, "p2p", seq=1))
        rec.state(1, "recv", 0.0, 3.0, kind="wait", cause=1)
        rec.comm(_Msg(1, 2, 3.0, 3.1, "p2p", seq=2))
        rec.state(1, "send", 3.0, 3.1, kind="send", cause=2)
        rec.state(2, "recv", 0.0, 3.1, kind="wait", cause=2)
        report = _waits(rec)
        # Rank 2 blocked 3.1s: 0.1 in flight (transfer) + 3.0 pre-send,
        # of which ~2.9 traces to the congested hop and ~0.1 to its
        # baseline transfer.  Nothing is genuine late-sender.
        assert report.seconds("late-sender") == pytest.approx(0.0, abs=1e-9)
        assert report.seconds("switch-contention", "recv") > 2.5
        assert report.dominant.category == "switch-contention"

    def test_buffered_messages_are_late_receiver_and_benign(self):
        rec = TraceRecorder()
        _clean_peers(rec, n=5, latency=0.1)
        rec.comm(_Msg(0, 1, 0.0, 0.1, "p2p", seq=1))
        # Receive posted 4s after arrival: mailbox hit, zero-length wait.
        rec.state(1, "recv", 4.1, 4.1, kind="wait", cause=1)
        report = _waits(rec)
        assert report.seconds("late-receiver", "recv") == pytest.approx(4.0)
        assert report.dominant is None  # benign categories never dominate
        assert report.blocked_seconds == pytest.approx(0.0)
        assert report.total_wait_seconds == pytest.approx(4.0)

    def test_collective_imbalance_counts_introduced_skew_once(self):
        rec = TraceRecorder()
        # Instance 0: rank 1 enters 2s after rank 0 (introduced skew).
        rec.comm(_Msg(0, 1, 0.0, 0.1, "x", seq=1, tag=("alltoallv", 0, 0)))
        rec.comm(_Msg(1, 0, 2.0, 2.1, "x", seq=2, tag=("alltoallv", 0, 1)))
        # Instance 1: both enter 1s after their instance-0 exits — the
        # same 2s skew is inherited, not new.
        rec.comm(_Msg(0, 1, 3.1, 3.2, "x", seq=3, tag=("alltoallv", 1, 0)))
        rec.comm(_Msg(1, 0, 1.1, 1.2, "x", seq=4, tag=("alltoallv", 1, 1)))
        rec.state(0, "work", 0.0, 3.2, kind="compute")
        report = _waits(rec)
        assert report.seconds("collective-imbalance", "alltoallv") == pytest.approx(
            2.0
        )

    def test_unstamped_traces_classify_nothing(self):
        rec = TraceRecorder()
        rec.state(0, "recv", 0.0, 1.0, kind="wait", cause=-1)
        rec.comm(_Msg(0, 1, 0.0, 0.1, "p2p", seq=-1))
        report = _waits(rec)
        assert report.total_wait_seconds == 0.0
        assert report.dominant is None

    def test_rejects_empty_trace(self):
        with pytest.raises(TraceError):
            _waits(TraceRecorder())

    def test_categories_are_known(self):
        rec = TraceRecorder()
        _clean_peers(rec, n=5, latency=0.1)
        rec.comm(_Msg(0, 1, 0.0, 3.0, "p2p", seq=1))
        rec.state(1, "recv", 0.0, 3.0, kind="wait", cause=1)
        report = _waits(rec)
        assert {e.category for e in report.entries} <= set(WAIT_CATEGORIES)
        assert BENIGN_CATEGORIES <= set(WAIT_CATEGORIES)


class TestEfficiencies:
    def test_pop_identity(self):
        report = EfficiencyReport(
            runtime_seconds=10.0, useful_seconds=(8.0, 6.0, 4.0)
        )
        assert report.parallel_efficiency == pytest.approx(
            report.load_balance * report.communication_efficiency
        )
        assert report.load_balance == pytest.approx(6.0 / 8.0)
        assert report.communication_efficiency == pytest.approx(0.8)

    def test_degenerate_trace(self):
        report = EfficiencyReport(runtime_seconds=0.0, useful_seconds=(0.0,))
        assert report.load_balance == 1.0
        assert report.parallel_efficiency == 1.0

    def test_from_recorder(self):
        rec = TraceRecorder()
        rec.state(0, "work", 0.0, 4.0, kind="compute")
        rec.state(1, "work", 0.0, 2.0, kind="compute")
        rec.state(1, "recv", 2.0, 4.0, kind="wait")
        report = _analyze(rec).waits.efficiencies
        assert report.useful_seconds == (4.0, 2.0)
        assert report.runtime_seconds == pytest.approx(4.0)
        assert report.load_balance == pytest.approx(0.75)

    def test_rejects_empty_trace(self):
        with pytest.raises(TraceError):
            _analyze(TraceRecorder())


class TestFigure4Signal:
    """The acceptance-critical end-to-end property, at reduced scale."""

    @staticmethod
    def _program(rank):
        for _ in range(4):
            yield rank.compute(0.05, label="scf")
            yield from rank.alltoallv([100_000] * rank.size)

    def _job_waits(self, cluster):
        """Run the job with the analyzer as its tracer, as
        ``trace-report`` does without ``--chrome-out``."""
        with TraceStreamAnalyzer(StreamConfig(frontier_limit=None)) as analyzer:
            MpiJob(cluster, 24, self._program, tracer=analyzer).run()
            return analyzer.finalize().waits

    def test_switch_contention_dominates_congested_alltoallv(self):
        report = self._job_waits(tibidabo(num_nodes=12, seed=1))
        top = report.dominant
        assert top is not None
        assert top.category == "switch-contention"
        assert top.label == "alltoallv"
        assert "switch-contention" in report.explain()

    def test_upgraded_switches_remove_the_pathology(self):
        report = self._job_waits(
            tibidabo(num_nodes=12, seed=1, upgraded_switches=True)
        )
        contention = report.seconds("switch-contention")
        assert contention < 0.1 * max(report.blocked_seconds, 1e-12)
