"""Tests for repro.tracing: events, recorder, Paraver export, analysis."""

import pytest

from repro.cluster import MpiJob, tibidabo
from repro.errors import TraceError
from repro.tracing.analysis import analyze_collectives
from repro.tracing.events import CommEvent, StateEvent
from repro.tracing.paraver import export_pcf, export_prv, export_row, parse_prv
from repro.tracing.recorder import TraceRecorder


class TestEvents:
    def test_state_duration(self):
        assert StateEvent(0, "compute", 1.0, 3.5).duration == 2.5

    def test_reversed_state_rejected(self):
        with pytest.raises(TraceError):
            StateEvent(0, "compute", 3.0, 1.0)

    def test_comm_latency(self):
        comm = CommEvent(0, 1, "t", 100, 1.0, 1.25, "send")
        assert comm.latency == 0.25

    def test_time_travelling_message_rejected(self):
        with pytest.raises(TraceError):
            CommEvent(0, 1, "t", 100, 2.0, 1.0, "send")

    def test_collective_instance_extraction(self):
        comm = CommEvent(0, 1, ("alltoallv", 3, 7), 100, 0.0, 1.0, "alltoallv")
        assert comm.collective_instance == ("alltoallv", 3)

    def test_plain_tags_have_no_instance(self):
        comm = CommEvent(0, 1, 42, 100, 0.0, 1.0, "send")
        assert comm.collective_instance is None


def _traced_job(num_ranks=8, nodes=8, seed=1):
    cluster = tibidabo(num_nodes=nodes, seed=seed)
    recorder = TraceRecorder()

    def program(rank):
        yield rank.compute(0.01, label="work")
        yield from rank.alltoallv([5000] * rank.size)
        yield rank.compute(0.005, label="work")
        yield from rank.barrier()

    MpiJob(cluster, num_ranks, program, tracer=recorder).run()
    return recorder


class TestRecorder:
    def test_records_states_and_comms(self):
        recorder = _traced_job()
        assert recorder.num_ranks == 8
        assert recorder.states
        assert recorder.comms
        recorder.check_sanity()

    def test_time_in_state(self):
        recorder = _traced_job()
        assert recorder.time_in_state(0, "work") == pytest.approx(0.015, rel=0.01)

    def test_states_of_filters(self):
        recorder = _traced_job()
        labels = {s.label for s in recorder.states_of(0)}
        assert "work" in labels
        assert all(s.rank == 0 for s in recorder.states_of(0))

    def test_comms_labelled(self):
        recorder = _traced_job()
        a2a = recorder.comms_labelled("alltoallv")
        assert len(a2a) == 8 * 7  # one message per ordered pair

    def test_end_time_is_max_timestamp(self):
        recorder = _traced_job()
        assert recorder.end_time >= max(s.t1 for s in recorder.states)

    def test_replay_reproduces_every_record_in_order(self):
        recorder = _traced_job()
        recorder.fault("crash", 0.002, "node3", ranks=[3])
        copy = TraceRecorder()
        recorder.replay(copy)
        assert copy.states == recorder.states
        assert copy.comms == recorder.comms
        assert copy.faults == recorder.faults


class TestParaver:
    def test_export_has_header_and_records(self):
        recorder = _traced_job()
        text = export_prv(recorder)
        lines = text.splitlines()
        assert lines[0].startswith("#Paraver")
        assert any(line.startswith("1:") for line in lines)
        assert any(line.startswith("3:") for line in lines)

    def test_empty_trace_rejected(self):
        with pytest.raises(TraceError):
            export_prv(TraceRecorder())

    def test_roundtrip_preserves_counts_and_labels(self):
        recorder = _traced_job()
        back = parse_prv(export_prv(recorder))
        assert len(back.states) == len(recorder.states)
        assert len(back.comms) == len(recorder.comms)
        assert {s.label for s in back.states} == {s.label for s in recorder.states}

    def test_roundtrip_preserves_timestamps_to_ns(self):
        recorder = _traced_job()
        back = parse_prv(export_prv(recorder))
        for original, parsed in zip(recorder.states[:20], back.states[:20]):
            assert parsed.t0 == pytest.approx(original.t0, abs=2e-9)
            assert parsed.rank == original.rank

    def test_missing_header_rejected(self):
        with pytest.raises(TraceError):
            parse_prv("1:1:1:1:1:0:10:1\n")

    def test_malformed_line_reports_line_number(self):
        recorder = _traced_job()
        text = export_prv(recorder) + "1:bogus\n"
        with pytest.raises(TraceError, match="malformed"):
            parse_prv(text)

    def test_unsupported_record_type_rejected(self):
        with pytest.raises(TraceError):
            parse_prv("#Paraver x\n9:1:2:3\n")

    def test_pcf_lists_all_state_labels(self):
        recorder = _traced_job()
        pcf = export_pcf(recorder)
        assert "STATES" in pcf and "STATES_COLOR" in pcf
        for label in {s.label for s in recorder.states}:
            assert label in pcf

    def test_pcf_state_table_matches_prv_labels(self):
        """The .pcf STATES section and the .prv round-trip must agree
        on the set of state labels."""
        recorder = _traced_job()
        pcf = export_pcf(recorder)
        states_section = pcf.split("STATES\n", 1)[1].split("STATES_COLOR", 1)[0]
        pcf_labels = {
            line.split(None, 1)[1]
            for line in states_section.splitlines()
            if line and line.split(None, 1)[0].isdigit()
        }
        back = parse_prv(export_prv(recorder))
        assert {s.label for s in back.states} | {"Idle"} == pcf_labels | {"Idle"}

    def test_row_names_every_rank(self):
        recorder = _traced_job()
        row = export_row(recorder)
        assert f"LEVEL THREAD SIZE {recorder.num_ranks}" in row
        assert "rank 0" in row and f"rank {recorder.num_ranks - 1}" in row

    def test_companion_files_need_content(self):
        with pytest.raises(TraceError):
            export_pcf(TraceRecorder())
        with pytest.raises(TraceError):
            export_row(TraceRecorder())


class TestAnalysis:
    def test_instances_grouped_per_invocation(self):
        cluster = tibidabo(num_nodes=8, seed=1)
        recorder = TraceRecorder()

        def program(rank):
            for _ in range(3):
                yield rank.compute(0.001)
                yield from rank.alltoallv([2000] * rank.size)

        MpiJob(cluster, 8, program, tracer=recorder).run()
        report = analyze_collectives(recorder, "alltoallv")
        assert len(report.instances) == 3
        assert all(i.messages == 8 * 7 for i in report.instances)

    def test_no_collectives_rejected(self):
        recorder = _traced_job()
        with pytest.raises(TraceError):
            analyze_collectives(recorder, "bcast")

    def test_invalid_factor_rejected(self):
        recorder = _traced_job()
        with pytest.raises(TraceError):
            analyze_collectives(recorder, "alltoallv", delay_factor=1.0)

    def test_uncongested_job_has_no_delays(self):
        cluster = tibidabo(num_nodes=8, seed=1, upgraded_switches=True)
        recorder = TraceRecorder()

        def program(rank):
            for _ in range(4):
                yield rank.compute(0.01)
                yield from rank.alltoallv([2000] * rank.size)

        MpiJob(cluster, 8, program, tracer=recorder).run()
        report = analyze_collectives(recorder, "alltoallv", delay_factor=5.0)
        assert report.delayed_fraction < 0.3

    def test_congested_36_core_run_is_mostly_delayed(self):
        """The Figure 4 observation: 'when using 36 cores most of these
        collective communications are longer and delayed'."""
        from repro.apps import BigDFT
        cluster = tibidabo(num_nodes=18, seed=7)
        recorder = TraceRecorder()
        app = BigDFT()
        MpiJob(cluster, 36, app.rank_program(cluster, 36), tracer=recorder).run()
        report = analyze_collectives(recorder, "alltoallv")
        assert report.delayed_fraction > 0.5
        # Mixed impact: some instances hit all ranks, others only part.
        partial = [i for i in report.delayed if not i.all_ranks_delayed]
        assert partial
