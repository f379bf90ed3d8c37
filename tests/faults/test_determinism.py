"""Seed-determinism regression tests (the RNG audit's enforcement).

Every stochastic draw in the stack flows from an explicitly seeded
``random.Random``; nothing reads the module-global RNG or the clock.
These tests pin that property end to end: two same-seed runs must
produce *byte-identical* traces and resilience reports.
"""

from repro.cluster import MpiJob, tibidabo
from repro.faults import (
    FaultInjector,
    FaultPlan,
    ResilienceConfig,
    named_plan,
    run_with_checkpoints,
)
from repro.faults.checkpoint import CheckpointConfig
from repro.tracing import TraceRecorder, resilience_summary


def _program(rank):
    for _ in range(4):
        yield rank.compute(0.05)
        yield from rank.alltoallv([40_000] * rank.size)


def _traced_run(seed):
    cluster = tibidabo(num_nodes=8, seed=seed)
    plan = named_plan("montblanc", num_nodes=8, horizon_s=2.0, seed=seed)
    recorder = TraceRecorder()
    injector = FaultInjector(plan, resilience=ResilienceConfig(on_failure="shrink"))
    job = MpiJob(cluster, 16, _program, tracer=recorder, injector=injector)
    result = job.run()
    return recorder, result


def _trace_bytes(recorder):
    return "\n".join([
        *map(repr, recorder.states),
        *map(repr, recorder.comms),
        *map(repr, recorder.faults),
    ]).encode()


class TestSameSeedIdentical:
    def test_traces_are_byte_identical(self):
        first_rec, first_res = _traced_run(seed=5)
        second_rec, second_res = _traced_run(seed=5)
        assert _trace_bytes(first_rec) == _trace_bytes(second_rec)
        assert repr(first_res) == repr(second_res)

    def test_resilience_reports_identical(self):
        first_rec, _ = _traced_run(seed=5)
        second_rec, _ = _traced_run(seed=5)
        assert resilience_summary(first_rec) == resilience_summary(second_rec)
        assert (
            resilience_summary(first_rec).format()
            == resilience_summary(second_rec).format()
        )

    def test_different_seeds_differ(self):
        first_rec, _ = _traced_run(seed=5)
        other_rec, _ = _traced_run(seed=6)
        assert _trace_bytes(first_rec) != _trace_bytes(other_rec)

    def test_fault_plan_timestamps_identical(self):
        first = named_plan("montblanc", num_nodes=16, horizon_s=50.0, seed=9)
        second = named_plan("montblanc", num_nodes=16, horizon_s=50.0, seed=9)
        assert [e.time_s for e in first] == [e.time_s for e in second]
        assert first.events == second.events

    def test_checkpoint_results_identical(self):
        def run():
            cluster = tibidabo(num_nodes=8, seed=2)
            plan = named_plan("crashy", num_nodes=8, horizon_s=30.0, seed=2)
            clean = MpiJob(cluster, 8, _long_program).run().elapsed_seconds
            return run_with_checkpoints(
                cluster, 8, _long_program, plan, clean_elapsed_s=clean,
                checkpoint=CheckpointConfig(interval_s=5.0, write_cost_s=0.5),
            )

        def _long_program(rank):
            for _ in range(20):
                yield rank.compute(1.0)
                yield from rank.allreduce(64_000)

        assert repr(run()) == repr(run())
