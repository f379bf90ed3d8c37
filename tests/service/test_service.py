"""JobService behavior: dedup, admission, breakers, deadlines, cancel.

Every test drives the real service object (real worker pool, real
forked attempts) inside ``asyncio.run`` — no HTTP, no mocks of the
execution path.
"""

import asyncio

import pytest

from repro.errors import (
    CircuitOpen,
    InvalidJobRequest,
    JobNotFound,
    ServiceDraining,
    ServiceOverloaded,
)
from repro.service import JobService, ServiceConfig
from repro.service.jobs import JobState


def run(coro):
    return asyncio.run(coro)


def make_service(tmp_path, **overrides):
    defaults = dict(
        cache_root=tmp_path / "cache",
        pool_size=2,
        queue_limit=8,
        breaker_cooldown_s=0.2,
    )
    defaults.update(overrides)
    return JobService(ServiceConfig(**defaults))


def attempt_bytes(state_dir):
    """Total chaos-worker attempts recorded under *state_dir* (one byte
    per attempt; see repro.engine.chaos.bump_attempt)."""
    if not state_dir.exists():
        return 0
    return sum(p.stat().st_size for p in state_dir.iterdir())


class TestHappyPath:
    def test_cold_submission_computes_and_completes(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            try:
                job, deduped = await service.submit("squares", {"x": 7})
                await asyncio.wait_for(job.wait_terminal(), timeout=30)
                return job, deduped
            finally:
                await service.shutdown(drain_s=1.0)

        job, deduped = run(scenario())
        assert not deduped
        assert job.state is JobState.DONE
        assert job.value == {"value": 49}
        assert job.source == "computed"
        assert job.attempts == 1
        assert job.wall_seconds >= 0.0

    def test_repeat_submission_is_warm_from_cache(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            try:
                first, _ = await service.submit("squares", {"x": 6})
                await asyncio.wait_for(first.wait_terminal(), timeout=30)
                second, deduped = await service.submit("squares", {"x": 6})
                return first, second, deduped
            finally:
                await service.shutdown(drain_s=1.0)

        first, second, deduped = run(scenario())
        assert not deduped  # warm, not in-flight: a distinct job record
        assert second.job_id != first.job_id
        assert second.state is JobState.DONE  # done on return, no queueing
        assert second.source == "cache"
        assert second.value == first.value

    def test_batch_cache_entries_serve_the_service_warm(self, tmp_path):
        """A point computed by the batch engine is a warm hit here —
        the two front ends share one content-addressed result space."""
        from repro.engine import ResultCache
        from repro.service import job_content_key, resolve_scenario

        async def scenario():
            material, _, _ = job_content_key(
                resolve_scenario("squares"), {"x": 11}
            )
            cache = ResultCache(tmp_path / "cache")
            cache.put(material, {"value": {"value": 121}, "metrics": None})
            service = make_service(tmp_path)
            await service.start()
            try:
                job, _ = await service.submit("squares", {"x": 11})
                return job
            finally:
                await service.shutdown(drain_s=1.0)

        job = run(scenario())
        assert job.state is JobState.DONE
        assert job.source == "cache"
        assert job.value == {"value": 121}


class TestSingleFlightDedup:
    def test_identical_concurrent_submissions_compute_once(self, tmp_path):
        state_dir = tmp_path / "state"
        params = {
            "x": 4,
            "state_dir": str(state_dir),
            # times=0: the fault never fires, but the attempt counter
            # still ticks — a pure computation odometer.
            "faults": {"4": {"kind": "raise", "times": 0}},
        }

        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            try:
                results = await asyncio.gather(*[
                    service.submit("chaos-squares", dict(params))
                    for _ in range(5)
                ])
                job = results[0][0]
                await asyncio.wait_for(job.wait_terminal(), timeout=30)
                return results, job
            finally:
                await service.shutdown(drain_s=1.0)

        results, job = run(scenario())
        assert {id(j) for j, _ in results} == {id(job)}  # one job object
        assert [deduped for _, deduped in results] == [
            False, True, True, True, True
        ]
        assert job.dedup_count == 4
        assert job.value == {"x": 4, "value": 16}
        assert attempt_bytes(state_dir) == 1  # the engine ran exactly once

    def test_dedup_window_closes_when_the_job_finishes(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            try:
                first, _ = await service.submit("squares", {"x": 3})
                await asyncio.wait_for(first.wait_terminal(), timeout=30)
                second, deduped = await service.submit("squares", {"x": 3})
                return first, second, deduped
            finally:
                await service.shutdown(drain_s=1.0)

        first, second, deduped = run(scenario())
        assert not deduped
        assert second is not first


class TestAdmissionControl:
    def test_full_queue_rejects_with_429_semantics(self, tmp_path):
        async def scenario():
            service = make_service(
                tmp_path, pool_size=1, queue_limit=2
            )
            await service.start()
            try:
                # One long job occupies the pool slot...
                blockers = [await service.submit(
                    "sleepy", {"duration_s": 30.0, "tag": "b0"}
                )]
                while blockers[0][0].state is JobState.QUEUED:
                    await asyncio.sleep(0.01)
                # ...then two more fill the queue to capacity.
                for i in (1, 2):
                    blockers.append(await service.submit(
                        "sleepy", {"duration_s": 30.0, "tag": f"b{i}"}
                    ))
                with pytest.raises(ServiceOverloaded) as info:
                    await service.submit("sleepy", {"duration_s": 30.0,
                                                    "tag": "overflow"})
                return info.value, [j for j, _ in blockers]
            finally:
                await service.shutdown(drain_s=0.0)

        error, blockers = run(scenario())
        assert error.status == 429
        assert error.retry_after_s > 0
        assert error.capacity == 2

    def test_draining_service_admits_nothing(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            await service.shutdown(drain_s=0.0)
            with pytest.raises(ServiceDraining):
                await service.submit("squares", {"x": 1})

        run(scenario())

    def test_unknown_scenario_and_bad_deadline_are_typed(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path)
            await service.start()
            try:
                with pytest.raises(InvalidJobRequest):
                    await service.submit("no-such-thing", {})
                with pytest.raises(InvalidJobRequest):
                    await service.submit(
                        "squares", {"x": 1}, deadline_s=-2.0
                    )
                with pytest.raises(InvalidJobRequest):
                    await service.submit(
                        "squares", {"x": 1}, deadline_s=True
                    )
                with pytest.raises(JobNotFound):
                    service.get("j-999999")
            finally:
                await service.shutdown(drain_s=0.0)

        run(scenario())


class TestConfigValidation:
    @pytest.mark.parametrize("overrides, match", [
        ({"breaker_threshold": 0}, "breaker threshold must be >= 1"),
        ({"breaker_cooldown_s": 0.0}, "breaker cooldown must be > 0"),
        ({"breaker_cooldown_s": -1.0}, "breaker cooldown must be > 0"),
        ({"point_timeout_s": 0.0}, "point timeout must be > 0"),
        ({"default_deadline_s": 0.0}, "default deadline must be > 0"),
        ({"default_deadline_s": -1.0}, "default deadline must be > 0"),
        ({"retry_delay_s": 0.0}, "retry delay must be > 0"),
        ({"retry_delay_s": -1.0}, "retry delay must be > 0"),
    ])
    def test_settings_that_break_every_job_are_refused(
        self, tmp_path, overrides, match
    ):
        """Breakers and execution policies are built lazily, per job, so
        a bad setting must fail when the service is configured rather
        than in every job (or, for a zero timeout, leave each job
        running forever)."""
        with pytest.raises(InvalidJobRequest, match=match):
            ServiceConfig(cache_root=tmp_path / "cache", **overrides)


class TestCircuitBreaker:
    async def fail_once(self, service, x, state_dir):
        job, _ = await service.submit("chaos-squares", {
            "x": x,
            "state_dir": str(state_dir),
            "faults": {str(x): {"kind": "raise", "times": 99}},
        })
        await asyncio.wait_for(job.wait_terminal(), timeout=30)
        assert job.state is JobState.FAILED
        return job

    def test_repeated_failures_trip_only_their_class(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path, breaker_threshold=3)
            await service.start()
            try:
                for x in (21, 22, 23):
                    await self.fail_once(service, x, tmp_path / "state")
                # The chaos class is now shed...
                with pytest.raises(CircuitOpen) as info:
                    await service.submit("chaos-squares", {
                        "x": 99, "state_dir": str(tmp_path / "state"),
                    })
                # ...while the demo class still flows.
                healthy, _ = await service.submit("squares", {"x": 2})
                await asyncio.wait_for(healthy.wait_terminal(), timeout=30)
                return info.value, healthy, service.breakers.states()
            finally:
                await service.shutdown(drain_s=1.0)

        error, healthy, states = run(scenario())
        assert error.scenario_class == "chaos"
        assert error.retry_after_s > 0
        assert healthy.state is JobState.DONE
        assert states["chaos"] == "open"

    def test_half_open_probe_success_heals_the_class(self, tmp_path):
        async def scenario():
            service = make_service(
                tmp_path, breaker_threshold=2, breaker_cooldown_s=0.2
            )
            await service.start()
            try:
                for x in (31, 32):
                    await self.fail_once(service, x, tmp_path / "state")
                await asyncio.sleep(0.25)  # cooldown elapses
                probe, _ = await service.submit("chaos-squares", {
                    "x": 33, "state_dir": str(tmp_path / "state"),
                })
                await asyncio.wait_for(probe.wait_terminal(), timeout=30)
                return probe, service.breakers.states()
            finally:
                await service.shutdown(drain_s=1.0)

        probe, states = run(scenario())
        assert probe.state is JobState.DONE
        assert states["chaos"] == "closed"

    def test_unknown_names_are_rejected_before_any_fork(self, tmp_path):
        """A bad machine name is the client's error, not the class's: it
        is refused at submission, so it neither forks a worker nor
        counts toward opening the ``kernels`` breaker."""
        async def scenario():
            service = make_service(tmp_path, breaker_threshold=3)
            await service.start()
            try:
                for machine in ("nope", "snowball", "Xeon"):
                    with pytest.raises(InvalidJobRequest, match="machine"):
                        await service.submit(
                            "magicfilter", {"machine": machine, "unroll": 4}
                        )
                jobs_after_rejections = service.stats()["jobs"]
                valid, _ = await service.submit("magicfilter", {
                    "machine": "Intel Xeon X5550", "unroll": 4,
                    "shape": [8, 8, 8],
                })
                await asyncio.wait_for(valid.wait_terminal(), timeout=60)
                return jobs_after_rejections, valid
            finally:
                await service.shutdown(drain_s=1.0)

        jobs_after_rejections, valid = run(scenario())
        assert jobs_after_rejections == 0
        assert valid.state is JobState.DONE
        assert valid.attempts == 1

    def test_out_of_range_values_are_rejected_before_any_fork(
        self, tmp_path, monkeypatch
    ):
        """Values the models refuse are the client's error too: each is
        refused at submission, creates no job and forks no worker, so
        none counts against its class's breaker."""
        import repro.service.core as core

        run_attempt = core.run_attempt
        forks = []

        async def counting_run_attempt(*args, **kwargs):
            forks.append(args[1])
            return await run_attempt(*args, **kwargs)

        monkeypatch.setattr(core, "run_attempt", counting_run_attempt)
        bad = [
            ("magicfilter", {
                "machine": "Intel Xeon X5550", "unroll": 4, "shape": [0, 0, 0],
            }),
            ("cluster-elapsed", {"app": "linpack", "cores": 0}),
            ("cluster-energy", {"app": "linpack", "cores": 0}),
            ("page-alloc", {
                "machine": "Intel Xeon X5550", "fragmentation": 1.5,
            }),
        ]

        async def scenario():
            service = make_service(tmp_path, breaker_threshold=1)
            await service.start()
            try:
                for name, params in bad:
                    with pytest.raises(InvalidJobRequest):
                        await service.submit(name, params)
                jobs_after_rejections = service.stats()["jobs"]
                forks_after_rejections = len(forks)
                valid, _ = await service.submit("magicfilter", {
                    "machine": "Intel Xeon X5550", "unroll": 4,
                    "shape": [8, 8, 8],
                })
                await asyncio.wait_for(valid.wait_terminal(), timeout=60)
                breakers = service.stats()["breakers"]
                return (
                    jobs_after_rejections, forks_after_rejections, valid,
                    breakers,
                )
            finally:
                await service.shutdown(drain_s=1.0)

        jobs, forked, valid, breakers = run(scenario())
        assert jobs == 0
        assert forked == 0
        assert valid.state is JobState.DONE
        assert valid.attempts == 1
        assert len(forks) == 1
        assert set(breakers.values()) <= {"closed"}

    def test_oversized_arrays_leave_the_memsim_breaker_closed(self, tmp_path):
        """An array larger than the machine's memory could only fail in
        the worker; refused at submission instead, three of them create
        no job, so the next valid page-alloc job is not shed."""
        async def scenario():
            service = make_service(tmp_path, breaker_threshold=3)
            await service.start()
            try:
                for _ in range(3):
                    with pytest.raises(InvalidJobRequest, match="array_bytes"):
                        await service.submit("page-alloc", {
                            "machine": "ST-Ericsson A9500 (Snowball)",
                            "array_bytes": 1 << 30,
                        })
                jobs_after_rejections = service.stats()["jobs"]
                valid, _ = await service.submit("page-alloc", {
                    "machine": "ST-Ericsson A9500 (Snowball)",
                    "fragmentation": 0.85, "seed": 2, "array_bytes": 32 << 10,
                })
                await asyncio.wait_for(valid.wait_terminal(), timeout=60)
                return jobs_after_rejections, valid, service.breakers.states()
            finally:
                await service.shutdown(drain_s=1.0)

        jobs_after_rejections, valid, states = run(scenario())
        assert jobs_after_rejections == 0
        assert valid.state is JobState.DONE
        assert valid.value == {"gb_per_s": 0.7713569454264848}
        assert states.get("memsim", "closed") == "closed"

    def test_failed_job_records_its_error_and_transients(self, tmp_path):
        async def scenario():
            service = make_service(
                tmp_path, retries=1, retry_delay_s=0.01
            )
            await service.start()
            try:
                return await self.fail_once(
                    service, 41, tmp_path / "state"
                )
            finally:
                await service.shutdown(drain_s=1.0)

        job = run(scenario())
        assert job.error["type"] == "ChaosFault"
        assert job.attempts == 2
        transients = job.error["transient_errors"]
        assert [t["type"] for t in transients] == ["ChaosFault"]


class TestDeadlinesAndCancellation:
    def test_job_deadline_fails_with_retry_exhausted(self, tmp_path):
        async def scenario():
            service = make_service(
                tmp_path, retries=2, retry_delay_s=10.0
            )
            await service.start()
            try:
                job, _ = await service.submit(
                    "sleepy", {"duration_s": 30.0}, deadline_s=0.3
                )
                await asyncio.wait_for(job.wait_terminal(), timeout=30)
                return job
            finally:
                await service.shutdown(drain_s=1.0)

        job = run(scenario())
        assert job.state is JobState.FAILED
        assert job.error["type"] == "RetryExhausted"
        assert "deadline" in job.error["message"]

    def test_cancel_running_job_reclaims_the_worker(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path, pool_size=1)
            await service.start()
            try:
                stuck, _ = await service.submit(
                    "sleepy", {"duration_s": 60.0}
                )
                while stuck.state is JobState.QUEUED:
                    await asyncio.sleep(0.01)
                await service.cancel(stuck.job_id, "operator said so")
                # The single pool slot must come back: a fresh job runs.
                fresh, _ = await service.submit("squares", {"x": 5})
                await asyncio.wait_for(fresh.wait_terminal(), timeout=30)
                return stuck, fresh
            finally:
                await service.shutdown(drain_s=1.0)

        stuck, fresh = run(scenario())
        assert stuck.state is JobState.CANCELLED
        assert stuck.error == {
            "type": "JobCancelled", "message": "operator said so",
        }
        assert fresh.state is JobState.DONE

    def test_last_waiter_disconnecting_cancels_the_job(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path, pool_size=1)
            await service.start()
            try:
                job, _ = await service.submit(
                    "sleepy", {"duration_s": 60.0}, wait=True
                )
                _, second_deduped = await service.submit(
                    "sleepy", {"duration_s": 60.0}, wait=True
                )
                assert second_deduped and job.waiters == 2
                await service.release_waiter(job)
                assert job.state is not JobState.CANCELLED  # one left
                await service.release_waiter(job)
                await asyncio.wait_for(job.wait_terminal(), timeout=10)
                return job
            finally:
                await service.shutdown(drain_s=1.0)

        job = run(scenario())
        assert job.state is JobState.CANCELLED
        assert "disconnected" in job.error["message"]

    def test_cancelled_queued_job_never_runs(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path, pool_size=1)
            await service.start()
            try:
                blocker, _ = await service.submit(
                    "sleepy", {"duration_s": 60.0}
                )
                queued, _ = await service.submit("squares", {"x": 8})
                await service.cancel(queued.job_id, "changed my mind")
                return queued
            finally:
                await service.shutdown(drain_s=0.0)

        queued = run(scenario())
        assert queued.state is JobState.CANCELLED
        assert queued.attempts == 0


class TestStats:
    def test_stats_reflect_live_state(self, tmp_path):
        async def scenario():
            service = make_service(tmp_path, pool_size=1, queue_limit=4)
            await service.start()
            try:
                await service.submit("sleepy", {"duration_s": 60.0})
                await service.submit("squares", {"x": 1})
                await asyncio.sleep(0.05)  # let the worker pick one up
                return service.stats()
            finally:
                await service.shutdown(drain_s=0.0)

        stats = run(scenario())
        assert stats["jobs"] == 2
        assert stats["inflight"] == 1
        assert stats["queue_depth"] == 1
        assert stats["pool_size"] == 1
        assert not stats["draining"]
