"""Crash-safe job journal: what survives a dead service instance.

The WAL contract: ``job/<id>`` on admission, ``value/<hash>`` before a
result is acknowledged, ``state/<id>`` at terminal.  A restarted
instance re-serves completed jobs byte-identically with zero
recomputation and requeues everything admitted-but-unfinished.
"""

import asyncio

from repro.engine import RunJournal
from repro.engine.hashing import canonical_json
from repro.service import (
    JobService,
    ServiceClient,
    ServiceConfig,
    job_content_key,
    resolve_scenario,
)
from repro.service.http import ServiceServer
from repro.service.jobs import JobState


def run(coro):
    return asyncio.run(coro)


def make_service(tmp_path, *, generation, **overrides):
    # Each generation gets its own cache root: anything warm on the
    # second instance can then only have come from the shared journal.
    defaults = dict(
        cache_root=tmp_path / f"cache-{generation}",
        run_dir=tmp_path / "run",
        pool_size=1,
        queue_limit=8,
    )
    defaults.update(overrides)
    return JobService(ServiceConfig(**defaults))


class TestRestartRecovery:
    def test_completed_jobs_reserve_byte_identically(self, tmp_path):
        async def first_life():
            service = make_service(tmp_path, generation=1)
            await service.start()
            try:
                job, _ = await service.submit("squares", {"x": 7})
                await asyncio.wait_for(job.wait_terminal(), timeout=30)
                return job.job_id, canonical_json(job.value)
            finally:
                await service.shutdown(drain_s=1.0)

        async def second_life():
            service = make_service(tmp_path, generation=2)
            await service.start()
            try:
                recovered = service.get(job_id)
                # And a fresh identical submission is warm, not queued.
                resubmit, deduped = await service.submit(
                    "squares", {"x": 7}
                )
                return recovered, resubmit, deduped
            finally:
                await service.shutdown(drain_s=1.0)

        job_id, first_bytes = run(first_life())
        recovered, resubmit, deduped = run(second_life())
        assert recovered.state is JobState.DONE
        assert recovered.recovered
        assert recovered.source == "journal"
        assert canonical_json(recovered.value) == first_bytes
        assert not deduped
        assert resubmit.state is JobState.DONE
        assert resubmit.source == "journal"  # zero recomputation
        assert canonical_json(resubmit.value) == first_bytes

    def test_unfinished_jobs_are_requeued_and_complete(self, tmp_path):
        async def first_life():
            service = make_service(tmp_path, generation=1)
            await service.start()
            try:
                job, _ = await service.submit(
                    "sleepy", {"duration_s": 30.0}
                )
                while job.state is JobState.QUEUED:
                    await asyncio.sleep(0.01)
                return job.job_id
            finally:
                # Zero drain budget: the attempt dies mid-sleep with
                # no terminal journal record.
                await service.shutdown(drain_s=0.0)

        async def second_life():
            service = make_service(tmp_path, generation=2)
            # Shrink the nap before the pool starts so the requeued
            # job finishes inside the test budget: recovery validates
            # against the *current* registry, params included.
            service.journal.completed[f"job/{job_id}"]["params"] = {
                "duration_s": 0.05, "tag": "",
            }
            await service.start()
            try:
                job = service.get(job_id)
                assert job.recovered
                await asyncio.wait_for(job.wait_terminal(), timeout=30)
                return job
            finally:
                await service.shutdown(drain_s=1.0)

        job_id = run(first_life())
        job = run(second_life())
        assert job.state is JobState.DONE
        assert job.source == "computed"
        assert job.value == {"slept_s": 0.05}

    def test_a_requeued_trace_job_keeps_its_live_stream(self, tmp_path):
        async def first_life():
            service = make_service(tmp_path, generation=1)
            await service.start()
            try:
                blocker, _ = await service.submit(
                    "sleepy", {"duration_s": 30.0}
                )
                while blocker.state is JobState.QUEUED:
                    await asyncio.sleep(0.01)
                # One pool slot: the trace job waits behind the nap.
                traced, _ = await service.submit("trace-analysis", {})
                assert traced.state is JobState.QUEUED
                return blocker.job_id, traced.job_id
            finally:
                await service.shutdown(drain_s=0.0)

        async def second_life():
            service = make_service(tmp_path, generation=2)
            service.journal.completed[f"job/{blocker_id}"]["params"] = {
                "duration_s": 0.05, "tag": "",
            }
            server = ServiceServer(service, port=0)
            await server.start()
            try:
                client = ServiceClient(
                    f"http://127.0.0.1:{server.port}", timeout_s=60
                )
                status = await asyncio.to_thread(client.status, traced_id)
                lines = await asyncio.to_thread(client.trace, traced_id)
                return status["job"], lines
            finally:
                await server.stop()

        blocker_id, traced_id = run(first_life())
        job, lines = run(second_life())
        assert job["recovered"] is True
        assert job["progress"] is True
        *provisional, final = lines
        assert len(provisional) >= 2
        assert all(line["provisional"] for line in provisional)
        assert final["final"] is True
        assert final["state"] == "done"
        assert final["summary"]["scenario"] == "fig4-bigdft-36ranks-seed7"

    def test_new_ids_never_collide_with_recovered_ones(self, tmp_path):
        async def first_life():
            service = make_service(tmp_path, generation=1)
            await service.start()
            try:
                ids = []
                for x in (1, 2, 3):
                    job, _ = await service.submit("squares", {"x": x})
                    await asyncio.wait_for(job.wait_terminal(), timeout=30)
                    ids.append(job.job_id)
                return ids
            finally:
                await service.shutdown(drain_s=1.0)

        async def second_life():
            service = make_service(tmp_path, generation=2)
            await service.start()
            try:
                job, _ = await service.submit("squares", {"x": 4})
                return job.job_id
            finally:
                await service.shutdown(drain_s=1.0)

        old_ids = run(first_life())
        new_id = run(second_life())
        assert new_id not in old_ids
        assert new_id > max(old_ids)

    def test_failed_jobs_recover_with_their_error(self, tmp_path):
        async def first_life():
            service = make_service(tmp_path, generation=1)
            await service.start()
            try:
                job, _ = await service.submit("chaos-squares", {
                    "x": 5,
                    "state_dir": str(tmp_path / "state"),
                    "faults": {"5": {"kind": "raise", "times": 99}},
                })
                await asyncio.wait_for(job.wait_terminal(), timeout=30)
                return job.job_id
            finally:
                await service.shutdown(drain_s=1.0)

        async def second_life():
            service = make_service(tmp_path, generation=2)
            await service.start()
            try:
                return service.get(job_id)
            finally:
                await service.shutdown(drain_s=1.0)

        job_id = run(first_life())
        job = run(second_life())
        assert job.state is JobState.FAILED
        assert job.error["type"] == "ChaosFault"


class TestJournalEdgeCases:
    def test_value_without_terminal_record_still_serves(self, tmp_path):
        """The crash window between the value append and the state
        append: the value write is the acknowledgment that matters."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        _, _, digest = job_content_key(
            resolve_scenario("squares"), {"x": 3}
        )
        journal = RunJournal(run_dir / "service.journal")
        journal.append("job/j-000005", {
            "scenario": "squares", "params": {"x": 3}, "deadline_s": None,
        })
        journal.append(f"value/{digest}", {"value": 9})
        journal.close()

        async def scenario():
            service = make_service(tmp_path, generation=1)
            await service.start()
            try:
                job = service.get("j-000005")
                fresh, _ = await service.submit("squares", {"x": 99})
                return job, fresh
            finally:
                await service.shutdown(drain_s=1.0)

        job, fresh = run(scenario())
        assert job.state is JobState.DONE
        assert job.source == "journal"
        assert job.value == {"value": 9}
        assert int(fresh.job_id.rsplit("-", 1)[-1]) >= 6

    def test_unrecognizable_submissions_are_dropped_not_fatal(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        journal = RunJournal(run_dir / "service.journal")
        journal.append("job/j-000001", {
            "scenario": "renamed-away", "params": {}, "deadline_s": None,
        })
        journal.close()

        async def scenario():
            service = make_service(tmp_path, generation=1)
            await service.start()
            try:
                return dict(service.jobs), service.stats()
            finally:
                await service.shutdown(drain_s=1.0)

        jobs, stats = run(scenario())
        assert jobs == {}
        assert stats["queue_depth"] == 0
