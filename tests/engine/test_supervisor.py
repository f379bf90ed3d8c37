"""The one worker supervisor the engine's pool and the job service share.

Both run every forked attempt through ``repro.engine.engine.run_attempt``.
These tests pin the properties a supervisor most easily loses:

* a healthy worker that replies and exits between the parent's empty
  poll and its liveness check is a success, not a crash;
* a typed abort (the journal's disk filled) ends the run without
  leaving a worker process behind;
* a worker that has replied never holds up the loop, however long its
  process takes to exit, and is still reaped once it does.

Where the platform cannot fork, the engine runs sweeps serially.
"""

import asyncio
import multiprocessing
import os
import threading
import time
from multiprocessing.connection import Connection

import pytest

from repro.engine import ExecutionPolicy, ExperimentEngine, SweepSpec
from repro.engine.chaos import FlakyJournal
from repro.engine.engine import run_attempt
from repro.engine.sweeps import run_chaos_sweep
from repro.errors import JournalError
from repro.metrics.registry import MetricsRegistry
from repro.service import JobService, ServiceConfig
from repro.service.jobs import JobState
from repro.service.scenarios import sleepy_point


@pytest.fixture
def slow_empty_poll(monkeypatch):
    """Widen the gap after an empty poll to a full second, so a worker
    sleeping 0.2 s always replies and exits inside it."""
    real_poll = Connection.poll

    def poll(self, timeout=0.0):
        ready = real_poll(self, timeout)
        if not ready:
            time.sleep(1.0)
        return ready

    monkeypatch.setattr(Connection, "poll", poll)


def _service_job(tmp_path):
    async def scenario():
        service = JobService(ServiceConfig(
            cache_root=tmp_path / "cache", pool_size=1,
        ))
        await service.start()
        try:
            job, _ = await service.submit("sleepy", {"duration_s": 0.2})
            await asyncio.wait_for(job.wait_terminal(), timeout=30)
            return job
        finally:
            await service.shutdown(drain_s=1.0)

    job = asyncio.run(scenario())
    assert job.state is JobState.DONE, job.error
    assert job.attempts == 1
    assert job.value == {"slept_s": 0.2}


def _engine_sweep(tmp_path):
    spec = SweepSpec(
        "sleepy", sleepy_point,
        [{"duration_s": 0.2, "tag": tag} for tag in ("a", "b")],
    )
    run = ExperimentEngine(jobs=2).run(spec)
    assert run.manifest.executor == "process"
    assert run.values == ({"slept_s": 0.2}, {"slept_s": 0.2})
    assert [p.attempts for p in run.manifest.points] == [1, 1]


@pytest.mark.parametrize("drive", [_service_job, _engine_sweep],
                         ids=["service", "engine"])
def test_reply_between_poll_and_liveness_check_is_a_success(
    tmp_path, slow_empty_poll, drive
):
    drive(tmp_path)


def test_platform_without_fork_runs_serially(monkeypatch):
    monkeypatch.setattr(
        multiprocessing, "get_all_start_methods", lambda: ["spawn"]
    )
    spec = SweepSpec(
        "closure", lambda p: {"y": p["x"] + 10},
        [{"x": x} for x in range(4)],
    )
    run = ExperimentEngine(jobs=4).run(spec)
    assert run.manifest.executor == "serial"
    assert [v["y"] for v in run.values] == [10, 11, 12, 13]


def test_typed_abort_leaves_no_live_workers(tmp_path):
    journal = FlakyJournal(tmp_path / "journal.jsonl", capacity=1)
    engine = ExperimentEngine(
        jobs=2,
        journal=journal,
        policy=ExecutionPolicy(point_timeout_s=30.0),
    )
    started = time.monotonic()
    try:
        with pytest.raises(JournalError):
            run_chaos_sweep(
                engine, xs=(0, 1, 2), state_dir=str(tmp_path / "state"),
                faults={"1": {"kind": "hang", "times": 1, "hang_s": 60.0}},
            )
        assert time.monotonic() - started < 20.0
        assert multiprocessing.active_children() == []
    finally:
        for child in multiprocessing.active_children():
            child.kill()
            child.join(timeout=5.0)
        journal.close()


def _reply_then_linger(params):
    """Reply at once, but leave a thread that keeps the process alive."""
    threading.Thread(target=time.sleep, args=(params["linger_s"],)).start()
    return {"pid": os.getpid()}


def test_a_replied_attempt_never_stalls_the_loop():
    async def scenario():
        stalls = []

        async def ticker():
            last = time.monotonic()
            while True:
                await asyncio.sleep(0.01)
                now = time.monotonic()
                stalls.append(now - last - 0.01)
                last = now

        ticks = asyncio.create_task(ticker())
        started = time.monotonic()
        value, _, _ = await run_attempt(
            _reply_then_linger, {"linger_s": 2.0}, 1,
            timeout_s=30.0, deadline=None, label="lingering",
            metrics=MetricsRegistry(), scope="test",
        )
        returned_s = time.monotonic() - started
        # The loop lives on past the child's thread, which ends 2 s
        # after the reply; by then the child must have been reaped.
        await asyncio.sleep(3.0)
        ticks.cancel()
        with pytest.raises(ChildProcessError):
            os.waitpid(value["pid"], os.WNOHANG)
        return returned_s, max(stalls)

    returned_s, stall_s = asyncio.run(scenario())
    assert returned_s < 0.2
    assert stall_s < 0.1
    assert multiprocessing.active_children() == []
