"""The service leaves nothing behind.

A forked attempt is its worker's alone: a signal sent to it ends it
and never reaches the server, a signal sent to the server's process
group reaches only the server, and an attempt exits when its server
dies.  Live trace summaries travel in memory, so a service writes
nothing for them, with or without a run directory.
"""

import asyncio
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import pytest

from repro.engine import RunJournal
from repro.service import JobService, ServiceClient, ServiceConfig
from repro.service.jobs import JobState

SRC = Path(__file__).resolve().parents[2] / "src"

linux_only = pytest.mark.skipif(
    not Path("/proc/self/stat").exists(), reason="reads /proc"
)


def stat_fields(pid: int) -> list[str] | None:
    """``/proc/<pid>/stat`` after the command name, or ``None``."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rpartition(")")[2].split()


def children(pid: int) -> list[int]:
    """Live processes whose parent is *pid*."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = stat_fields(int(entry.name))
            if fields and fields[0] != "Z" and int(fields[1]) == pid:
                found.append(int(entry.name))
    return found


def alive(pid: int) -> bool:
    fields = stat_fields(pid)
    return fields is not None and fields[0] != "Z"


def wait_for(predicate, timeout_s: float, what: str):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(0.05)
    raise AssertionError(f"timed out after {timeout_s}s waiting for {what}")


class Serve:
    """One ``repro serve --pool 1`` process on an ephemeral port; with
    ``own_group`` it leads a process group of its own."""

    def __init__(
        self, tmp_path: Path, *, drain_s: float = 0.5, own_group: bool = False
    ) -> None:
        env = dict(os.environ)
        existing = env.get("PYTHONPATH")
        env["PYTHONPATH"] = str(SRC) + (
            os.pathsep + existing if existing else ""
        )
        env["PYTHONUNBUFFERED"] = "1"
        self.proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve", "--port", "0",
                "--run-dir", str(tmp_path / "run"),
                "--cache-dir", str(tmp_path / "cache"),
                "--pool", "1", "--drain", str(drain_s),
            ],
            env=env,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=own_group,
        )
        port = None
        deadline = time.monotonic() + 30
        while port is None and time.monotonic() < deadline:
            line = self.proc.stderr.readline()
            if "listening on http://" in line:
                port = int(line.rsplit(":", 1)[-1])
            elif not line and self.proc.poll() is not None:
                break
        assert port is not None, "serve never announced its port"
        self.client = ServiceClient(f"http://127.0.0.1:{port}", timeout_s=30)

    def start_sleepy_attempt(
        self, duration_s: float = 120.0
    ) -> tuple[str, int]:
        """Submit a sleepy job; returns its id and its attempt's pid."""
        job = self.client.submit(
            "sleepy", {"duration_s": duration_s}, wait=False
        )["job"]
        wait_for(
            lambda: self.client.status(job["job_id"])["job"]["state"]
            == "running",
            10, "the job to start",
        )
        (attempt,) = wait_for(
            lambda: children(self.proc.pid), 10, "the forked attempt"
        )
        return job["job_id"], attempt

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        self.proc.stderr.close()


@linux_only
def test_sigterm_to_an_attempt_ends_only_that_attempt(tmp_path):
    server = Serve(tmp_path)
    attempt = None
    try:
        job_id, attempt = server.start_sleepy_attempt()
        os.kill(attempt, signal.SIGTERM)

        def ended():
            job = server.client.status(job_id)["job"]
            return job if job["state"] not in ("queued", "running") else None

        job = wait_for(ended, 15, "the job to end")
        assert job["state"] == "failed"
        assert job["error"]["type"] == "WorkerCrash"
        assert job["attempts"] == 1
        assert not job["error"].get("transient_errors")
        assert server.client.healthz()
        assert server.proc.poll() is None
    finally:
        server.stop()
        if attempt is not None and alive(attempt):
            os.kill(attempt, signal.SIGKILL)


@linux_only
def test_a_killed_server_leaves_no_attempt_behind(tmp_path):
    server = Serve(tmp_path)
    attempt = None
    try:
        _, attempt = server.start_sleepy_attempt()
        server.proc.kill()
        server.proc.wait(timeout=10)
        wait_for(lambda: not alive(attempt), 5, "the orphaned attempt to exit")
    finally:
        server.stop()
        if attempt is not None and alive(attempt):
            os.kill(attempt, signal.SIGKILL)


@linux_only
def test_a_group_sigterm_drains_the_running_job(tmp_path):
    server = Serve(tmp_path, drain_s=5.0, own_group=True)
    try:
        job_id, attempt = server.start_sleepy_attempt(duration_s=2.0)
        # What a shell's `kill %1` or `kill -TERM -- -PGID` sends.
        os.killpg(server.proc.pid, signal.SIGTERM)
        _, stderr = server.proc.communicate(timeout=30)
    finally:
        server.stop()
    assert server.proc.returncode == 0
    assert "drained 1 running job(s)" in stderr
    assert not alive(attempt)
    with RunJournal(tmp_path / "run" / "service.journal", resume=True) as log:
        assert log.completed[f"state/{job_id}"]["state"] == "done"


def test_a_service_writes_nothing_for_progress(tmp_path, monkeypatch):
    tmpdir = tmp_path / "tmpdir"
    tmpdir.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmpdir))
    monkeypatch.setattr(tempfile, "tempdir", None)

    async def cycle(config):
        service = JobService(config)
        await service.start()
        try:
            job, _ = await service.submit("trace-analysis", {"num_ranks": 4})
            await asyncio.wait_for(job.wait_terminal(), timeout=60)
            return job, sorted(tmpdir.iterdir())
        finally:
            await service.shutdown(drain_s=0.1)

    for run_dir in (None, tmp_path / "run"):
        job, made = asyncio.run(cycle(ServiceConfig(
            cache_root=tmp_path / f"cache-{run_dir is None}", run_dir=run_dir,
        )))
        assert job.state is JobState.DONE, job.error
        assert job.source == "computed"
        assert made == []
        assert job.progress, "the live summaries live in the job"
    assert sorted(tmpdir.iterdir()) == []
    assert sorted(p.name for p in (tmp_path / "run").iterdir()) == [
        "service.journal"
    ]
