"""Job records and lifecycle.

A :class:`Job` is the unit everything else in the service reasons
about: admission admits jobs, single-flight collapses submissions onto
one job, the breaker judges jobs, the journal persists jobs, and the
HTTP layer streams a job's state transitions.

States move strictly forward::

    QUEUED -> RUNNING -> DONE | FAILED
    QUEUED | RUNNING -> CANCELLED

Each transition bumps ``version`` and wakes the job's condition, which
is what the ``/jobs/{id}/events`` stream and ``wait=true`` submissions
block on — no polling inside the process.  A live trace line wakes the
same condition without a version bump, for ``/jobs/{id}/trace``.
"""

from __future__ import annotations

import asyncio
import enum
import json
import time
from typing import Any, Callable, Mapping


class JobState(enum.Enum):
    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"
    CANCELLED = "cancelled"

    @property
    def terminal(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED, JobState.CANCELLED)


class Job:
    """One admitted submission and everything that happens to it.

    With ``progress=True`` (its scenario streams live trace summaries),
    ``progress`` keeps every summary its attempts sent as an NDJSON
    line, for the job's lifetime; otherwise it is ``None``.
    """

    def __init__(
        self,
        job_id: str,
        *,
        scenario: str,
        scenario_class: str,
        params: Mapping[str, Any],
        content_hash: str,
        deadline_s: float | None = None,
        recovered: bool = False,
        progress: bool = False,
    ) -> None:
        self.job_id = job_id
        self.scenario = scenario
        self.scenario_class = scenario_class
        self.params = dict(params)
        self.content_hash = content_hash
        # The full cache-key material (schema/code/sweep/point); set by
        # the service right after construction.
        self.key_material: dict[str, Any] | None = None
        self.deadline_s = deadline_s
        self.deadline = (
            None if deadline_s is None else time.monotonic() + deadline_s
        )
        self.recovered = recovered
        self.state = JobState.QUEUED
        self.value: Any = None
        self.error: dict[str, Any] | None = None
        # Where the result came from: "computed" (a worker ran),
        # "cache" (warm ResultCache hit), "journal" (re-served after a
        # restart).  The dedup/zero-recompute proofs read this.
        self.source: str | None = None
        self.progress: list[str] | None = [] if progress else None
        self.attempts = 0
        self.wall_seconds = 0.0
        self.submitted_at = time.time()
        self.finished_at: float | None = None
        # Fan-in bookkeeping: how many submissions collapsed onto this
        # job, and how many clients are currently blocked on it.  When
        # the last waiter disconnects before the job finishes, the
        # service cancels it and reclaims the worker.
        self.dedup_count = 0
        self.waiters = 0
        self.version = 0
        self._changed = asyncio.Condition()
        # The asyncio task computing this job, if RUNNING.
        self.task: asyncio.Task | None = None

    # -- lifecycle ---------------------------------------------------------

    async def transition(
        self,
        state: JobState,
        *,
        value: Any = None,
        error: dict[str, Any] | None = None,
        source: str | None = None,
    ) -> None:
        """Move to *state* and wake every watcher; idempotent once
        terminal (a cancel racing a completion loses quietly)."""
        if self.state.terminal:
            return
        self.state = state
        if value is not None or state is JobState.DONE:
            self.value = value
        if error is not None:
            self.error = error
        if source is not None:
            self.source = source
        if state.terminal:
            self.finished_at = time.time()
        await self.touch()

    async def touch(self) -> None:
        """Bump the version and wake watchers."""
        self.version += 1
        await self._notify()

    async def add_progress(self, summary: Mapping[str, Any]) -> None:
        """Keep one live trace summary as an NDJSON line and wake
        watchers; the version stays, so ``/events`` writes nothing."""
        self.progress.append(json.dumps(summary, sort_keys=True) + "\n")
        await self._notify()

    async def _notify(self) -> None:
        async with self._changed:
            self._changed.notify_all()

    async def wait_change(self, changed: Callable[[], bool]) -> None:
        """Block until ``changed()`` holds or the job is terminal."""
        async with self._changed:
            await self._changed.wait_for(
                lambda: changed() or self.state.terminal
            )

    async def wait_terminal(self) -> None:
        await self.wait_change(lambda: False)

    # -- views -------------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The JSON view ``/jobs/{id}`` and the event stream serve."""
        return {
            "job_id": self.job_id,
            "scenario": self.scenario,
            "scenario_class": self.scenario_class,
            "params": dict(self.params),
            "content_hash": self.content_hash,
            "state": self.state.value,
            "source": self.source,
            "progress": self.progress is not None,
            "attempts": self.attempts,
            "wall_seconds": round(self.wall_seconds, 6),
            "dedup_count": self.dedup_count,
            "recovered": self.recovered,
            "error": self.error,
            "version": self.version,
        }
