"""The :class:`JobService` orchestrator.

This is the heart of ``repro serve``: it owns the admission queue, the
single-flight map, the breaker board, the sharded result cache and the
crash-safe journal, and runs each job's attempts as forked workers
through the engine's own attempt coroutine
(:func:`repro.engine.engine.run_attempt` — pipe fds and process
sentinels registered on the event loop, no polling threads).

Failure is the design center, not the edge case:

* every submission is answered immediately — warm (journal/cache hit),
  attached (single-flight), queued, or *typed rejection* (overload,
  open breaker, draining);
* a worker crash, hang or deadline overrun fails only its job, with
  the batch engine's retry rule (:meth:`ExecutionPolicy.settle`) and
  manifest-style error records;
* every admitted job is journaled before it is acknowledged, every
  value before the job is reported done — ``kill -9`` at any instant
  loses no acknowledged work, and a restarted instance re-serves
  completed jobs byte-identically with zero recomputation.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Mapping

from repro.engine.cache import ResultCache
from repro.engine.engine import run_attempt
from repro.engine.journal import RunJournal
from repro.engine.resilience import ExecutionPolicy
from repro.errors import (
    CircuitOpen,
    InvalidJobRequest,
    JobNotFound,
    ServiceDraining,
    ServiceOverloaded,
)
from repro.faults.detect import RetryPolicy
from repro.metrics.registry import current_registry
from repro.service.breaker import BreakerBoard, OPEN
from repro.service.jobs import Job, JobState
from repro.service.queue import AdmissionQueue, SingleFlight
from repro.service.scenarios import (
    SCENARIOS,
    job_content_key,
    resolve_scenario,
)


@dataclass(frozen=True)
class ServiceConfig:
    """Everything a service instance's behavior hangs on.

    ``run_dir`` enables the crash-safe journal (``service.journal``
    inside it); without it the instance is purely in-memory and only
    the shared result cache survives a restart.
    """

    cache_root: str | Path | None = None
    run_dir: str | Path | None = None
    pool_size: int = 2
    queue_limit: int = 16
    drain_s: float = 5.0
    default_deadline_s: float | None = None
    point_timeout_s: float | None = None
    retries: int = 0
    retry_delay_s: float = 0.05
    breaker_threshold: int = 3
    breaker_cooldown_s: float = 5.0

    def __post_init__(self) -> None:
        if self.pool_size < 1:
            raise InvalidJobRequest(
                f"pool size must be >= 1, got {self.pool_size}"
            )
        if self.queue_limit < 1:
            raise InvalidJobRequest(
                f"queue limit must be >= 1, got {self.queue_limit}"
            )
        if self.retries < 0:
            raise InvalidJobRequest(
                f"retries must be >= 0, got {self.retries}"
            )
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise InvalidJobRequest(
                f"point timeout must be > 0, got {self.point_timeout_s}"
            )
        if self.default_deadline_s is not None and self.default_deadline_s <= 0:
            raise InvalidJobRequest(
                f"default deadline must be > 0, got {self.default_deadline_s}"
            )
        if self.retry_delay_s <= 0:
            raise InvalidJobRequest(
                f"retry delay must be > 0, got {self.retry_delay_s}"
            )
        if self.breaker_threshold < 1:
            raise InvalidJobRequest(
                f"breaker threshold must be >= 1, "
                f"got {self.breaker_threshold}"
            )
        if self.breaker_cooldown_s <= 0:
            raise InvalidJobRequest(
                f"breaker cooldown must be > 0, "
                f"got {self.breaker_cooldown_s}"
            )


class JobService:
    """The long-running job orchestrator behind the HTTP front end."""

    def __init__(self, config: ServiceConfig | None = None) -> None:
        self.config = config or ServiceConfig()
        self.cache = ResultCache(self.config.cache_root)
        self.journal: RunJournal | None = None
        if self.config.run_dir is not None:
            self.journal = RunJournal(
                Path(self.config.run_dir) / "service.journal", resume=True
            )
        self.metrics = current_registry()
        self.queue = AdmissionQueue(
            self.config.queue_limit, pool_size=self.config.pool_size
        )
        self.single_flight = SingleFlight()
        self.breakers = BreakerBoard(
            failure_threshold=self.config.breaker_threshold,
            cooldown_s=self.config.breaker_cooldown_s,
        )
        self.jobs: dict[str, Job] = {}
        self.draining = False
        self._next_id = 1
        self._running: set[Job] = set()
        self._workers: list[asyncio.Task] = []
        self._started = False

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        """Recover journaled jobs, then bring up the worker pool."""
        if self._started:
            return
        self._started = True
        await self._recover()
        for i in range(self.config.pool_size):
            self._workers.append(asyncio.create_task(
                self._worker_loop(), name=f"svc-worker-{i}"
            ))
        self._update_gauges()

    async def shutdown(self, *, drain_s: float | None = None) -> dict[str, int]:
        """Graceful stop: no new jobs, drain running ones up to the
        budget, persist what remains for the next instance."""
        self.draining = True
        budget = self.config.drain_s if drain_s is None else drain_s
        tasks = [j.task for j in list(self._running) if j.task is not None]
        drained = killed = 0
        if tasks:
            done, pending = await asyncio.wait(tasks, timeout=max(0.0, budget))
            drained = len(done)
            killed = len(pending)
            for task in pending:
                # Past the drain budget: the attempt dies, but its job
                # record has no terminal state in the journal, so the
                # next instance requeues it — persisted, not lost.
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        for worker in self._workers:
            worker.cancel()
        if self._workers:
            await asyncio.gather(*self._workers, return_exceptions=True)
        self._workers.clear()
        persisted = len(self.queue.drain()) + killed
        if self.journal is not None:
            self.journal.close()
        return {"drained": drained, "persisted": persisted}

    async def _recover(self) -> None:
        """Rebuild state from the journal after a crash or restart.

        Journal keys form the job WAL: ``job/<id>`` (admitted),
        ``value/<hash>`` (computed), ``state/<id>`` (terminal).  A job
        with no terminal record is requeued; one whose value exists is
        re-served as DONE without recomputation.
        """
        if self.journal is None:
            return
        records = self.journal.completed
        submissions = {
            key[len("job/"):]: value
            for key, value in records.items()
            if key.startswith("job/")
        }
        terminals = {
            key[len("state/"):]: value
            for key, value in records.items()
            if key.startswith("state/")
        }
        for job_id, submitted in submissions.items():
            try:
                number = int(job_id.rsplit("-", 1)[-1])
            except ValueError:
                number = 0
            self._next_id = max(self._next_id, number + 1)
            try:
                scenario = resolve_scenario(submitted.get("scenario"))
                material, point, content_hash = job_content_key(
                    scenario, submitted.get("params") or {}
                )
            except InvalidJobRequest:
                # A scenario that no longer validates (renamed, retyped
                # across an upgrade) cannot be re-run faithfully.
                self.metrics.inc("service.recovery.dropped")
                continue
            job = Job(
                job_id,
                scenario=scenario.name,
                scenario_class=scenario.scenario_class,
                params=point,
                content_hash=content_hash,
                deadline_s=submitted.get("deadline_s"),
                recovered=True,
                progress=scenario.progress,
            )
            job.key_material = material
            self.jobs[job_id] = job
            terminal = terminals.get(job_id)
            found, value = self.journal.replay(f"value/{content_hash}")
            if terminal is not None:
                state = JobState(terminal.get("state", "failed"))
                job.state = state
                job.attempts = terminal.get("attempts", job.attempts)
                job.wall_seconds = terminal.get("wall_seconds", 0.0)
                job.error = terminal.get("error")
                job.finished_at = time.time()
                if state is JobState.DONE and found:
                    job.value = value
                    job.source = "journal"
                continue
            if found:
                # Computed, but the crash beat the terminal record:
                # the value write is the one that matters.
                job.state = JobState.DONE
                job.value = value
                job.source = "journal"
                job.finished_at = time.time()
                self.journal.append(
                    f"state/{job_id}", {"state": "done", "attempts": 0}
                )
                continue
            # Admitted but never finished: back in the queue.
            self.single_flight.claim(job)
            self.queue.restore(job)
            self.metrics.inc("service.recovered")

    # -- submission --------------------------------------------------------

    async def submit(
        self,
        scenario_name: Any,
        params: Mapping[str, Any] | None = None,
        *,
        deadline_s: float | None = None,
        wait: bool = False,
    ) -> tuple[Job, bool]:
        """Admit one submission; returns ``(job, deduped)``.

        The answer is always immediate: a warm job (DONE on return), an
        attached in-flight job (``deduped=True``), a queued job, or a
        typed rejection (:class:`ServiceDraining`,
        :class:`ServiceOverloaded`, :class:`CircuitOpen`,
        :class:`InvalidJobRequest`).
        """
        if self.draining:
            raise ServiceDraining()
        scenario = resolve_scenario(scenario_name)
        if deadline_s is None:
            deadline_s = self.config.default_deadline_s
        if deadline_s is not None and (
            not isinstance(deadline_s, (int, float))
            or isinstance(deadline_s, bool)
            or deadline_s <= 0
        ):
            raise InvalidJobRequest(
                f"deadline_s must be a positive number, got {deadline_s!r}"
            )
        material, point, content_hash = job_content_key(
            scenario, params or {}
        )

        existing = self.single_flight.get(content_hash)
        if existing is not None:
            existing.dedup_count += 1
            if wait:
                existing.waiters += 1
            self.metrics.inc("service.dedup.hits")
            return existing, True

        job = Job(
            self._allocate_id(),
            scenario=scenario.name,
            scenario_class=scenario.scenario_class,
            params=point,
            content_hash=content_hash,
            deadline_s=deadline_s,
            progress=scenario.progress,
        )
        job.key_material = material

        # Warm paths: the journal (this instance's WAL) first, then the
        # shared cache (global memo across instances and batch runs).
        if self.journal is not None:
            found, value = self.journal.replay(f"value/{content_hash}")
            if found:
                self._serve_warm(job, value, "journal", None)
                return job, False
        payload = self.cache.get(material)
        if payload is not None:
            self._serve_warm(
                job, payload["value"], "cache", payload.get("metrics")
            )
            return job, False

        breaker = self.breakers.for_class(scenario.scenario_class)
        try:
            breaker.allow()
        except CircuitOpen:
            self.metrics.inc("service.rejected.breaker")
            self._update_gauges()
            raise
        # Claim the single-flight slot *before* admission can yield to
        # the event loop: from this point a concurrent identical
        # submission attaches to this job instead of racing it.
        self.single_flight.claim(job)
        try:
            await self.queue.admit(job)
        except ServiceOverloaded:
            self.single_flight.release(job)
            breaker.abandon_probe()
            self.metrics.inc("service.rejected.queue_full")
            self._update_gauges()
            raise
        if self.journal is not None:
            self.journal.append(f"job/{job.job_id}", {
                "scenario": scenario.name,
                "params": point,
                "deadline_s": deadline_s,
            })
        self.jobs[job.job_id] = job
        if wait:
            job.waiters += 1
        self.metrics.inc("service.submitted")
        self._update_gauges()
        return job, False

    def _serve_warm(
        self, job: Job, value: Any, source: str, snapshot: Any
    ) -> None:
        job.state = JobState.DONE
        job.value = value
        job.source = source
        job.finished_at = time.time()
        self.jobs[job.job_id] = job
        if snapshot and self.metrics.enabled:
            self.metrics.merge(snapshot)
        # Volatile: whether a run is warm depends on cache state, which
        # deterministic metric exports must not see.
        self.metrics.inc(f"service.warm.{source}", volatile=True)

    def _allocate_id(self) -> str:
        job_id = f"j-{self._next_id:06d}"
        self._next_id += 1
        return job_id

    # -- lookup ------------------------------------------------------------

    def get(self, job_id: str) -> Job:
        job = self.jobs.get(job_id)
        if job is None:
            raise JobNotFound(job_id)
        return job

    def stats(self) -> dict[str, Any]:
        return {
            "jobs": len(self.jobs),
            "queue_depth": self.queue.depth(),
            "queue_capacity": self.queue.capacity,
            "inflight": len(self._running),
            "pool_size": self.config.pool_size,
            "draining": self.draining,
            "breakers": self.breakers.states(),
        }

    # -- cancellation ------------------------------------------------------

    async def cancel(self, job_id: str, reason: str) -> Job:
        """Cancel a queued or running job; idempotent once terminal."""
        job = self.get(job_id)
        if job.state.terminal:
            return job
        task = job.task
        await job.transition(JobState.CANCELLED, error={
            "type": "JobCancelled", "message": reason,
        })
        if task is not None and not task.done():
            task.cancel()
        if self.journal is not None:
            self.journal.append(f"state/{job.job_id}", {
                "state": "cancelled",
                "error": job.error,
                "attempts": job.attempts,
            })
        self.breakers.for_class(job.scenario_class).abandon_probe()
        self.single_flight.release(job)
        self.metrics.inc("service.cancelled")
        self._update_gauges()
        return job

    async def add_waiter(self, job: Job) -> None:
        job.waiters += 1

    async def release_waiter(self, job: Job) -> None:
        """A blocked client went away; the last one out turns off the
        lights (the job is cancelled, its worker reclaimed)."""
        job.waiters = max(0, job.waiters - 1)
        if job.waiters == 0 and not job.state.terminal:
            await self.cancel(
                job.job_id, "every waiting client disconnected"
            )

    # -- execution ---------------------------------------------------------

    async def _worker_loop(self) -> None:
        while True:
            job = await self.queue.take()
            if self.draining:
                # Shutdown began between this slot freeing up and the
                # queue handing it work: the job goes back for the
                # next instance instead of starting mid-drain.
                self.queue.restore(job)
                return
            self._running.add(job)
            self._update_gauges()
            job.task = asyncio.create_task(
                self._execute(job), name=f"job-{job.job_id}"
            )
            try:
                await job.task
            except asyncio.CancelledError:
                if self.draining:
                    # Pool teardown cancelled the attempt; do not pick
                    # up another job with the service going down.
                    raise
                # An individually-cancelled job: the slot keeps serving.
            except Exception:
                # _execute handles its own failures; a leak here must
                # not kill the pool slot.
                pass
            finally:
                self._running.discard(job)
                self._update_gauges()
            if self.draining:
                return

    def _policy(self, job: Job) -> ExecutionPolicy:
        retry = None
        if self.config.retries > 0:
            retry = RetryPolicy(
                timeout_s=self.config.retry_delay_s,
                backoff=2.0,
                max_retries=self.config.retries,
            )
        return ExecutionPolicy(
            point_timeout_s=self.config.point_timeout_s,
            retry=retry,
            deadline_s=job.deadline_s,
        )

    async def _execute(self, job: Job) -> None:
        if job.state is not JobState.QUEUED:
            return
        await job.transition(JobState.RUNNING)
        policy = self._policy(job)
        worker = SCENARIOS[job.scenario].worker
        # Live trace summaries ride the result pipe into the job, never
        # through its params, so caching and dedup never see them.
        on_progress = job.add_progress if job.progress is not None else None
        transient: list[dict[str, Any]] = []
        while True:
            job.attempts += 1
            await job.touch()
            try:
                value, wall, snapshot = await run_attempt(
                    worker, job.params, job.attempts,
                    timeout_s=policy.point_timeout_s, deadline=job.deadline,
                    label=f"job {job.job_id}", metrics=self.metrics,
                    scope="service", on_progress=on_progress,
                )
            except Exception as error:
                delay, final = policy.settle(
                    error, job.attempts, job.content_hash, job.deadline,
                    transient,
                )
                if final is not None:
                    await self._finish_failed(job, final, transient)
                    return
                self.metrics.inc("service.retries")
                await asyncio.sleep(delay)
            else:
                job.wall_seconds = wall
                await self._finish_done(job, value, snapshot)
                return

    # -- completion --------------------------------------------------------

    async def _finish_done(self, job: Job, value: Any, snapshot: Any) -> None:
        # Write-ahead: the value is durable before anyone is told the
        # job is done, so an acknowledged result survives kill -9.
        if self.journal is not None:
            self.journal.append(f"value/{job.content_hash}", value)
        self.cache.put(
            job.key_material, {"value": value, "metrics": snapshot}
        )
        if snapshot and self.metrics.enabled:
            self.metrics.merge(snapshot)
        await job.transition(JobState.DONE, value=value, source="computed")
        if self.journal is not None:
            self.journal.append(f"state/{job.job_id}", {
                "state": "done",
                "attempts": job.attempts,
                "wall_seconds": job.wall_seconds,
            })
        self.breakers.for_class(job.scenario_class).record_success()
        self.queue.observe_wall(job.wall_seconds)
        self.single_flight.release(job)
        self.metrics.inc("service.completed")
        self.metrics.observe(
            "service.job_wall_seconds", job.wall_seconds, volatile=True
        )
        self._update_gauges()

    async def _finish_failed(
        self, job: Job, error: dict[str, Any], transient: list[dict[str, Any]]
    ) -> None:
        record = dict(error)
        if transient:
            record["transient_errors"] = list(transient)
        await job.transition(JobState.FAILED, error=record)
        if self.journal is not None:
            self.journal.append(f"state/{job.job_id}", {
                "state": "failed",
                "error": record,
                "attempts": job.attempts,
            })
        breaker = self.breakers.for_class(job.scenario_class)
        was_open = breaker.state == OPEN
        breaker.record_failure()
        if breaker.state == OPEN and not was_open:
            self.metrics.inc("service.breaker.opened")
        self.single_flight.release(job)
        self.metrics.inc("service.failed")
        self._update_gauges()

    # -- gauges ------------------------------------------------------------

    def _update_gauges(self) -> None:
        self.metrics.gauge_set(
            "service.queue_depth", float(self.queue.depth()), volatile=True
        )
        self.metrics.gauge_set(
            "service.inflight", float(len(self._running)), volatile=True
        )
        for name, state in self.breakers.states().items():
            self.metrics.gauge_set(
                f"service.breaker.state.{name}",
                float(self.breakers.for_class(name).gauge_value),
                volatile=True,
            )
