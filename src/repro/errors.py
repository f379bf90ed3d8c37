"""Exception hierarchy for the repro library.

All exceptions raised deliberately by this library derive from
:class:`ReproError`, so callers can catch library failures without
swallowing programming errors such as :class:`TypeError`.
"""

from __future__ import annotations

from typing import Any, Mapping, Sequence


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ConfigurationError(ReproError):
    """A model or experiment was configured with inconsistent parameters."""


class SimulationError(ReproError):
    """A simulation reached an invalid internal state."""


class AllocationError(ReproError):
    """The simulated OS page allocator could not satisfy a request."""


class NetworkError(SimulationError):
    """The cluster network simulation reached an invalid state."""


class DeadlockError(SimulationError):
    """An MPI job drained its event queue with ranks still blocked.

    ``stuck`` holds ``(rank_name, pending_request)`` pairs describing
    what each blocked rank was waiting for when the queue emptied.
    """

    def __init__(self, stuck: list[tuple[str, str]]) -> None:
        self.stuck = list(stuck)
        shown = ", ".join(f"{name} waiting on {request}" for name, request in self.stuck[:8])
        more = "..." if len(self.stuck) > 8 else ""
        super().__init__(f"deadlock: {len(self.stuck)} rank(s) blocked: {shown}{more}")


class FaultError(SimulationError):
    """Base class for injected-fault failures surfaced by the simulator."""


class RankFailure(FaultError):
    """One or more MPI ranks died (node crash) and the failure was
    detected; carries the structured who/when of the failure."""

    def __init__(
        self,
        failed_ranks: tuple[int, ...],
        *,
        crash_time_s: float,
        detected_time_s: float,
        node: int | None = None,
    ) -> None:
        self.failed_ranks = tuple(failed_ranks)
        self.crash_time_s = crash_time_s
        self.detected_time_s = detected_time_s
        self.node = node
        super().__init__(
            f"rank(s) {list(self.failed_ranks)} failed at t={crash_time_s:.4f}s "
            f"(detected t={detected_time_s:.4f}s, "
            f"latency {self.detection_latency_s * 1e3:.1f}ms)"
        )

    @property
    def detection_latency_s(self) -> float:
        """Seconds between the crash and its detection."""
        return self.detected_time_s - self.crash_time_s


class LinkFailure(FaultError):
    """A point-to-point transfer exhausted its retry budget."""

    def __init__(self, src: int, dst: int, *, attempts: int, waited_s: float) -> None:
        self.src = src
        self.dst = dst
        self.attempts = attempts
        self.waited_s = waited_s
        super().__init__(
            f"send {src} -> {dst} failed after {attempts} attempts "
            f"({waited_s:.3f}s of retry backoff)"
        )


class CheckpointError(FaultError):
    """The checkpoint/restart orchestration could not make progress."""


class TraceError(ReproError):
    """A trace could not be recorded, exported or parsed."""


class SearchError(ReproError):
    """An auto-tuning search was mis-configured or exhausted."""


class DataError(ReproError):
    """Embedded reference data (e.g. Top500 series) failed validation."""


class UnmeasurableClaim(ReproError):
    """A paper claim's value cannot be computed from this run (e.g. a
    ratio over samples the run did not draw)."""


class EngineError(ReproError):
    """The experiment engine was mis-used: an unhashable cache key, a
    non-JSON worker payload, or a corrupt cache/manifest store."""


class PointTimeout(EngineError):
    """A sweep point exceeded its per-attempt wall-clock budget.

    In process mode the engine kills the hung worker and, if retry
    budget remains, re-dispatches the point; the exhausted form is
    surfaced inside :class:`RetryExhausted`.
    """

    def __init__(self, timeout_s: float, *, attempt: int = 1) -> None:
        self.timeout_s = timeout_s
        self.attempt = attempt
        super().__init__(
            f"point exceeded its {timeout_s:g}s wall-clock budget "
            f"(attempt {attempt})"
        )


class WorkerCrash(EngineError):
    """A worker process died, or its result could not travel back.

    ``kind`` distinguishes the failure modes: ``"exit"`` (the process
    died — killed, OOM, ``os._exit``), ``"protocol"`` (the result or
    the worker's exception could not be pickled across the pipe).
    """

    def __init__(
        self,
        detail: str,
        *,
        kind: str = "exit",
        exitcode: int | None = None,
        attempt: int = 1,
    ) -> None:
        self.kind = kind
        self.exitcode = exitcode
        self.attempt = attempt
        super().__init__(detail)


class CacheCorruption(EngineError):
    """A result-cache shard failed its integrity check.

    Raised by strict reads and carried in verify reports; the default
    cache behavior is to quarantine the entry and report a miss.
    """

    def __init__(self, path: Any, reason: str) -> None:
        self.path = str(path)
        self.reason = reason
        super().__init__(f"corrupt cache entry {path}: {reason}")


class JournalError(EngineError):
    """The write-ahead sweep journal could not be written or parsed
    (disk full mid-run, garbage in a non-tail record on resume)."""

    def __init__(self, reason: str, *, path: Any = None) -> None:
        self.path = None if path is None else str(path)
        super().__init__(reason if path is None else f"{reason} ({path})")


class RetryExhausted(EngineError):
    """One or more sweep points failed every attempt of their budget.

    ``failures`` holds one record per dead point: ``index``, ``params``,
    ``attempts``, and the final error's ``type`` and ``message``.
    """

    def __init__(
        self, sweep: str, failures: Sequence[Mapping[str, Any]]
    ) -> None:
        self.sweep = sweep
        self.failures = [dict(f) for f in failures]
        shown = "; ".join(
            f"point #{f['index']}: {f['type']}: {f['message']}"
            for f in self.failures[:4]
        )
        more = " ..." if len(self.failures) > 4 else ""
        super().__init__(
            f"sweep {sweep!r}: {len(self.failures)} point(s) failed after "
            f"exhausting their retry budget: {shown}{more}"
        )


class MetricsError(ReproError):
    """The metrics subsystem was mis-used: a decreasing counter, a
    type-conflicting metric name, mismatched histogram buckets on a
    merge, or an export that failed schema validation."""


class ServiceError(ReproError):
    """Base class for failures of the simulation job service.

    Every subclass carries ``status`` (the HTTP status code the server
    answers with) and serializes via :meth:`to_payload`, so a client
    always receives the same typed record the in-process API raises.
    """

    status = 500

    def to_payload(self) -> dict[str, Any]:
        """The JSON body the HTTP layer sends for this error."""
        return {"error": type(self).__name__, "message": str(self)}


class InvalidJobRequest(ServiceError):
    """A job submission was malformed: unknown scenario, missing or
    unknown parameters, or non-JSON values."""

    status = 400


class JobNotFound(ServiceError):
    """The requested job id is unknown to this service instance."""

    status = 404

    def __init__(self, job_id: str) -> None:
        self.job_id = job_id
        super().__init__(f"unknown job {job_id!r}")


class JobNotFinished(ServiceError):
    """A result was requested for a job that has not completed."""

    status = 409

    def __init__(self, job_id: str, state: str) -> None:
        self.job_id = job_id
        self.state = state
        super().__init__(f"job {job_id} has no result yet (state: {state})")


class ServiceOverloaded(ServiceError):
    """Admission control rejected a submission: the bounded job queue
    is at capacity.  ``retry_after_s`` estimates when capacity should
    free up (the HTTP layer mirrors it as a ``Retry-After`` header)."""

    status = 429

    def __init__(self, *, depth: int, capacity: int, retry_after_s: float) -> None:
        self.depth = depth
        self.capacity = capacity
        self.retry_after_s = retry_after_s
        super().__init__(
            f"job queue at capacity ({depth}/{capacity}); "
            f"retry in {retry_after_s:g}s"
        )

    def to_payload(self) -> dict[str, Any]:
        payload = super().to_payload()
        payload["depth"] = self.depth
        payload["capacity"] = self.capacity
        payload["retry_after_s"] = self.retry_after_s
        return payload


class CircuitOpen(ServiceError):
    """The scenario class's circuit breaker is open: recent jobs of
    this class kept crashing workers, so new ones are shed instead of
    consuming pool capacity.  Other scenario classes are unaffected."""

    status = 503

    def __init__(self, scenario_class: str, *, retry_after_s: float) -> None:
        self.scenario_class = scenario_class
        self.retry_after_s = retry_after_s
        super().__init__(
            f"circuit open for scenario class {scenario_class!r}; "
            f"probe in {retry_after_s:g}s"
        )

    def to_payload(self) -> dict[str, Any]:
        payload = super().to_payload()
        payload["scenario_class"] = self.scenario_class
        payload["retry_after_s"] = self.retry_after_s
        return payload


class ServiceDraining(ServiceError):
    """The service received a shutdown signal and stopped admitting
    new jobs; running jobs are draining and queued ones are persisted
    for the next instance."""

    status = 503

    def __init__(self) -> None:
        super().__init__("service is draining; not admitting new jobs")


class JobCancelled(ServiceError):
    """A job was cancelled — explicitly, or because every waiting
    client disconnected before it finished."""

    status = 409

    def __init__(self, job_id: str, reason: str) -> None:
        self.job_id = job_id
        self.reason = reason
        super().__init__(f"job {job_id} cancelled: {reason}")
