"""The parallel, cache-backed, fault-tolerant experiment executor.

The paper's harness (§V–§VI) is a sweep machine — stride/size grids,
unroll degrees 1–12, node counts 1–48 — and so is this reproduction.
:class:`ExperimentEngine` is the one execution path every sweep shares:

* **fan-out** — pending points run on forked worker processes (a plain
  loop at ``jobs=1`` or where the platform cannot fork), with results
  always assembled in submission order, so the output is byte-identical
  no matter how completion interleaves;
* **memoization** — completed points land in a content-addressed
  on-disk :class:`~repro.engine.cache.ResultCache` keyed by a stable
  hash of (code version, sweep invariants, point), so re-running a
  figure or extending a sweep only computes the missing points;
* **fault tolerance** — with an
  :class:`~repro.engine.resilience.ExecutionPolicy` configured, a hung
  worker is killed at its wall-clock budget, a crashed or
  result-mangling worker fails only its own point, and failed attempts
  are re-dispatched on a seeded backoff schedule until the budget runs
  out; every outcome is typed (:mod:`repro.errors`) and recorded
  per-point in the :class:`~repro.engine.manifest.RunManifest` —
  the run *terminates* with correct results or a typed error, never a
  silent wrong answer;
* **resumability** — with a :class:`~repro.engine.journal.RunJournal`
  attached, each completed point is fsynced to a write-ahead journal
  before it counts, and a resumed run replays the journal and executes
  only the tail, byte-identical to an uninterrupted run;
* **metrics** — every run yields a
  :class:`~repro.engine.manifest.RunManifest` with per-point wall
  times, attempts, hit/miss counts and worker utilization, printed by
  the CLI and asserted by the tests; retries, timeouts and worker
  crashes tick ``engine.retries`` / ``engine.timeouts`` /
  ``engine.worker_crashes``.

Workers must be *pure* with respect to their params — every bit of
state a point needs is built inside the worker from the params — and
must return a JSON-serializable payload.  Purity is also what makes
retries safe: re-running an attempt can only reproduce the same value.
An order-dependent experiment (e.g. the §V-A OS-scheduler protocol,
where sample N's value depends on the N-1 samples before it) is one
point whose worker runs the whole protocol: it caches as one unit, and
a lone pending point always runs in-process.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Awaitable, Callable, Mapping, Sequence

from repro.engine.cache import ResultCache
from repro.engine.hashing import content_key
from repro.engine.journal import RunJournal
from repro.engine.manifest import PointRecord, RunManifest
from repro.engine.resilience import ExecutionPolicy
from repro.errors import EngineError, PointTimeout, RetryExhausted, WorkerCrash
from repro.metrics.registry import (
    AnyRegistry,
    MetricsRegistry,
    current_registry,
    use_registry,
)
from repro.version import __version__

#: Bump to invalidate every cache entry written by older engines.
#: v2: entries carry an embedded sha256 integrity checksum.
#: v3: entries carry the worker's metrics snapshot, replayed on hits
#: so metrics exports are cache-state independent.
SCHEMA_VERSION = 3

#: How often a forked attempt checks that the process that forked it
#: is still alive.
_PARENT_POLL_S = 0.5

#: A sweep worker: params in, JSON-serializable payload out.
Worker = Callable[[Mapping[str, Any]], Any]


def point_key(
    sweep_key: Mapping[str, Any], point: Mapping[str, Any]
) -> dict[str, Any]:
    """The cache-key material of one point of a sweep keyed *sweep_key*.

    Includes the library version and the engine schema version, so
    upgrading either invalidates stale results; excludes the sweep
    *name*, so differently-labelled sweeps over the same invariants
    share entries.  The batch engine and the job service both key
    through here, so a point either computes is a hit for the other.
    """
    return {
        "schema": SCHEMA_VERSION,
        "code": __version__,
        "sweep": dict(sweep_key),
        "point": dict(point),
    }


@dataclass(frozen=True)
class SweepSpec:
    """One sweep: a worker, its points, and the run's invariants.

    ``key`` must carry everything (besides the point itself) that the
    worker's output depends on — machine name, app parameters, seed —
    because it becomes part of every point's cache key.  ``name`` is a
    display label only and never affects caching.
    """

    name: str
    worker: Worker
    points: tuple[Mapping[str, Any], ...]
    key: Mapping[str, Any] = field(default_factory=dict)

    def __init__(
        self,
        name: str,
        worker: Worker,
        points: Sequence[Mapping[str, Any]],
        *,
        key: Mapping[str, Any] | None = None,
    ) -> None:
        if not name:
            raise EngineError("a sweep needs a non-empty name")
        if not points:
            raise EngineError(f"sweep {name!r} has no points")
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "worker", worker)
        object.__setattr__(self, "points", tuple(dict(p) for p in points))
        object.__setattr__(self, "key", dict(key or {}))


@dataclass(frozen=True)
class SweepRun:
    """A completed sweep: payloads aligned with the spec's points."""

    spec: SweepSpec
    values: tuple[Any, ...]
    manifest: RunManifest

    def __iter__(self):
        return iter(zip(self.spec.points, self.values))


@dataclass(frozen=True)
class ReplicatedRun:
    """A multi-seed sweep: per-point replicate series in seed order.

    ``values[i][j]`` is base point ``i`` executed under ``seeds[j]``.
    Iterating yields ``(base_point, replicate_values)`` pairs, mirroring
    :class:`SweepRun`.
    """

    base_points: tuple[Mapping[str, Any], ...]
    seeds: tuple[int, ...]
    values: tuple[tuple[Any, ...], ...]
    manifest: RunManifest

    def __iter__(self):
        return iter(zip(self.base_points, self.values))


def _timed_call(
    worker: Worker, params: Mapping[str, Any], capture: bool = False
) -> tuple[Any, float, dict[str, Any] | None]:
    """Run one point; measure wall time (picklable top-level).

    With ``capture=True`` the worker runs under a fresh, thread-scoped
    metrics registry and its snapshot rides back with the value — the
    same path whether the point ran in-process or in a worker process,
    which is why ``--jobs 1`` and ``--jobs 4`` merge to identical
    metrics.
    """
    start = time.perf_counter()
    if capture:
        with use_registry(MetricsRegistry()) as registry:
            value = worker(params)
        return value, time.perf_counter() - start, registry.snapshot()
    value = worker(params)
    return value, time.perf_counter() - start, None


def _point_process_main(conn, worker, params, capture, parent, progress) -> None:
    """Child-process entry: run one point, ship the outcome over *conn*.

    Every outcome is a message: ``("ok", value, wall, snapshot)`` on
    success, ``("raise", exc)`` when the worker raised (so the parent
    can re-raise the original), ``("error", text)`` when the value or
    the exception itself cannot travel over the pipe.  A child that
    dies without sending anything is a crash, detected by the parent
    via its process sentinel and exit code.  With *progress* set, the
    worker's params gain a ``_progress`` callable, added after the fork
    and so never in a cache key; each call sends ``("progress",
    summary)`` ahead of the outcome.

    The child leads a process group of its own, so a signal sent to its
    parent's group (``kill %1``, a terminal's Ctrl-C) reaches only the
    parent, which kills (engine) or drains (service) its attempts.  It
    drops the wakeup fd the fork copied from the parent's event loop,
    which would forward a signal sent to this child into that loop,
    takes the default SIGTERM action, and ignores SIGINT, which must
    not come back as a ``KeyboardInterrupt`` the parent re-raises.  It
    also exits once *parent*, the pid that forked it, is gone; an
    interval timer drives that check, as a watcher thread cost ~2 ms
    per attempt.
    """
    os.setpgid(0, 0)
    signal.set_wakeup_fd(-1)
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    def exit_if_orphaned(signum, frame) -> None:
        if os.getppid() != parent:
            os._exit(1)

    signal.signal(signal.SIGALRM, exit_if_orphaned)
    signal.setitimer(signal.ITIMER_REAL, _PARENT_POLL_S, _PARENT_POLL_S)
    if progress:
        params = dict(
            params, _progress=lambda summary: conn.send(("progress", summary))
        )
    try:
        try:
            value, wall, snapshot = _timed_call(worker, params, capture)
        except BaseException as error:  # ship the failure, whatever it is
            try:
                conn.send(("raise", error))
            except Exception:
                conn.send(("error", f"{type(error).__name__}: {error}"))
            return
        try:
            conn.send(("ok", value, wall, snapshot))
        except Exception as error:  # unpicklable worker payload
            conn.send(
                ("error", f"unpicklable result: {type(error).__name__}: {error}")
            )
    finally:
        conn.close()


#: Reapers of forked attempts that replied before they exited, held
#: here because a running loop keeps only weak references to its tasks.
_REAPERS: set = set()


async def _reap(proc) -> None:
    """Reap *proc* once it exits, without blocking the loop; a reaper
    cancelled first (its loop is ending) kills the child."""
    import asyncio  # deferred: a run that forks nothing never loads it

    loop = asyncio.get_running_loop()
    gone = asyncio.Event()
    loop.add_reader(proc.sentinel, gone.set)
    try:
        await gone.wait()
    except asyncio.CancelledError:
        proc.kill()
        raise
    finally:
        loop.remove_reader(proc.sentinel)
        proc.join()


async def run_attempt(
    worker: Worker,
    params: Mapping[str, Any],
    attempt: int,
    *,
    timeout_s: float | None,
    deadline: float | None,
    label: str,
    metrics: AnyRegistry,
    scope: str,
    on_progress: Callable[[Any], Awaitable[None]] | None = None,
) -> tuple[Any, float, dict[str, Any] | None]:
    """One forked attempt at one point, supervised on the running loop.

    The engine's process pool and the job service both run every
    attempt through here.  The child's result pipe is its only channel
    to the parent: with ``on_progress`` given, each ``("progress",
    summary)`` message ahead of the outcome is awaited through it, in
    order.  The pipe and the child's process sentinel are registered on
    the event loop, so a worker that dies without reporting
    (``os._exit``, OOM kill, signal) is seen at once even while forked
    siblings hold inherited pipe ends.  The attempt's budget is
    ``timeout_s`` capped at ``deadline`` (a ``time.monotonic()``
    instant); a worker past it, or an attempt that fails or is
    cancelled, is killed outright.  An outcome returns as soon as it is
    read: a child still exiting is reaped once it has (or killed if the
    loop ends first), never waited for on the loop.  Returns ``(value,
    wall, snapshot)`` or raises the worker's own exception,
    :class:`~repro.errors.PointTimeout` or
    :class:`~repro.errors.WorkerCrash`; timeouts and crashes tick
    ``<scope>.timeouts`` and ``<scope>.worker_crashes``.
    """
    import asyncio  # deferred: a run that forks nothing never loads it

    budget = timeout_s
    if deadline is not None:
        left = max(0.0, deadline - time.monotonic())
        budget = left if budget is None else min(budget, left)
    loop = asyncio.get_running_loop()
    ctx = multiprocessing.get_context("fork")
    parent_conn, child_conn = ctx.Pipe(duplex=False)
    proc = ctx.Process(
        target=_point_process_main,
        args=(
            child_conn, worker, params, metrics.enabled, os.getpid(),
            on_progress is not None,
        ),
        daemon=True,
    )
    proc.start()
    child_conn.close()
    wake = asyncio.Event()
    pipe_fd = parent_conn.fileno()
    loop.add_reader(pipe_fd, wake.set)
    loop.add_reader(proc.sentinel, wake.set)
    ends = None if budget is None else time.monotonic() + budget
    try:
        while True:
            # Liveness first: a child already seen dead has written
            # everything it ever will, so the poll below cannot miss
            # its result.  The other order loses a reply sent between
            # an empty poll and the liveness check.
            dead = not proc.is_alive()
            if parent_conn.poll():
                try:
                    message = parent_conn.recv()
                except (EOFError, OSError):
                    message = None  # died mid-send
                except Exception as error:
                    message = (
                        "error", f"undecodable worker message: {error!r}",
                    )
                if message is None or message[0] != "progress":
                    break
                await on_progress(message[1])
            elif dead:
                message = None  # died without reporting
                break
            # A dead child's queued messages are finite: drain them.
            wait_s = None if ends is None else ends - time.monotonic()
            if wait_s is not None and wait_s <= 0 and not dead:
                metrics.inc(f"{scope}.timeouts")
                raise PointTimeout(budget, attempt=attempt)
            wake.clear()
            try:
                await asyncio.wait_for(wake.wait(), timeout=wait_s)
            except asyncio.TimeoutError:
                pass  # the budget check above fires next time round
    except BaseException:
        proc.kill()
        proc.join()  # a SIGKILLed child is reaped at once
        raise
    finally:
        loop.remove_reader(pipe_fd)
        loop.remove_reader(proc.sentinel)
        parent_conn.close()

    if proc.is_alive():
        reaper = loop.create_task(_reap(proc))
        _REAPERS.add(reaper)
        reaper.add_done_callback(_REAPERS.discard)
        if message is None:
            await reaper  # its pipe closed first; its exit code follows
    if message is None:
        metrics.inc(f"{scope}.worker_crashes")
        raise WorkerCrash(
            f"worker for {label} died with exit code {proc.exitcode}",
            kind="exit", exitcode=proc.exitcode, attempt=attempt,
        )
    if message[0] == "ok":
        _, value, wall, snapshot = message
        return value, wall, snapshot
    if message[0] == "raise":
        raise message[1]
    metrics.inc(f"{scope}.worker_crashes")
    raise WorkerCrash(message[1], kind="protocol", attempt=attempt)


class ExperimentEngine:
    """Shared executor for every sweep in the repo.

    One engine per invocation (a CLI run, a test); it accumulates the
    manifests of every sweep it executed in :attr:`manifests`.
    ``policy`` configures timeouts and retries (default: none, fully
    backward-compatible); ``journal`` attaches a write-ahead journal
    for resumable runs.
    """

    def __init__(
        self,
        *,
        cache: ResultCache | None = None,
        jobs: int = 1,
        manifest_dir: str | Path | None = None,
        echo: Callable[[str], None] | None = None,
        policy: ExecutionPolicy | None = None,
        journal: RunJournal | None = None,
    ) -> None:
        if jobs < 1:
            raise EngineError(f"jobs must be >= 1, got {jobs}")
        self.cache = cache
        self.jobs = jobs
        self.manifest_dir = Path(manifest_dir) if manifest_dir else None
        self.echo = echo
        self.policy = policy if policy is not None else ExecutionPolicy()
        self.journal = journal
        self.manifests: list[RunManifest] = []
        self.metrics = current_registry()

    # -- keys --------------------------------------------------------------

    @staticmethod
    def point_key(spec: SweepSpec, params: Mapping[str, Any]) -> dict[str, Any]:
        """The cache-key material of one point of *spec*
        (:func:`point_key`)."""
        return point_key(spec.key, params)

    # -- execution ---------------------------------------------------------

    def _pick_executor(self, pending: int) -> str:
        if (
            self.jobs <= 1 or pending <= 1
            or "fork" not in multiprocessing.get_all_start_methods()
        ):
            return "serial"
        return "process"

    def run(self, spec: SweepSpec) -> SweepRun:
        """Execute *spec*, reusing cached and journaled points.

        Deterministic order always; with a fault-tolerance policy the
        run either returns results identical to a fault-free run or
        raises a typed error (:class:`~repro.errors.RetryExhausted`,
        :class:`~repro.errors.JournalError`).
        """
        started = time.perf_counter()
        run_deadline = (
            None if self.policy.deadline_s is None
            else time.monotonic() + self.policy.deadline_s
        )
        n = len(spec.points)
        keys = [self.point_key(spec, p) for p in spec.points]
        hashes = [content_key(key) for key in keys]
        values: list[Any] = [None] * n
        hit: list[bool] = [False] * n
        resumed: list[bool] = [False] * n
        walls: list[float] = [0.0] * n
        attempts: list[int] = [0] * n
        snapshots: list[dict[str, Any] | None] = [None] * n
        transient: dict[int, list[dict[str, Any]]] = {}
        failures: dict[int, dict[str, Any]] = {}
        failure_exc: dict[int, BaseException] = {}
        capture = self.metrics.enabled
        timeout_s = self.policy.point_timeout_s

        def complete(index, value, wall, snapshot, attempt) -> None:
            values[index] = value
            walls[index] = wall
            snapshots[index] = snapshot
            attempts[index] = attempt
            # Write-ahead: the journal record is durable *before* the
            # point counts as done anywhere else.
            if self.journal is not None:
                self.journal.append(hashes[index], value)
            if self.cache is not None:
                # The worker's metrics snapshot rides along with the
                # value, so a later cache hit can replay exactly the
                # metrics the computation would have produced — a warm
                # rerun's deterministic export is byte-identical to the
                # cold run's.
                self.cache.put(
                    keys[index], {"value": value, "metrics": snapshot}
                )

        def fail(index, attempt, error: BaseException) -> float | None:
            """Record a failed attempt; a float means retry after it."""
            delay, final = self.policy.settle(
                error, attempt, hashes[index], run_deadline,
                transient.setdefault(index, []),
            )
            if final is None:
                self.metrics.inc("engine.retries")
                return delay
            attempts[index] = attempt
            failures[index] = final
            failure_exc[index] = error
            return None

        with self.metrics.span(f"engine/{spec.name}"):
            pending: list[int] = []
            for index, key_hash in enumerate(hashes):
                if self.journal is not None:
                    found, value = self.journal.replay(key_hash)
                    if found:
                        values[index] = value
                        resumed[index] = True
                        continue
                if self.cache is not None:
                    before = self.cache.corruptions
                    payload = self.cache.get(keys[index])
                    if self.cache.corruptions > before:
                        transient.setdefault(index, []).append({
                            "type": "CacheCorruption",
                            "message": "corrupt cache entry quarantined; "
                                       "point recomputed",
                            "attempt": 0,
                        })
                    if payload is not None:
                        values[index] = payload["value"]
                        hit[index] = True
                        if capture:
                            # Entries written without metrics enabled
                            # carry no snapshot; those hits replay
                            # nothing (documented cache contract).
                            snapshots[index] = payload.get("metrics")
                        continue
                pending.append(index)

            executor_kind = self._pick_executor(len(pending))
            if executor_kind == "process":
                self._run_processes(
                    spec, pending, complete, fail, timeout_s, run_deadline
                )
            elif pending:
                self._run_serial(
                    spec, pending, capture, complete, fail, timeout_s
                )

        # Historical contract: without a fault-tolerance policy, a
        # worker exception propagates as itself (typed engine failures
        # — crashes, protocol errors — still surface structured).
        if failures and not self.policy.fault_tolerant:
            raise failure_exc[min(failures)]

        manifest = RunManifest(
            sweep=spec.name,
            key=dict(spec.key),
            jobs=self.jobs,
            executor=executor_kind,
            elapsed_seconds=time.perf_counter() - started,
            points=[
                PointRecord(
                    index=index,
                    params=dict(spec.points[index]),
                    key=hashes[index],
                    cache_hit=hit[index],
                    wall_seconds=walls[index],
                    attempts=attempts[index],
                    resumed=resumed[index],
                    error=failures.get(index),
                    transient_errors=tuple(transient.get(index, ())),
                )
                for index in range(n)
            ],
        )
        self.manifests.append(manifest)
        if capture:
            self._record_metrics(manifest, snapshots)
        if self.manifest_dir is not None:
            manifest.save(self.manifest_dir)
        if self.echo is not None:
            self.echo(manifest.summary())
        if failures:
            raise RetryExhausted(spec.name, [
                {
                    "index": index,
                    "params": dict(spec.points[index]),
                    "attempts": attempts[index],
                    **failures[index],
                }
                for index in sorted(failures)
            ])
        return SweepRun(spec=spec, values=tuple(values), manifest=manifest)

    # -- executors ---------------------------------------------------------

    def _run_serial(
        self, spec, pending, capture, complete, fail, timeout_s
    ) -> None:
        """The in-process loop: retries work, timeouts are post-hoc.

        Serial execution cannot preempt a running point; an overrun is
        surfaced through the ``engine.timeouts`` counter but the value
        (which is correct — workers are pure) is kept.
        """
        for index in pending:
            attempt = 0
            while True:
                attempt += 1
                try:
                    value, wall, snapshot = _timed_call(
                        spec.worker, spec.points[index], capture
                    )
                except Exception as error:
                    delay = fail(index, attempt, error)
                    if delay is None:
                        break
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if timeout_s is not None and wall > timeout_s:
                    self.metrics.inc("engine.timeouts")
                complete(index, value, wall, snapshot, attempt)
                break

    def _run_processes(
        self, spec, pending, complete, fail, timeout_s, run_deadline
    ) -> None:
        """The supervised process pool: full crash/hang isolation.

        One asyncio task per pending point walks that point's attempts,
        each a forked :func:`run_attempt` capped by the point timeout
        and the run deadline.  A task holds one of ``jobs`` slots only
        while an attempt runs, never during a backoff.  A typed abort
        raised by ``complete`` (e.g. the journal's disk filled) ends
        ``gather``; ``asyncio.run`` then cancels the sibling tasks, and
        each cancelled attempt kills its worker.
        """
        import asyncio  # deferred: a run that forks nothing never loads it

        async def point(index: int, slots: asyncio.Semaphore) -> None:
            attempt = 0
            while True:
                attempt += 1
                async with slots:
                    try:
                        value, wall, snapshot = await run_attempt(
                            spec.worker, spec.points[index], attempt,
                            timeout_s=timeout_s, deadline=run_deadline,
                            label=f"point #{index}", metrics=self.metrics,
                            scope="engine",
                        )
                    except Exception as error:
                        delay = fail(index, attempt, error)
                    else:
                        complete(index, value, wall, snapshot, attempt)
                        return
                if delay is None:
                    return
                await asyncio.sleep(delay)

        async def pool() -> None:
            slots = asyncio.Semaphore(self.jobs)
            await asyncio.gather(*(point(index, slots) for index in pending))

        asyncio.run(pool())

    # -- metrics -----------------------------------------------------------

    def _record_metrics(
        self,
        manifest: RunManifest,
        snapshots: Sequence[Mapping[str, Any] | None],
    ) -> None:
        """Migrate one run's manifest stats onto the ambient registry.

        Point counts and cache hit/miss totals are deterministic;
        wall-clock-derived values (per-point wall time, worker
        occupancy) are recorded as volatile so deterministic exports
        drop them.  Worker snapshots merge in submission order.
        """
        metrics = self.metrics
        metrics.inc("engine.points", len(manifest.points))
        # Hit/miss totals depend on what previous processes left in the
        # cache, not on the sweep itself — volatile, so deterministic
        # exports stay identical between cold and warm reruns.
        metrics.inc("engine.cache.hits", manifest.hits, volatile=True)
        metrics.inc("engine.cache.misses", manifest.misses, volatile=True)
        metrics.inc("engine.sweeps", 1)
        metrics.gauge_set("engine.jobs", self.jobs, volatile=True)
        metrics.gauge_max(
            "engine.worker_utilization", manifest.worker_utilization,
            volatile=True,
        )
        for record in manifest.points:
            if not record.cache_hit and not record.resumed:
                metrics.observe(
                    "engine.point_wall_seconds", record.wall_seconds,
                    volatile=True,
                )
        for snapshot in snapshots:
            if snapshot is not None:
                metrics.merge(snapshot)

    def run_replicated(
        self,
        spec: SweepSpec,
        seeds: Sequence[int],
    ) -> ReplicatedRun:
        """Execute every point of *spec* once per seed (§V-A-1 rigor).

        The replication is first-class: the full ``points x seeds``
        grid is one sweep, fanned across the worker pool together and
        memoized per ``(point, seed)`` in the content-addressed cache —
        extending a sweep from 3 to 5 seeds recomputes only the two
        new replicates, and a warm rerun recomputes nothing.  The base
        points must not already carry ``seed``; the sweep ``key``
        must not either, so replicate series share cache entries with
        any other run of the same experiment at the same seed.
        """
        seeds = tuple(int(seed) for seed in seeds)
        if not seeds:
            raise EngineError(f"sweep {spec.name!r} needs at least one seed")
        if len(set(seeds)) != len(seeds):
            raise EngineError(
                f"sweep {spec.name!r} has duplicate seeds: {list(seeds)}"
            )
        for point in spec.points:
            if "seed" in point:
                raise EngineError(
                    f"sweep {spec.name!r} base points already carry "
                    "'seed'; replication would overwrite it"
                )
        expanded = SweepSpec(
            spec.name,
            spec.worker,
            [
                dict(point, seed=seed)
                for point in spec.points
                for seed in seeds
            ],
            key=spec.key,
        )
        run = self.run(expanded)
        per_point = len(seeds)
        grouped = tuple(
            tuple(run.values[start:start + per_point])
            for start in range(0, len(run.values), per_point)
        )
        return ReplicatedRun(
            base_points=spec.points,
            seeds=seeds,
            values=grouped,
            manifest=run.manifest,
        )

    # -- aggregate stats ---------------------------------------------------

    @property
    def total_hits(self) -> int:
        """Cache hits across every sweep this engine ran."""
        return sum(m.hits for m in self.manifests)

    @property
    def total_misses(self) -> int:
        """Computed points across every sweep this engine ran."""
        return sum(m.misses for m in self.manifests)
