"""The asyncio HTTP/1.1 front end.

Hand-rolled on ``asyncio.start_server`` — the stdlib has no async
HTTP server, and the service needs behaviors ``http.server`` cannot
give: per-read slow-loris timeouts, client-disconnect detection while
a job runs, and chunk-less NDJSON event streaming.

Endpoints::

    GET    /healthz           liveness (always 200 while the loop runs)
    GET    /readyz            readiness (503 once draining)
    GET    /metrics           Prometheus text exposition
    GET    /stats             queue/pool/breaker snapshot (JSON)
    POST   /jobs              submit {"scenario", "params", ...}
    GET    /jobs              all job snapshots
    GET    /jobs/<id>         one job snapshot
    GET    /jobs/<id>/result  canonical result body (byte-identical)
    GET    /jobs/<id>/events  NDJSON state stream until terminal
    GET    /jobs/<id>/trace   NDJSON live trace summaries + final line
    DELETE /jobs/<id>         cancel

Failure semantics: every library error maps to its typed JSON payload
and status (429 overload with ``Retry-After``, 503 open breaker /
draining, 400 invalid, 404 unknown, 409 unfinished); a client that
stops reading mid-wait gets its job cancelled and the worker
reclaimed; a client that trickles headers is dropped on a timeout.
"""

from __future__ import annotations

import asyncio
import json
import signal
import sys
from typing import Any

from repro.engine.hashing import canonical_json
from repro.errors import (
    InvalidJobRequest,
    JobNotFinished,
    ServiceError,
)
from repro.metrics.export import to_prometheus
from repro.service.core import JobService
from repro.service.jobs import JobState

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    409: "Conflict",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

MAX_BODY_BYTES = 1 << 20


class ServiceServer:
    """One listening instance wrapping a :class:`JobService`."""

    def __init__(
        self,
        service: JobService,
        *,
        host: str = "127.0.0.1",
        port: int = 8642,
        read_timeout_s: float = 5.0,
    ) -> None:
        self.service = service
        self.host = host
        self.port = port
        self.read_timeout_s = read_timeout_s
        self._server: asyncio.Server | None = None
        self._stop = asyncio.Event()

    # -- lifecycle ---------------------------------------------------------

    async def start(self) -> None:
        await self.service.start()
        try:
            self._server = await asyncio.start_server(
                self._handle, self.host, self.port
            )
        except OSError as error:
            # The service already recovered its journal and started its
            # workers: close both before reporting.
            await self.service.shutdown(drain_s=0)
            raise ServiceError(
                f"cannot listen on {self.host}:{self.port}: {error}"
            ) from error
        self.port = self._server.sockets[0].getsockname()[1]

    async def run_until_signalled(self) -> dict[str, int]:
        """Serve until SIGTERM/SIGINT, then drain gracefully."""
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self._stop.set)
            except (NotImplementedError, RuntimeError):
                pass
        print(
            f"[serve] listening on http://{self.host}:{self.port}",
            file=sys.stderr, flush=True,
        )
        await self._stop.wait()
        print("[serve] draining...", file=sys.stderr, flush=True)
        return await self.stop()

    async def stop(self) -> dict[str, int]:
        """Stop admitting, drain the pool, persist the rest."""
        self.service.draining = True
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
        summary = await self.service.shutdown()
        print(
            f"[serve] drained {summary['drained']} running job(s), "
            f"persisted {summary['persisted']} for the next instance",
            file=sys.stderr, flush=True,
        )
        return summary

    # -- request plumbing --------------------------------------------------

    async def _handle(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request = await self._read_request(reader)
            if request is None:  # slow-loris or malformed: just drop
                return
            method, path, body = request
            await self._route(method, path, body, reader, writer)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except ServiceError as error:
            await self._send_error(writer, error)
        except Exception as error:  # a handler bug must not kill the loop
            await self._send(
                writer, 500,
                {"error": type(error).__name__, "message": str(error)},
            )
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(
        self, reader: asyncio.StreamReader
    ) -> tuple[str, str, bytes] | None:
        """Parse one request; ``None`` means the client was dropped.

        Every read carries the slow-loris timeout: a client trickling
        one header byte per second never holds a handler open.
        """
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=self.read_timeout_s
            )
            if not request_line.strip():
                return None
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2:
                return None
            method, path = parts[0].upper(), parts[1]
            headers: dict[str, str] = {}
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=self.read_timeout_s
                )
                if line in (b"\r\n", b"\n", b""):
                    break
                name, _, value = line.decode("latin-1").partition(":")
                headers[name.strip().lower()] = value.strip()
            length = int(headers.get("content-length", "0") or "0")
            if length > MAX_BODY_BYTES:
                return None
            body = b""
            if length:
                body = await asyncio.wait_for(
                    reader.readexactly(length), timeout=self.read_timeout_s
                )
            return method, path, body
        except (asyncio.TimeoutError, asyncio.IncompleteReadError,
                ValueError, UnicodeDecodeError):
            self.service.metrics.inc("service.slowloris_drops")
            return None

    async def _send(
        self,
        writer: asyncio.StreamWriter,
        status: int,
        payload: Any = None,
        *,
        raw: bytes | None = None,
        content_type: str = "application/json",
        extra_headers: dict[str, str] | None = None,
    ) -> None:
        if raw is None:
            raw = _ndjson(payload).encode("utf-8")
        reason = _REASONS.get(status, "Unknown")
        head = [
            f"HTTP/1.1 {status} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(raw)}",
            "Connection: close",
        ]
        for name, value in (extra_headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(("\r\n".join(head) + "\r\n\r\n").encode("latin-1"))
        writer.write(raw)
        await writer.drain()

    async def _send_error(
        self, writer: asyncio.StreamWriter, error: ServiceError
    ) -> None:
        extra = {}
        retry_after = getattr(error, "retry_after_s", None)
        if retry_after is not None:
            extra["Retry-After"] = f"{max(1, round(retry_after))}"
        await self._send(
            writer, error.status, error.to_payload(), extra_headers=extra
        )

    # -- routing -----------------------------------------------------------

    async def _route(
        self,
        method: str,
        path: str,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        path = path.split("?", 1)[0].rstrip("/") or "/"
        if method == "GET" and path == "/healthz":
            await self._send(writer, 200, {"status": "ok"})
        elif method == "GET" and path == "/readyz":
            if self.service.draining:
                await self._send(writer, 503, {"status": "draining"})
            else:
                await self._send(writer, 200, {"status": "ready"})
        elif method == "GET" and path == "/metrics":
            text = to_prometheus(self.service.metrics)
            await self._send(
                writer, 200,
                raw=text.encode("utf-8"),
                content_type="text/plain; version=0.0.4",
            )
        elif method == "GET" and path == "/stats":
            await self._send(writer, 200, self.service.stats())
        elif path == "/jobs" and method == "POST":
            await self._submit(body, reader, writer)
        elif path == "/jobs" and method == "GET":
            await self._send(writer, 200, {
                "jobs": [
                    job.snapshot()
                    for _, job in sorted(self.service.jobs.items())
                ],
            })
        elif path.startswith("/jobs/"):
            await self._job_route(method, path, reader, writer)
        else:
            await self._send(writer, 404, {
                "error": "NotFound", "message": f"no route for {path}",
            })

    async def _submit(
        self,
        body: bytes,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        try:
            request = json.loads(body.decode("utf-8")) if body else {}
        except (ValueError, UnicodeDecodeError) as error:
            raise InvalidJobRequest(
                f"request body is not valid JSON: {error}"
            ) from None
        if not isinstance(request, dict):
            raise InvalidJobRequest(
                f"request body must be a JSON object, "
                f"got {type(request).__name__}"
            )
        params = request.get("params") or {}
        if not isinstance(params, dict):
            raise InvalidJobRequest(
                f"params must be a JSON object, got {type(params).__name__}"
            )
        wait = bool(request.get("wait", False))
        job, deduped = await self.service.submit(
            request.get("scenario"),
            params,
            deadline_s=request.get("deadline_s"),
            wait=wait,
        )
        if wait and not job.state.terminal:
            # Hold the response until the job finishes — but watch the
            # connection: a waiter who hangs up releases their stake,
            # and the last one out cancels the job.
            try:
                disconnected = await self._await_or_disconnect(
                    job.wait_terminal(), reader
                )
            finally:
                await self.service.release_waiter(job)
            if disconnected:
                return
        elif wait:
            await self.service.release_waiter(job)
        payload = {"job": job.snapshot(), "deduped": deduped}
        status = 200 if job.state.terminal else 202
        await self._send(writer, status, payload)

    async def _await_or_disconnect(self, waitable, reader) -> bool:
        """Race *waitable* against client EOF; True means they left."""
        waiter = asyncio.ensure_future(waitable)
        gone = asyncio.ensure_future(reader.read(1))
        try:
            done, _ = await asyncio.wait(
                {waiter, gone}, return_when=asyncio.FIRST_COMPLETED
            )
            return waiter not in done
        finally:
            for task in (waiter, gone):
                if not task.done():
                    task.cancel()
            await asyncio.gather(waiter, gone, return_exceptions=True)

    async def _job_route(
        self,
        method: str,
        path: str,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        parts = path.split("/")  # ["", "jobs", id, tail?]
        job = self.service.get(parts[2])
        tail = parts[3] if len(parts) > 3 else ""
        if method == "DELETE" and not tail:
            job = await self.service.cancel(
                job.job_id, "cancelled by client request"
            )
            await self._send(writer, 200, {"job": job.snapshot()})
        elif method != "GET":
            await self._send(writer, 405, {
                "error": "MethodNotAllowed",
                "message": f"{method} not supported here",
            })
        elif not tail:
            await self._send(writer, 200, {"job": job.snapshot()})
        elif tail == "result":
            if job.state is not JobState.DONE:
                raise JobNotFinished(job.job_id, job.state.value)
            # canonical_json keeps re-served results byte-identical
            # across restarts: same value, same bytes, always.
            raw = (canonical_json(job.value) + "\n").encode("utf-8")
            await self._send(writer, 200, raw=raw)
        elif tail == "events":
            await self._stream_events(job, reader, writer)
        elif tail == "trace":
            await self._stream_trace(job, reader, writer)
        else:
            await self._send(writer, 404, {
                "error": "NotFound", "message": f"no route for {path}",
            })

    async def _stream(self, job, reader, writer, mark, lines) -> None:
        """An NDJSON stream for one job, until it is terminal.

        ``lines()`` returns the text the endpoint writes now; the loop
        writes again once ``mark()`` moves or the job ends, and stops
        after writing what a terminal job gave it.  A watcher counts as a
        waiter: if every watcher and waiter disconnects before the job
        finishes, it is cancelled.
        """
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Connection: close\r\n\r\n"
        )
        await self.service.add_waiter(job)
        try:
            while True:
                seen, ended = mark(), job.state.terminal
                writer.write(lines().encode("utf-8"))
                await writer.drain()
                if ended:
                    return
                if await self._await_or_disconnect(
                    job.wait_change(lambda: mark() != seen), reader
                ):
                    return
        except (ConnectionResetError, BrokenPipeError):
            return
        finally:
            await self.service.release_waiter(job)

    async def _stream_events(self, job, reader, writer) -> None:
        """One job snapshot per version, until the job is terminal."""
        await self._stream(
            job, reader, writer,
            lambda: job.version, lambda: _ndjson(job.snapshot()),
        )

    async def _stream_trace(self, job, reader, writer) -> None:
        """The job's live trace summaries as they arrive, then a final
        ``{"final": true, "state": ..., "summary": ...}`` line once the
        job is terminal.  Jobs whose scenario emits no progress get a
        404, so clients can tell "no such channel" from "no lines yet".
        """
        if job.progress is None:
            await self._send(writer, 404, {
                "error": "NotFound",
                "message": (
                    f"job {job.job_id} ({job.scenario}) emits no live "
                    "trace progress"
                ),
            })
            return
        sent = 0

        def lines() -> str:
            nonlocal sent
            new = job.progress[sent:]
            sent += len(new)
            if job.state.terminal:
                new.append(_ndjson({
                    "final": True,
                    "state": job.state.value,
                    "summary": (
                        job.value if job.state is JobState.DONE
                        else job.error
                    ),
                }))
            return "".join(new)

        await self._stream(
            job, reader, writer, lambda: len(job.progress), lines
        )


def _ndjson(payload: Any) -> str:
    return json.dumps(payload, sort_keys=True) + "\n"


async def serve(
    service: JobService,
    *,
    host: str = "127.0.0.1",
    port: int = 8642,
    read_timeout_s: float = 5.0,
) -> dict[str, int]:
    """Run the service until SIGTERM/SIGINT; returns the drain summary."""
    server = ServiceServer(
        service, host=host, port=port, read_timeout_s=read_timeout_s
    )
    await server.start()
    return await server.run_until_signalled()
