"""The HTTP front end, exercised through the real client.

The server runs its own event loop in a background thread; the test
body talks to it over a real socket with :class:`ServiceClient` —
exactly the way ``repro submit`` does.
"""

import asyncio
import json
import socket
import threading

import pytest

from repro.engine.hashing import canonical_json
from repro.errors import (
    InvalidJobRequest,
    JobNotFinished,
    JobNotFound,
    ServiceDraining,
    ServiceError,
)
from repro.metrics.registry import MetricsRegistry, use_registry
from repro.service import JobService, ServiceClient, ServiceConfig
from repro.service.http import ServiceServer


@pytest.fixture
def server(tmp_path):
    """A live service on an ephemeral port; yields a connected client."""
    started = threading.Event()
    state = {}

    def host():
        async def main():
            with use_registry(MetricsRegistry()):
                service = JobService(ServiceConfig(
                    cache_root=tmp_path / "cache",
                    pool_size=2,
                    queue_limit=8,
                ))
                srv = ServiceServer(
                    service, port=0, read_timeout_s=0.5
                )
                await srv.start()
                state["port"] = srv.port
                state["loop"] = asyncio.get_running_loop()
                state["stop"] = asyncio.Event()
                started.set()
                await state["stop"].wait()
                await srv.stop()

        asyncio.run(main())

    thread = threading.Thread(target=host, daemon=True)
    thread.start()
    assert started.wait(timeout=10), "server never came up"
    yield ServiceClient(f"http://127.0.0.1:{state['port']}", timeout_s=30)
    state["loop"].call_soon_threadsafe(state["stop"].set)
    thread.join(timeout=10)
    assert not thread.is_alive(), "server thread failed to stop"


class TestEndpoints:
    def test_health_and_stats(self, server):
        assert server.healthz() == {"status": "ok"}
        assert server.readyz() == {"status": "ready"}
        stats = server.stats()
        assert stats["pool_size"] == 2
        assert not stats["draining"]

    def test_submit_wait_returns_the_finished_job(self, server):
        reply = server.submit("squares", {"x": 9})
        job = reply["job"]
        assert job["state"] == "done"
        assert job["source"] == "computed"
        assert not reply["deduped"]
        # The raw result endpoint serves canonical JSON bytes.
        assert server.result_bytes(job["job_id"]) == (
            canonical_json({"value": 81}) + "\n"
        ).encode()
        assert server.result(job["job_id"]) == {"value": 81}

    def test_submit_no_wait_then_poll(self, server):
        reply = server.submit("squares", {"x": 5}, wait=False)
        job_id = reply["job"]["job_id"]
        for _ in range(200):
            status = server.status(job_id)["job"]
            if status["state"] == "done":
                break
        assert status["state"] == "done"
        assert any(
            j["job_id"] == job_id for j in server.jobs()["jobs"]
        )

    def test_typed_errors_cross_the_wire(self, server):
        with pytest.raises(InvalidJobRequest, match="unknown scenario"):
            server.submit("nope", {})
        with pytest.raises(JobNotFound):
            server.status("j-424242")
        reply = server.submit("sleepy", {"duration_s": 30.0}, wait=False)
        job_id = reply["job"]["job_id"]
        with pytest.raises(JobNotFinished):
            server.result(job_id)
        server.cancel(job_id)
        assert server.status(job_id)["job"]["state"] == "cancelled"

    def test_metrics_export_prometheus_text(self, server):
        server.submit("squares", {"x": 2})
        text = server.metrics()
        assert "repro_service_submitted" in text
        assert "repro_service_completed" in text

    def test_event_stream_replays_the_job_lifecycle(self, server):
        reply = server.submit("squares", {"x": 4}, wait=False)
        job_id = reply["job"]["job_id"]
        import http.client

        conn = http.client.HTTPConnection(
            server.host, server.port, timeout=30
        )
        try:
            conn.request("GET", f"/jobs/{job_id}/events")
            response = conn.getresponse()
            assert response.status == 200
            states = []
            for line in response:
                if not line.strip():
                    continue
                event = json.loads(line)
                states.append(event["state"])
                if event["state"] in ("done", "failed", "cancelled"):
                    break
            assert states[-1] == "done"
        finally:
            conn.close()

    def test_half_a_request_is_dropped_not_wedged(self, server):
        """Slow-loris hygiene: a stalled client times out server-side
        and the service keeps answering everyone else."""
        probe = socket.create_connection(
            (server.host, server.port), timeout=5
        )
        try:
            probe.sendall(b"POST /jobs HTTP/1.1\r\nContent-Le")
            # Never finish the headers; the read timeout (0.5s) fires.
            assert server.healthz() == {"status": "ok"}
            reply = server.submit("squares", {"x": 3})
            assert reply["job"]["state"] == "done"
        finally:
            probe.close()

    def test_unreachable_service_raises_a_typed_error(self):
        client = ServiceClient("http://127.0.0.1:1", timeout_s=1)
        with pytest.raises(ServiceError, match="cannot reach"):
            client.healthz()


def test_a_port_in_use_is_reported_after_the_service_shuts_down(tmp_path):
    async def scenario():
        service = JobService(ServiceConfig(cache_root=tmp_path / "cache"))
        with socket.socket() as holder:
            holder.bind(("127.0.0.1", 0))
            holder.listen()
            srv = ServiceServer(service, port=holder.getsockname()[1])
            with pytest.raises(ServiceError, match="cannot listen on"):
                await srv.start()
        # No worker task outlives the failed start.
        current = asyncio.current_task()
        assert [t for t in asyncio.all_tasks() if t is not current] == []
        with pytest.raises(ServiceDraining):
            await service.submit("squares", {"x": 2})

    asyncio.run(scenario())
