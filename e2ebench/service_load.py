"""Seeded request mix and closed-loop clients for the ``service`` workload.

The generator talks to ``repro serve`` over plain HTTP the way ``repro
submit`` does: one connection per request, ``POST /jobs`` with
``wait=true``, then ``GET /jobs/<id>/result``.  A request's latency
runs from the submit to the last byte of the result.
"""

from __future__ import annotations

import http.client
import json
import random
import threading
import time
from dataclasses import dataclass, field

#: Machines the magicfilter scenario draws from (its cost does not
#: depend on the machine).
MACHINES = (
    "Intel Xeon X5550", "ST-Ericsson A9500 (Snowball)",
    "NVIDIA Tegra2 (Tibidabo node)", "Samsung Exynos 5 Dual",
)

#: Figure 3 ``--quick`` sweep: app -> (core counts, baseline cores).
FIG3_QUICK = {
    "linpack": ((1, 4, 16, 48), 1),
    "specfem3d": ((4, 16, 64), 4),
    "bigdft": ((1, 4, 16, 36), 1),
}

#: One block of cold requests: (scenario, app or machine, cores).
#: Every block has the same composition of the things that set a
#: point's cost (scenario, app, core count, booted machine), so the
#: cost of a cold phase does not depend on the seed; the seed picks
#: the remaining parameters and the order inside each block.
COLD_BLOCK = (
    ("cluster-elapsed", "linpack", 16),
    ("cluster-elapsed", "specfem3d", 16),
    ("cluster-elapsed", "bigdft", 16),
    ("cluster-energy", "linpack", 8),
    ("magicfilter", None, None),
    ("magicfilter", None, None),
    ("page-alloc", "ST-Ericsson A9500 (Snowball)", None),
    ("page-alloc", "NVIDIA Tegra2 (Tibidabo node)", None),
)

#: Every DUP_EVERY-th cold round both clients submit the same point at
#: once, so single-flight dedup attaches the second to the first.  The
#: shared point is always of DUP_KIND and the other rounds of a stretch
#: of DUP_EVERY draw exactly two COLD_BLOCKs, so every such stretch has
#: the same mix whatever the seed.
DUP_EVERY = 9
DUP_KIND = ("magicfilter", None, None)


def fig3_points(seed: int) -> list[tuple[str, dict]]:
    """The ``cluster-elapsed`` submissions matching ``repro fig3 --quick``."""
    return [
        ("cluster-elapsed", {"app": app, "cores": cores, "seed": seed})
        for app, (counts, _) in FIG3_QUICK.items()
        for cores in counts
    ]


class PointSource:
    """Draws distinct cold points, *kinds* in a shuffled cycle."""

    def __init__(self, rng: random.Random, taken: set, kinds) -> None:
        self.rng = rng
        self.taken = taken
        self.kinds = kinds
        self.block: list = []

    def _draw(self, kind) -> tuple[str, dict]:
        scenario, name, cores = kind
        rng = self.rng
        if scenario in ("cluster-elapsed", "cluster-energy"):
            return scenario, {
                "app": name, "cores": cores,
                "seed": rng.randrange(1000, 10**6),
            }
        if scenario == "magicfilter":
            n = rng.randrange(8, 40)
            return scenario, {
                "machine": rng.choice(MACHINES),
                "shape": [n, n, n],
                "unroll": rng.randrange(1, 13),
            }
        return scenario, {
            "machine": name,
            "fragmentation": round(rng.random() * 0.9, 4),
            "seed": rng.randrange(1000, 10**6),
            "array_bytes": rng.choice((16, 32, 64)) * 1024,
        }

    def next(self) -> tuple[str, dict]:
        if not self.block:
            self.block = list(self.kinds)
            self.rng.shuffle(self.block)
        kind = self.block.pop()
        while True:
            point = self._draw(kind)
            key = json.dumps(point, sort_keys=True)
            if key not in self.taken:
                self.taken.add(key)
                return point


@dataclass
class Plan:
    """Per-client request sequences for both phases."""

    cold: list[list[tuple[str, dict]]]
    warm: list[list[tuple[str, dict]]]
    dup_rounds: set[int]


def make_plan(seed: int, clients: int, cold_rounds: int, warm_requests: int) -> Plan:
    """The seeded cold and warm request sequences of every client."""
    rng = random.Random(f"e2ebench-service-{seed}")
    fig3 = fig3_points(seed)
    taken = {json.dumps(p, sort_keys=True) for p in fig3}
    source = PointSource(rng, taken, COLD_BLOCK)
    shared = PointSource(rng, taken, (DUP_KIND,))
    dup_rounds = {r for r in range(cold_rounds) if r % DUP_EVERY == DUP_EVERY - 1}
    cold: list[list] = [[] for _ in range(clients)]
    for r in range(cold_rounds):
        if r in dup_rounds:
            point = shared.next()
            for sequence in cold:
                sequence.append(point)
        else:
            for sequence in cold:
                sequence.append(source.next())
    # Zipf-weighted repeats: the k-th most popular point gets 1/k.  The
    # popularity ranks cycle through the kinds of point (batch-filled
    # fig3 points first, then each scenario) so that every seed gives
    # the same kinds the same weights; the seed picks the points.
    by_kind: dict[str, list] = {"fig3": list(fig3)}
    for sequence in cold:
        for point in sequence:
            bucket = by_kind.setdefault(point[0], [])
            if point not in bucket:
                bucket.append(point)
    for bucket in by_kind.values():
        rng.shuffle(bucket)
    targets = []
    while any(by_kind.values()):
        for kind in sorted(by_kind, key=lambda k: (k != "fig3", k)):
            if by_kind[kind]:
                targets.append(by_kind[kind].pop())
    weights = [1.0 / (k + 1) for k in range(len(targets))]
    warm = [
        rng.choices(targets, weights=weights, k=warm_requests)
        for _ in range(clients)
    ]
    return Plan(cold=cold, warm=warm, dup_rounds=dup_rounds)


@dataclass
class Reply:
    """One submit->result round trip."""

    scenario: str
    params: dict
    latency_s: float
    ok: bool
    error: str = ""
    job: dict = field(default_factory=dict)
    deduped: bool = False
    result: bytes = b""


def _request(port: int, method: str, path: str, body=None, timeout: float = 60.0):
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=timeout)
    try:
        payload = None if body is None else json.dumps(body).encode("utf-8")
        headers = {"Content-Type": "application/json"} if payload else {}
        conn.request(method, path, body=payload, headers=headers)
        response = conn.getresponse()
        return response.status, response.read()
    finally:
        conn.close()


def get_json(port: int, path: str):
    status, body = _request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}")
    return json.loads(body)


def get_text(port: int, path: str) -> str:
    status, body = _request(port, "GET", path)
    if status != 200:
        raise RuntimeError(f"GET {path}: HTTP {status}")
    return body.decode("utf-8")


def submit(port: int, scenario: str, params: dict) -> Reply:
    """Submit one job, wait for it, fetch its result bytes."""
    start = time.perf_counter()
    try:
        status, body = _request(
            port, "POST", "/jobs",
            {"scenario": scenario, "params": params, "wait": True},
        )
        if status != 200:
            return Reply(scenario, params, time.perf_counter() - start, False,
                         f"submit: HTTP {status} {body[:200]!r}")
        reply = json.loads(body)
        job = reply["job"]
        if job["state"] != "done":
            return Reply(scenario, params, time.perf_counter() - start, False,
                         f"job {job['job_id']} ended {job['state']}", job)
        status, result = _request(port, "GET", f"/jobs/{job['job_id']}/result")
        latency = time.perf_counter() - start
        if status != 200:
            return Reply(scenario, params, latency, False,
                         f"result: HTTP {status}", job)
        return Reply(scenario, params, latency, True, "", job,
                     bool(reply["deduped"]), result)
    except (OSError, http.client.HTTPException, ValueError, KeyError) as error:
        return Reply(scenario, params, time.perf_counter() - start, False,
                     f"{type(error).__name__}: {error}")


def run_closed_loop(port: int, sequences, dup_rounds=frozenset()) -> tuple[list[list[Reply]], float]:
    """Each client sends its next request only after the previous reply.

    Rounds listed in *dup_rounds* start on a barrier, so every client
    submits that round's (shared) point at the same moment.  Returns
    each client's replies and the phase's wall time.
    """
    barrier = threading.Barrier(len(sequences))
    replies: list[list[Reply]] = [[] for _ in sequences]

    def client(index: int) -> None:
        for r, (scenario, params) in enumerate(sequences[index]):
            if r in dup_rounds:
                try:
                    barrier.wait(timeout=120)
                except threading.BrokenBarrierError:
                    pass
            replies[index].append(submit(port, scenario, params))

    threads = [
        threading.Thread(target=client, args=(i,), daemon=True)
        for i in range(len(sequences))
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return replies, time.perf_counter() - start
