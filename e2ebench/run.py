"""End-to-end benchmark of the reproduction, driven from outside the program.

Usage, from the repository root::

    python3 e2ebench/run.py --workload reproduce --seed 7 --seconds 30 --trace 0

Workloads (see README.md in this directory for the rationale):

* ``reproduce``  - cold ``repro reproduce-all --jobs 2`` into an empty
  cache, then the same command twice more on that cache (warm);
* ``trace-fig4`` - ``repro trace-report`` (batch), then ``repro
  trace-report --stream``, on the Figure 4 BigDFT 36-rank trace;
* ``service``    - ``repro serve`` over a cache a batch ``repro fig3
  --quick`` filled during set-up, driven by two closed-loop clients:
  a cold phase of new points, then a warm phase of Zipf repeats.

The program is only ever run as ``python -m repro`` (or, with ``--trace
1``, through ``tracer.py``) and spoken to over HTTP.  With ``--trace
0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the workload runs untraced and
traced in turn and the line carries the per-layer metrics.  Every
output check that fails counts as a failed operation, and the exit
code is 1 when any operation failed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import layers
import service_load

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
TRACER = BENCH / "tracer.py"
GOLDEN = ROOT / "tests" / "golden"
#: The seed the goldens were made with; other seeds skip golden checks.
DEFAULT_SEED = 7
#: Set-ups per run of the service workload, before and after its timed
#: phases; its ``setup_s`` is the fastest.
SERVICE_SETUPS = 3
SERVICE_SETUPS_AFTER = 2
#: Longest any one program process may run before it is killed.
PROCESS_TIMEOUT_S = 150.0
#: Closed-loop clients of the service workload.
CLIENTS = 2
#: Loop count of the machine-speed probe, and the probe's time on the
#: machine the baseline was measured on.  The phase times of the CLI
#: workloads are reported at that speed: measured time *
#: PROBE_NOMINAL_S / fastest probe of the run.
PROBE_LOOPS = 300_000
PROBE_NOMINAL_S = 0.016
#: Requests per client in one chunk of the warm service phase: the
#: phase is cut into consecutive chunks, and a chunk is valued by its
#: mean latency.
WARM_CHUNK = 25


# ---------------------------------------------------------------------------
# Running the program
# ---------------------------------------------------------------------------


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes


def wait_process(proc: subprocess.Popen, timeout_s: float) -> tuple[int, float]:
    """Reap *proc*; its exit code and peak RSS in MB.

    ``wait4`` reports the largest RSS of the process and of every
    descendant it reaped, so a server's forked workers count too.
    """
    timer = threading.Timer(timeout_s, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class Program:
    """Runs ``python -m repro`` in the checkout, traced or not."""

    def __init__(self, work: Path) -> None:
        self.work = work
        tmp = work / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            TMPDIR=str(tmp),
            REPRO_CACHE_DIR=str(work / "default-cache"),
        )
        self.peak_rss_mb = 0.0
        self._spawned = 0

    def command(self, args, trace_dir: Path | None = None) -> list[str]:
        if trace_dir is None:
            return [sys.executable, "-m", "repro", *map(str, args)]
        return [sys.executable, str(TRACER), str(trace_dir), *map(str, args)]

    def spawn(self, cmd, stdout, stderr) -> subprocess.Popen:
        return subprocess.Popen(
            cmd, cwd=ROOT, env=self.env, stdin=subprocess.DEVNULL,
            stdout=stdout, stderr=stderr,
        )

    def run(self, args, trace_dir: Path | None = None) -> Outcome:
        self._spawned += 1
        out = self.work / f"out-{self._spawned}"
        err = self.work / f"err-{self._spawned}"
        with open(out, "wb") as so, open(err, "wb") as se:
            start = time.perf_counter()
            proc = self.spawn(self.command(args, trace_dir), so, se)
            code, rss = wait_process(proc, PROCESS_TIMEOUT_S)
            wall = time.perf_counter() - start
        self.peak_rss_mb = max(self.peak_rss_mb, rss)
        outcome = Outcome(wall, rss, code, out.read_bytes(), err.read_bytes())
        out.unlink()
        err.unlink()
        return outcome

    def compile_sources(self) -> None:
        """Byte-compile ``src`` so no set-up or timed run pays for it."""
        proc = self.spawn(
            [sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
            subprocess.DEVNULL, subprocess.DEVNULL,
        )
        if wait_process(proc, PROCESS_TIMEOUT_S)[0] != 0:
            raise RuntimeError("byte-compiling src failed")


class Server:
    """One ``repro serve`` process on an ephemeral port."""

    def __init__(self, program: Program, cache_dir: Path, run_dir: Path,
                 trace_dir: Path | None = None) -> None:
        self.program = program
        self.log = run_dir.parent / f"{run_dir.name}-serve.log"
        args = [
            "serve", "--port", "0", "--pool", "2", "--queue-limit", "16",
            "--run-dir", run_dir, "--cache-dir", cache_dir,
        ]
        with open(self.log, "wb") as log:
            self.proc = program.spawn(
                program.command(args, trace_dir), subprocess.DEVNULL, log
            )
        self.port = self._wait_ready()

    def _wait_ready(self) -> int:
        deadline = time.monotonic() + 60.0
        port = None
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(
                    f"repro serve exited with {self.proc.returncode}: "
                    + self.log.read_text(errors="replace")[-500:]
                )
            if port is None:
                found = re.search(
                    r"listening on http://[^:]+:(\d+)",
                    self.log.read_text(errors="replace"),
                )
                port = int(found.group(1)) if found else None
            if port is not None:
                try:
                    if service_load.get_json(port, "/readyz")["status"] == "ready":
                        return port
                except (OSError, RuntimeError, ValueError):
                    pass
            time.sleep(0.005)
        self.proc.kill()
        wait_process(self.proc, PROCESS_TIMEOUT_S)
        raise RuntimeError("repro serve did not become ready within 60 s")

    def stop(self) -> int:
        """SIGTERM (graceful drain), then reap; the exit code."""
        self.proc.send_signal(signal.SIGTERM)
        code, rss = wait_process(self.proc, 60.0)
        self.program.peak_rss_mb = max(self.program.peak_rss_mb, rss)
        return code


# ---------------------------------------------------------------------------
# Bookkeeping
# ---------------------------------------------------------------------------


class Ledger:
    """Attempted and failed operations; a failed check fails its operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def op(self, what: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            print(f"FAILED {what}: {'; '.join(problems)}", file=sys.stderr)


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def percentile(values, q: int) -> float:
    """The q-th percentile (1..99) of *values*."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def fastest_chunk(per_client, size: int, value) -> float:
    """The lowest *value* of any chunk of *size* rounds.

    Chunk k holds every client's k-th slice of *size* replies; *value*
    maps a chunk's replies to seconds.
    """
    return min(
        value([r for client in per_client for r in client[start:start + size]])
        for start in range(0, len(per_client[0]), size)
    )


def computed_median(replies) -> float:
    return statistics.median(r.latency_s for r in replies if is_computed(r))


def mean_latency(replies) -> float:
    """In a closed loop, the number of clients over the throughput."""
    return statistics.fmean(r.latency_s for r in replies)


def probe_s() -> float:
    """Fastest of five runs of a fixed pure-Python loop.

    The machine is shared and its speed drifts for minutes at a time;
    this loop slows with it, so dividing by it takes most of the drift
    out of the phase times of the CLI workloads.
    """
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        best = min(best, time.perf_counter() - start)
    return best


def timed_setups(prepare, discard, count: int) -> tuple[float, object]:
    """Run *prepare* *count* times; the fastest time and the last result.

    The fastest, because the machine's noise only ever adds time.
    """
    times, kept = [], None
    for index in range(count):
        if kept is not None:
            discard(kept)
        start = time.perf_counter()
        kept = prepare(index)
        times.append(time.perf_counter() - start)
    return min(times), kept


def wrapper_call_cost_s() -> float:
    """Seconds one tracer timer adds to a call, measured here."""
    import tracer

    tracer._recorder = tracer.Recorder(os.devnull, "calibration")
    plain = lambda: None  # noqa: E731
    wrapped = tracer.timed(plain, "calibration")
    calls = 20000
    costs = []
    for _ in range(5):
        start = time.perf_counter()
        for _ in range(calls):
            wrapped()
        middle = time.perf_counter()
        for _ in range(calls):
            plain()
        costs.append((middle - start) - (time.perf_counter() - middle))
    return statistics.median(costs) / calls


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def bundle_problems(bundle: Path, digest: str) -> list[str]:
    """What ``verify_bundle`` checks, redone from outside the program:
    the printed digest is MANIFEST.json's sha256 and every listed file
    still has its recorded sha256."""
    try:
        manifest = (bundle / "MANIFEST.json").read_bytes()
    except OSError as error:
        return [f"MANIFEST.json unreadable: {error}"]
    problems = []
    if sha256(manifest) != digest:
        problems.append("printed digest is not MANIFEST.json's sha256")
    for artefact in json.loads(manifest)["artefacts"].values():
        for relative, expected in artefact["files"].items():
            path = bundle / relative
            if not path.is_file() or sha256(path.read_bytes()) != expected:
                problems.append(f"{relative}: digest mismatch")
    return problems


def golden_problems(files: dict[str, Path]) -> list[str]:
    """Byte comparisons against ``tests/golden`` (golden name -> file)."""
    problems = []
    for golden, path in files.items():
        if not path.is_file() or path.read_bytes() != (GOLDEN / golden).read_bytes():
            problems.append(f"{path.name} differs from tests/golden/{golden}")
    return problems


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Bench:
    """State shared by one invocation's workload code."""

    def __init__(self, args, work: Path) -> None:
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.work = work
        self.program = Program(work)
        self.ledger = Ledger()
        self.report: list[tuple[str, float, str]] = []
        self.probes: list[float] = []
        self.setup_times: list[float] = []

    def probe(self) -> None:
        """Measure the machine's speed now (between program runs)."""
        self.probes.append(probe_s())

    def at_nominal_speed(self, seconds: float) -> float:
        """*seconds* in ms, rescaled to the probe's nominal speed."""
        return seconds * 1e3 * PROBE_NOMINAL_S / min(self.probes)

    def fresh(self, name: str) -> Path:
        path = self.work / name
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
        return path

    def set_up(self, *dirs: Path) -> None:
        """Set-up of one timed command of the CLI workloads, timed into
        ``setup_times``: create its empty *dirs* and start the program
        once (``repro --help``), which loads the interpreter and the CLI
        into the page cache.

        A set-up precedes every timed command, so the set-ups sample the
        whole run, and ``setup_s`` is the fastest of them: the machine's
        noise only ever adds time.
        """
        start = time.perf_counter()
        for path in dirs:
            path.mkdir(parents=True)
        outcome = self.program.run(["--help"])
        if outcome.code != 0:
            raise RuntimeError(f"repro --help exited with {outcome.code}")
        self.setup_times.append(time.perf_counter() - start)

    def say(self, name: str, value: float, unit: str) -> None:
        self.report.append((name, value, unit))


# -- reproduce --------------------------------------------------------------


def no_set_up(*dirs: Path) -> None:
    """Traced runs time no set-up; the program creates its directories."""


def reproduce_round(bench: Bench, root: Path, warm_runs: int,
                    trace_dir: Path | None = None, set_up=no_set_up):
    """One cold ``reproduce-all`` and *warm_runs* warm reruns; outcomes.

    ``set_up(*dirs)`` runs before each of them.
    """
    cache, bundle = root / "cache", root / "bundle"
    args = ["reproduce-all", "--jobs", "2", "--seed", bench.seed,
            "--cache-dir", cache, "--out", bundle]
    set_up(cache, bundle)
    cold = bench.program.run(
        args, None if trace_dir is None else trace_dir / "cold"
    )
    digest = cold.stdout.decode().strip()
    problems = [] if cold.code == 0 else [f"exit {cold.code}"]
    if not problems:
        problems += bundle_problems(bundle, digest)
        if b"[bundle] recomputed 0 |" in cold.stderr:
            problems.append("cold run recomputed nothing")
        if bench.seed == DEFAULT_SEED:
            problems += golden_problems({
                "fig4_trace_report.json": bundle / "trace-report" / "report.json",
                "fig4_trace_metrics.json": bundle / "trace-report" / "metrics.json",
            })
    bench.ledger.op("reproduce-all (cold)", problems)
    counters = {}
    if trace_dir is not None:
        counters = bundle_counters(bundle)
    warm = []
    for index in range(warm_runs):
        set_up()
        run = bench.program.run(
            args, None if trace_dir is None else trace_dir / f"warm{index}"
        )
        problems = [] if run.code == 0 else [f"exit {run.code}"]
        if not problems:
            if run.stdout.decode().strip() != digest:
                problems.append("warm digest differs from the cold digest")
            if b"[bundle] recomputed 0 |" not in run.stderr:
                problems.append("warm run recomputed points")
            problems += bundle_problems(bundle, digest)
        bench.ledger.op("reproduce-all (warm)", problems)
        warm.append(run)
    return cold, warm, counters


def add_counters(totals: dict[str, float], doc: dict) -> None:
    """Add a metrics export's counters and gauges to *totals*.

    Names are kept in the Prometheus form (``des_events_dispatched``)
    that ``GET /metrics`` uses, so every source reads the same way.
    """
    for section in ("counters", "gauges"):
        for name, record in doc[section].items():
            key = re.sub(r"[^A-Za-z0-9_]", "_", name)
            totals[key] = totals.get(key, 0.0) + record["value"]


def bundle_counters(bundle: Path) -> dict[str, float]:
    """The program's own counters, summed over the bundle's metrics.json."""
    totals: dict[str, float] = {}
    for path in bundle.glob("*/metrics.json"):
        add_counters(totals, json.loads(path.read_text()))
    return totals


def workload_reproduce(bench: Bench) -> dict:
    if bench.trace:
        return traced_reproduce(bench)
    colds, warms = [], []
    for r in range(max(1, round(bench.seconds / 10))):
        bench.probe()
        root = bench.work / f"round{r}"
        cold, warm, _ = reproduce_round(bench, root, 2, set_up=bench.set_up)
        colds.append(cold.wall_s)
        warms += [w.wall_s for w in warm]
        shutil.rmtree(root, ignore_errors=True)
    setup_s = min(bench.setup_times)
    bench.say("setup_s", setup_s, "s")
    bench.say("peak_rss_mb", bench.program.peak_rss_mb, "MB")
    bench.say("reproduce_cold_s", statistics.median(colds), "s")
    bench.say("reproduce_warm_s", statistics.median(warms), "s")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": bench.program.peak_rss_mb,
        "phase1_ms": bench.at_nominal_speed(min(colds)),
        "phase2_ms": bench.at_nominal_speed(min(warms)),
    }


def traced_pairs(bench: Bench, pairs: int, one_round, phases) -> dict:
    """Run *one_round* untraced and traced *pairs* times each.

    Which of the two goes first alternates from pair to pair, so a
    machine that speeds up or slows down during the run does not bias
    the tracing overhead.  ``one_round(root, trace_dir)`` returns the
    outcomes of *phases* (display name, trace subdirectory) in order,
    and the program's counters.
    """
    passes, counters = [], {}
    for pair in range(pairs):
        plain_root = bench.fresh(f"plain{pair}")
        root, traces = bench.fresh(f"traced{pair}"), bench.fresh(f"trace{pair}")
        order = [(plain_root, None), (root, traces)]
        if pair % 2:
            order.reverse()
        found = {
            trace_dir is not None: one_round(where, trace_dir)
            for where, trace_dir in order
        }
        (plain, _), (traced, counters) = found[False], found[True]
        for (name, subdir), untraced, run in zip(phases, plain, traced):
            passes.append(
                layers.Pass(name, traces / subdir, run.wall_s, untraced.wall_s)
            )
        shutil.rmtree(plain_root, ignore_errors=True)
        shutil.rmtree(root, ignore_errors=True)
    return {"passes": passes, "counters": counters}


def traced_reproduce(bench: Bench) -> dict:
    def one_round(root, trace_dir):
        cold, (warm,), counters = reproduce_round(bench, root, 1, trace_dir)
        return (cold, warm), counters

    return traced_pairs(
        bench, max(1, round(bench.seconds / 20)), one_round,
        (("cold", "cold"), ("warm", "warm0")),
    )


# -- trace-fig4 -------------------------------------------------------------


def trace_round(bench: Bench, root: Path, trace_dir: Path | None = None,
                set_up=no_set_up):
    """One batch and one streamed ``trace-report``, each after
    ``set_up(its out dir)``; their outcomes and, when traced, the
    program's counters."""
    runs = {}
    for mode in ("batch", "stream"):
        set_up(root / mode)
        args = ["trace-report", "--seed", bench.seed, "--out", root / mode]
        if mode == "stream":
            args.append("--stream")
        if bench.trace:
            # Both runs of a traced pair export metrics, so the tracing
            # overhead leaves out what the metrics registry costs.
            args += ["--metrics-out", root / f"{mode}-metrics.json"]
        runs[mode] = bench.program.run(
            args, None if trace_dir is None else trace_dir / mode
        )
    batch_report = root / "batch" / "report.json"
    for mode, run in runs.items():
        problems = [] if run.code == 0 else [f"exit {run.code}"]
        if not problems and mode == "stream":
            report = root / "stream" / "report.json"
            if not report.is_file() or report.read_bytes() != batch_report.read_bytes():
                problems.append("streamed report.json differs from batch")
        if not problems and bench.seed == DEFAULT_SEED:
            problems += golden_problems({
                "fig4_trace_report.json": root / mode / "report.json",
            })
        bench.ledger.op(f"trace-report ({mode})", problems)
    counters = {}
    if trace_dir is not None:
        for mode in runs:
            path = root / f"{mode}-metrics.json"
            if path.is_file():
                add_counters(counters, json.loads(path.read_text()))
    return (runs["batch"], runs["stream"]), counters


def workload_trace(bench: Bench) -> dict:
    if bench.trace:
        return traced_trace(bench)
    batch, stream, stream_rss = [], [], []
    for r in range(max(1, round(bench.seconds / 2))):
        bench.probe()
        root = bench.work / f"round{r}"
        (b, s), _ = trace_round(bench, root, set_up=bench.set_up)
        batch.append(b.wall_s)
        stream.append(s.wall_s)
        stream_rss.append(s.rss_mb)
        shutil.rmtree(root, ignore_errors=True)
    setup_s = min(bench.setup_times)
    bench.say("setup_s", setup_s, "s")
    bench.say("peak_rss_mb", bench.program.peak_rss_mb, "MB")
    bench.say("trace_batch_s", statistics.median(batch), "s")
    bench.say("trace_stream_s", statistics.median(stream), "s")
    bench.say("trace_stream_rss_mb", statistics.median(stream_rss), "MB")
    return {
        "setup_s": setup_s,
        "peak_rss_mb": bench.program.peak_rss_mb,
        "phase1_ms": bench.at_nominal_speed(min(batch)),
        "phase2_ms": bench.at_nominal_speed(min(stream)),
    }


def traced_trace(bench: Bench) -> dict:
    return traced_pairs(
        bench, max(1, round(bench.seconds / 5)),
        lambda root, trace_dir: trace_round(bench, root, trace_dir),
        (("batch", "batch"), ("stream", "stream")),
    )


# -- service ----------------------------------------------------------------


def fig3_speedups(stdout: str) -> dict[tuple[str, int], str]:
    """``(app, cores) -> printed speedup`` from ``repro fig3`` stdout."""
    apps = {"LINPACK": "linpack", "SPECFEM3D": "specfem3d", "BigDFT": "bigdft"}
    table, app = {}, None
    for line in stdout.splitlines():
        title = re.match(r"Figure 3[abc]: (\w+)", line)
        if title:
            app = apps[title.group(1)]
            continue
        fields = line.split()
        if app and len(fields) >= 2 and fields[0].isdigit():
            table[(app, int(fields[0]))] = fields[1]
    return table


class ServiceRun:
    """Set-up, phases and checks of one pass of the service workload."""

    def __init__(self, bench: Bench, trace_dir: Path | None = None) -> None:
        self.bench = bench
        self.trace_dir = trace_dir
        seconds = bench.seconds
        self.plan = service_load.make_plan(
            bench.seed, CLIENTS,
            cold_rounds=service_load.DUP_EVERY * max(1, min(9, seconds // 3)),
            warm_requests=WARM_CHUNK * max(2, 24 * seconds // 5),
        )

    def prepare(self, index: int):
        """A batch-filled cache and a ready server."""
        bench = self.bench
        root = bench.fresh(f"service-{index}")
        fill = bench.program.run([
            "fig3", "--quick", "--jobs", "2", "--seed", bench.seed,
            "--cache-dir", root / "cache",
        ])
        problems = [] if fill.code == 0 else [f"exit {fill.code}"]
        expected = fig3_speedups(fill.stdout.decode())
        if not problems and len(expected) != len(service_load.fig3_points(0)):
            problems.append("fig3 stdout did not list every point")
        bench.ledger.op("fig3 --quick (cache fill)", problems)
        # Each set-up's server records into its own directory; only the
        # kept one's records are read.
        trace_dir = None if self.trace_dir is None else self.trace_dir / f"setup{index}"
        server = Server(bench.program, root / "cache", root / "run", trace_dir)
        return root, server, expected

    def discard(self, prepared) -> None:
        root, server, _ = prepared
        server.stop()
        shutil.rmtree(root, ignore_errors=True)

    def run(self) -> dict:
        bench = self.bench
        setup_s, (root, server, self.expected) = timed_setups(
            self.prepare, self.discard, SERVICE_SETUPS
        )
        self.port = server.port
        self.bytes_by_hash: dict[str, bytes] = {}
        try:
            cold_clients, cold_wall = service_load.run_closed_loop(
                self.port, self.plan.cold, self.plan.dup_rounds
            )
            warm_clients, warm_wall = service_load.run_closed_loop(
                self.port, self.plan.warm
            )
            cold = [r for client in cold_clients for r in client]
            warm = [r for client in warm_clients for r in client]
            self.check(cold, warm)
            counters = parse_prometheus(service_load.get_text(self.port, "/metrics"))
        finally:
            code = server.stop()
        bench.ledger.op("repro serve shutdown", [] if code == 0 else [f"exit {code}"])
        shutil.rmtree(root, ignore_errors=True)
        if not bench.trace:
            # The machine's slow spells last from seconds to minutes, so
            # set-ups at both ends of the run find a fast moment more
            # often than back-to-back ones do.
            later_s, prepared = timed_setups(
                lambda index: self.prepare(SERVICE_SETUPS + index),
                self.discard, SERVICE_SETUPS_AFTER,
            )
            self.discard(prepared)
            setup_s = min(setup_s, later_s)
        computed = [r for r in cold if is_computed(r)]
        return {
            "setup_s": setup_s,
            "cold_clients": cold_clients, "warm_clients": warm_clients,
            "cold": cold, "cold_wall": cold_wall, "computed": computed,
            "warm": warm, "warm_wall": warm_wall, "counters": counters,
            "trace_dir": (None if self.trace_dir is None
                          else self.trace_dir / f"setup{SERVICE_SETUPS - 1}"),
        }

    def same_bytes(self, reply) -> list[str]:
        seen = self.bytes_by_hash.setdefault(reply.job["content_hash"], reply.result)
        return [] if seen == reply.result else ["result bytes differ for one content hash"]

    def check(self, cold, warm) -> None:
        ledger = self.bench.ledger
        for reply in cold:
            problems = [reply.error] if not reply.ok else self.same_bytes(reply)
            ledger.op(f"cold {reply.scenario}", problems)
        fig3 = {
            json.dumps(params, sort_keys=True)
            for _, params in service_load.fig3_points(self.bench.seed)
        }
        seen_fig3 = {}
        for reply in warm:
            problems = [reply.error] if not reply.ok else self.same_bytes(reply)
            is_fig3 = json.dumps(reply.params, sort_keys=True) in fig3
            if reply.ok and reply.job["source"] not in ("cache", "journal"):
                problems.append(f"warm request served from {reply.job['source']}")
            if reply.ok and is_fig3:
                if reply.job["source"] != "cache":
                    problems.append("batch-filled point not served from cache")
                seen_fig3[(reply.params["app"], reply.params["cores"])] = reply
            ledger.op(f"warm {reply.scenario}", problems)
        # Points the warm phase never drew are fetched now, untimed, so
        # every batch value is compared.
        for scenario, params in service_load.fig3_points(self.bench.seed):
            key = (params["app"], params["cores"])
            if key not in seen_fig3:
                reply = service_load.submit(self.port, scenario, params)
                problems = [reply.error] if not reply.ok else []
                if reply.ok and reply.job["source"] != "cache":
                    problems.append("batch-filled point not served from cache")
                ledger.op("fig3 point check", problems)
                seen_fig3[key] = reply
        elapsed = {
            key: json.loads(r.result)["elapsed_s"]
            for key, r in seen_fig3.items() if r.ok
        }
        problems = []
        for app, (counts, baseline) in service_load.FIG3_QUICK.items():
            for cores in counts:
                try:
                    speedup = baseline * elapsed[(app, baseline)] / elapsed[(app, cores)]
                except KeyError:
                    problems.append(f"no value for {app} at {cores} cores")
                    continue
                printed = self.expected.get((app, cores))
                if f"{speedup:.4g}" != printed:
                    problems.append(
                        f"{app}@{cores}: served {speedup:.4g}, batch printed {printed}"
                    )
        ledger.op("fig3 values served = batch values", problems)


def is_computed(reply) -> bool:
    """A cold reply that a worker computed for this very submission."""
    return reply.ok and reply.job["source"] == "computed" and not reply.deduped


def parse_prometheus(text: str) -> dict[str, float]:
    """``name -> value`` of the plain samples in a Prometheus exposition."""
    values = {}
    for line in text.splitlines():
        if line and not line.startswith("#") and "{" not in line:
            name, _, value = line.partition(" ")
            values[name.removeprefix("repro_")] = float(value)
    return values


def workload_service(bench: Bench) -> dict:
    if bench.trace:
        # One pair, untraced first: a second pair would bring a run on
        # a slow machine close to the three minutes one run may take.
        plain = ServiceRun(bench).run()
        traced = ServiceRun(bench, bench.fresh("trace-serve")).run()
        return {"service": (plain, traced)}
    result = ServiceRun(bench).run()
    cold_ms = [r.latency_s * 1e3 for r in result["computed"]]
    warm_ms = [r.latency_s * 1e3 for r in result["warm"] if r.ok]
    bench.say("setup_s", result["setup_s"], "s")
    bench.say("peak_rss_mb", bench.program.peak_rss_mb, "MB")
    bench.say("svc_cold_p50_ms", statistics.median(cold_ms), "ms")
    bench.say("svc_cold_p90_ms", percentile(cold_ms, 90), "ms")
    bench.say("svc_cold_jobs_per_s", len(cold_ms) / result["cold_wall"], "jobs/s")
    bench.say("svc_warm_p50_ms", statistics.median(warm_ms), "ms")
    bench.say("svc_warm_p99_ms", percentile(warm_ms, 99), "ms")
    bench.say("svc_warm_rps", len(result["warm"]) / result["warm_wall"], "req/s")
    print(f"[service] {len(cold_ms)} computed jobs, {len(warm_ms)} warm requests")
    # Not rescaled by the speed probe: in ten-seed sets the probe read
    # 21-27 ms instead of 16 ms in four runs of ten while these
    # latencies did not move, so rescaling only added spread.
    return {
        "setup_s": result["setup_s"],
        "peak_rss_mb": bench.program.peak_rss_mb,
        "phase1_ms": 1e3 * fastest_chunk(
            result["cold_clients"], service_load.DUP_EVERY, computed_median),
        "phase2_ms": 1e3 * fastest_chunk(
            result["warm_clients"], WARM_CHUNK, mean_latency),
    }


# ---------------------------------------------------------------------------
# Per-layer metrics (--trace 1)
# ---------------------------------------------------------------------------


def per_layer(bench: Bench, found: dict, names: list[str]) -> dict[str, float]:
    """Every per-layer metric of BENCHMARK.json; 0 where a layer is idle."""
    if "service" in found:
        # The traced server is one pass; its wall is both phases' wall.
        plain, traced = found["service"]
        plain_s, traced_s = (d["cold_wall"] + d["warm_wall"] for d in (plain, traced))
        passes = [layers.Pass("serve", traced["trace_dir"], traced_s, plain_s)]
        counters = traced["counters"]
    else:
        traced = None
        passes, counters = found["passes"], found["counters"]
    groups = layers.phases(passes)

    def layer(name: str) -> dict:
        rows = [g.layer(name) for g in groups]
        return {k: sum(r[k] for r in rows) for k in ("calls", "self_s", "incl_s")}

    def per_call_ms(name: str) -> float:
        row = layer(name)
        return row["incl_s"] / row["calls"] * 1e3 if row["calls"] else 0.0

    def count(name: str) -> float:
        return counters.get(name.replace(".", "_"), 0.0)

    sweeps = {k: sum(p.summed("sweeps", k) for p in passes) for k in
              ("computed", "slot_s", "worker_wall_s")}
    values = {
        "cluster.des.self_s": layer("cluster.des")["self_s"],
        "des.events_dispatched": count("des.events_dispatched"),
        "cluster.fabric.self_s": layer("cluster.fabric")["self_s"],
        "cluster.fabric.calls": layer("cluster.fabric")["calls"],
        "net.bytes": count("net.bytes"),
        "cluster.mpi.self_s": layer("cluster.mpi")["self_s"],
        "mpi.messages_delivered": count("mpi.messages_delivered"),
        "osmodel.boot.self_s": layer("osmodel.boot")["self_s"],
        "osmodel.boot.calls": layer("osmodel.boot")["calls"],
        "kernels.membench.self_s": layer("kernels.membench")["self_s"],
        "memsim.stream.self_s": layer("memsim.stream")["self_s"],
        "engine.dispatch_ms_per_point": (
            (sweeps["slot_s"] - sweeps["worker_wall_s"]) / sweeps["computed"] * 1e3
            if sweeps["computed"] else 0.0
        ),
        "engine.worker.self_s": layer("engine.worker")["self_s"],
        "engine.cache.get_ms": per_call_ms("engine.cache.get"),
        "engine.cache.put_ms": per_call_ms("engine.cache.put"),
        "engine.cache.hits": sum(g.summed("cache_gets", "hits") for g in groups),
        "engine.cache.misses": sum(g.summed("cache_gets", "misses") for g in groups),
        "engine.hash.calls": layer("engine.hash")["calls"],
        "tracing.analysis.self_s": layer("tracing.analysis")["self_s"],
        "tracing.chrome.self_s": layer("tracing.chrome")["self_s"],
        "tracing.stream.ingest_s": layer("tracing.stream.ingest")["self_s"],
        "tracing.stream.finalize_s": layer("tracing.stream.finalize")["self_s"],
        "trace.events_ingested": count("trace.events_ingested"),
        "trace.spill_bytes": count("trace.spill_bytes"),
        "trace.frontier_high_water": count("trace.frontier_high_water"),
        "obs.bundle.self_s": layer("obs.bundle")["self_s"],
        "metrics.export.self_s": layer("metrics.export")["self_s"],
        "service.journal.append_ms": per_call_ms("journal.append"),
        "bench.traced_wall_s": sum(g.wall_s for g in groups),
        "bench.unattributed_s": sum(g.unattributed_s() for g in groups),
        "bench.tracing_overhead_pct": 100.0 * (
            sum(g.overhead_s for g in groups) / sum(g.untraced_s for g in groups)
        ),
    }
    values.update(service_layer_values(traced, passes))
    flagged = layers.print_table(found["workload"], groups, wrapper_call_cost_s())
    if flagged:
        print(f"timer cost past the {layers.OVERHEAD_TARGET:.0%} target: "
              + ", ".join(flagged))
    missing = sorted(set(names) - set(values))
    if missing:
        raise RuntimeError(f"per-layer metrics without a definition: {missing}")
    return {name: values[name] for name in names}


def service_layer_values(traced: dict | None, passes) -> dict[str, float]:
    names = ("service.overhead_ms", "service.worker_wall_ms",
             "service.worker_import_ms", "service.source.computed",
             "service.source.cache", "service.source.journal",
             "service.dedup.hits", "service.rejected")
    if traced is None:
        return dict.fromkeys(names, 0.0)
    computed = traced["computed"]
    counters = traced["counters"]
    walls = [r.job["wall_seconds"] for r in computed]
    # Time inside the sweeps worker, measured in the forked children.
    inside = sum(
        r["layers"].get("engine.worker", {}).get("incl_s", 0.0)
        for p in passes for r in p.records if r["role"] == "child"
    )
    return {
        "service.overhead_ms": statistics.median(
            (r.latency_s - r.job["wall_seconds"]) * 1e3 for r in computed
        ),
        "service.worker_wall_ms": statistics.mean(walls) * 1e3,
        "service.worker_import_ms": (sum(walls) - inside) / len(walls) * 1e3,
        "service.source.computed": counters.get("service_completed", 0.0),
        "service.source.cache": counters.get("service_warm_cache", 0.0),
        "service.source.journal": counters.get("service_warm_journal", 0.0),
        "service.dedup.hits": counters.get("service_dedup_hits", 0.0),
        "service.rejected": sum(
            v for k, v in counters.items() if k.startswith("service_rejected")
        ),
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

WORKLOADS = {
    "reproduce": workload_reproduce,
    "trace-fig4": workload_trace,
    "service": workload_service,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__main__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'repro'} is "
              "missing (run from a full checkout)", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[section]}

    work = ROOT / ".e2ebench-work" / f"{args.workload}-{os.getpid()}"
    bench = Bench(args, work)
    try:
        # Once, before anything is timed: the first run in a fresh
        # checkout would otherwise pay for compiling the program.
        bench.program.compile_sources()
        found = WORKLOADS[args.workload](bench)
        if args.trace:
            found["workload"] = args.workload
            values = per_layer(bench, found, list(units))
        else:
            values = found
            if bench.probes:
                bench.say("speed_probe_ms", min(bench.probes) * 1e3, "ms")
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()  # only when no other run is using it
    for name, value, unit in bench.report:
        print(f"{name:<24} {value:>14.6g} {unit}")
    ledger = bench.ledger
    print(json.dumps({
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {
            name: {"value": values[name], "unit": unit}
            for name, unit in units.items()
        },
    }))
    return 0 if ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
