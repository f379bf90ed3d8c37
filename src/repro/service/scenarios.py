"""The scenario registry: named, validated job types.

A scenario maps a client's ``{"scenario": name, "params": {...}}``
submission onto the exact (sweep key, point params, worker) triple the
batch engine uses, so the service and the batch CLI are two doors into
the *same* content-addressed result space: a point computed by ``repro
fig3`` is a warm cache hit for ``repro submit``, and vice versa.  Each
experiment both doors run is one :class:`~repro.engine.sweeps.Experiment`
record — its parameters, defaults, allowed names and sweep-key fields —
so a submission is validated and keyed from the same declaration the
batch sweep is built from.  An unknown ``machine`` or ``app`` name, or
a value outside the range the models accept (a non-positive shape,
cores the cluster cannot place, an ``app_args`` key the app model does
not take, fragmentation outside [0, 1], an array smaller than one
element or larger than the machine's memory), is rejected before any
worker forks.  An array within physical memory that still finds too
few unpinned frames (a small machine at high fragmentation) is not a
range error: its job fails in the worker with a typed
``AllocationError``.

Every scenario carries a ``scenario_class`` — the circuit-breaker
granularity.  A class that keeps crashing workers is shed as a unit
while other classes keep flowing.
"""

from __future__ import annotations

import copy
import dataclasses
import time
from typing import Any, Callable, Mapping

from repro.arch import TEGRA2_NODE
from repro.engine import sweeps
from repro.engine.chaos import chaos_point
from repro.engine.engine import point_key
from repro.engine.hashing import content_key
from repro.engine.sweeps import REQUIRED, Experiment, Param
from repro.errors import InvalidJobRequest


# ---------------------------------------------------------------------------
# Service-native workers (module-level: picklable for forked attempts)
# ---------------------------------------------------------------------------


def squares_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """The demo workload: instant, pure, verifiable at a glance."""
    x = params["x"]
    return {"value": x * x}


def sleepy_point(params: Mapping[str, Any]) -> dict[str, Any]:
    """A workload that just takes time — the knob chaos tests turn to
    hold pool slots, overflow the queue, or outlive a deadline."""
    duration = params["duration_s"]
    time.sleep(duration)
    return {"slept_s": duration}


# ---------------------------------------------------------------------------
# Parameter validation
# ---------------------------------------------------------------------------


def _validated(
    scenario: str, params: Mapping[str, Any], fields: Mapping[str, Param]
) -> dict[str, Any]:
    """Check *params* against the scenario's record fields.

    Every submitted key must be known, every field with no default
    must be given, type mismatches are reported with what arrived, and
    a field with ``choices`` takes only those values.  The result is a
    complete, defaulted param dict in ``fields`` order so identical
    submissions canonicalize to identical content keys.
    """
    unknown = sorted(set(params) - set(fields))
    if unknown:
        raise InvalidJobRequest(
            f"scenario {scenario!r} does not accept parameter(s) "
            f"{', '.join(repr(u) for u in unknown)}; "
            f"accepted: {', '.join(sorted(fields))}"
        )
    out: dict[str, Any] = {}
    for name, field in fields.items():
        if name in params:
            value = params[name]
        elif field.default is not REQUIRED:
            value = copy.deepcopy(field.default)
        else:
            raise InvalidJobRequest(
                f"scenario {scenario!r} requires parameter {name!r}"
            )
        types = field.types
        if not isinstance(value, types) or (
            # bool passes isinstance(int) — reject it where a number
            # is meant, or True silently becomes cores=1.
            isinstance(value, bool) and bool not in types
        ):
            wanted = "/".join(t.__name__ for t in types)
            raise InvalidJobRequest(
                f"scenario {scenario!r} parameter {name!r} must be "
                f"{wanted}, got {type(value).__name__} ({value!r})"
            )
        if field.choices is not None and value not in field.choices:
            raise InvalidJobRequest(
                f"scenario {scenario!r} parameter {name!r} must be one "
                f"of {', '.join(repr(c) for c in field.choices)}; "
                f"got {value!r}"
            )
        out[name] = value
    return out


@dataclasses.dataclass(frozen=True)
class Scenario:
    """One named job type the service accepts.

    ``build(params)`` validates a submission against ``record`` and
    returns the ``(sweep_key, point)`` pair whose content key addresses
    the result — the same material :func:`~repro.engine.engine.point_key`
    derives for the equivalent batch sweep point.  ``check``, when set,
    runs on the complete point: it raises on out-of-range values the
    field types cannot express, and may normalise the point in place.
    """

    name: str
    scenario_class: str
    record: Experiment
    worker: Callable[[Mapping[str, Any]], Any]
    check: Callable[[dict[str, Any]], None] | None = None
    #: A progress-streaming worker finds a ``_progress`` callable in
    #: its params (added in the forked attempt, never key material);
    #: each summary it passes lands in the job, which
    #: ``GET /jobs/<id>/trace`` streams while the job runs.
    progress: bool = False

    def build(
        self, params: Mapping[str, Any]
    ) -> tuple[dict[str, Any], dict[str, Any]]:
        point = _validated(self.name, params, self.record.params)
        if self.check is not None:
            self.check(point)
        return self.record.sweep_key(point), point


def _check_sleepy(point: dict[str, Any]) -> None:
    if point["duration_s"] < 0:
        raise InvalidJobRequest(
            f"scenario 'sleepy' duration_s must be >= 0, "
            f"got {point['duration_s']}"
        )


def _check_shape(point: dict[str, Any]) -> None:
    shape = point["shape"]
    if len(shape) != 3 or not all(
        isinstance(n, int) and n > 0 for n in shape
    ):
        raise InvalidJobRequest(
            f"scenario 'magicfilter' shape must be [nx, ny, nz] of "
            f"positive ints, got {shape!r}"
        )


def _check_cluster(point: dict[str, Any]) -> None:
    # Block placement on Tibidabo: every rank needs a core of its own.
    capacity = point["num_nodes"] * TEGRA2_NODE.num_cores
    if not 1 <= point["cores"] <= capacity:
        raise InvalidJobRequest(
            f"cluster scenario cores must be in [1, {capacity}] on "
            f"{point['num_nodes']} nodes, got {point['cores']}"
        )
    accepted = sorted(
        field.name
        for field in dataclasses.fields(sweeps.APPS[point["app"]])
        if field.init
    )
    unknown = sorted(set(point["app_args"]) - set(accepted))
    if unknown:
        raise InvalidJobRequest(
            f"cluster scenario app_args keys must be among "
            f"{', '.join(accepted)} for app {point['app']!r}, got "
            f"{', '.join(repr(key) for key in unknown)}"
        )


def _check_page_alloc(point: dict[str, Any]) -> None:
    if not 0 <= point["fragmentation"] <= 1:
        raise InvalidJobRequest(
            f"scenario 'page-alloc' fragmentation must be in [0, 1], "
            f"got {point['fragmentation']}"
        )
    # The worker measures 32-bit elements (MemBenchConfig's default).
    if point["array_bytes"] < 4:
        raise InvalidJobRequest(
            f"scenario 'page-alloc' array_bytes must be >= 4 (one 32-bit "
            f"element), got {point['array_bytes']}"
        )
    # No boot has more frames than the machine has memory, so a larger
    # array could only fail in the worker after taking every free frame.
    total_bytes = sweeps.MACHINES[point["machine"]].memory.total_bytes
    if point["array_bytes"] > total_bytes:
        raise InvalidJobRequest(
            f"scenario 'page-alloc' array_bytes must be <= {total_bytes} "
            f"(the memory of {point['machine']}), got {point['array_bytes']}"
        )
    # The batch sweep passes floats; an integral submission must land
    # on the same cache entry.
    point["fragmentation"] = float(point["fragmentation"])


def _check_ranks(point: dict[str, Any]) -> None:
    if not 2 <= point["num_ranks"] <= 256:
        raise InvalidJobRequest(
            f"scenario 'trace-analysis' num_ranks must be in [2, 256], "
            f"got {point['num_ranks']}"
        )


#: Built after ``sweeps`` has finished importing, so each worker is the
#: module attribute as it stands then (a tracer's wrapper included).
SCENARIOS: dict[str, Scenario] = {
    s.name: s
    for s in (
        Scenario(
            "squares", "demo",
            Experiment("service-squares", {"x": Param((int,))}),
            squares_point,
        ),
        Scenario(
            "sleepy", "slow",
            Experiment("service-sleepy", {
                "duration_s": Param((int, float)), "tag": Param((str,), ""),
            }),
            sleepy_point, _check_sleepy,
        ),
        Scenario("chaos-squares", "chaos", sweeps.CHAOS_SQUARES, chaos_point),
        Scenario(
            "cluster-elapsed", "cluster",
            sweeps.CLUSTER_ELAPSED, sweeps.cluster_time_point, _check_cluster,
        ),
        Scenario(
            "cluster-energy", "cluster",
            sweeps.CLUSTER_ENERGY, sweeps.cluster_energy_point, _check_cluster,
        ),
        Scenario(
            "magicfilter", "kernels",
            sweeps.MAGICFILTER, sweeps.magicfilter_point, _check_shape,
        ),
        Scenario(
            "page-alloc", "memsim",
            sweeps.PAGE_ALLOC, sweeps.page_alloc_point, _check_page_alloc,
        ),
        Scenario(
            "trace-analysis", "tracing",
            sweeps.TRACE_ANALYSIS, sweeps.trace_analysis_point, _check_ranks,
            progress=True,
        ),
    )
}


def resolve_scenario(name: Any) -> Scenario:
    """Look up *name*, with a typed error listing what exists."""
    if not isinstance(name, str) or name not in SCENARIOS:
        raise InvalidJobRequest(
            f"unknown scenario {name!r}; "
            f"available: {', '.join(sorted(SCENARIOS))}"
        )
    return SCENARIOS[name]


def job_content_key(
    scenario: Scenario, params: Mapping[str, Any]
) -> tuple[dict[str, Any], dict[str, Any], str]:
    """``(key_material, point, hash)`` for one validated submission.

    The material comes from the engine's own
    :func:`~repro.engine.engine.point_key`, which is what makes the
    service's cache and journal interoperable with batch sweeps.
    """
    sweep_key, point = scenario.build(params)
    material = point_key(sweep_key, point)
    return material, point, content_key(material)
