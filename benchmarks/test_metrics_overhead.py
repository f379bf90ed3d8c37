"""Metrics instrumentation overhead guard (ISSUE satellite).

The registry's cheap no-op mode is the contract that lets every layer
stay instrumented unconditionally: with the :class:`NullRegistry`
ambient (the default), each metric event costs one dynamic dispatch and
nothing else.  This bench runs the same Figure 3-style LINPACK sweep
with metrics off and on and asserts the instrumented run stays within
5% of the baseline (plus an absolute slack term so sub-second runs
don't flake on scheduler noise).
"""

import time

from repro.engine import ExperimentEngine
from repro.engine.sweeps import run_replicated_times
from repro.metrics import MetricsRegistry, use_registry

_COUNTS = [1, 4, 16]

#: Absolute noise floor (seconds): timing jitter this small is
#: indistinguishable from scheduler noise on a loaded CI machine.
_ABS_SLACK_S = 0.25


def _sweep():
    engine = ExperimentEngine(cache=None)
    return run_replicated_times(
        engine, "linpack", counts=_COUNTS, num_nodes=16, seeds=[7]
    )


def _best_of(n, fn):
    """Best-of-*n* wall time: robust against one-off scheduling blips."""
    best = float("inf")
    value = None
    for _ in range(n):
        start = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - start)
    return best, value


def _instrumented_sweep():
    registry = MetricsRegistry()
    with use_registry(registry):
        times = _sweep()
    return registry, times


def test_metrics_overhead_under_five_percent(artefact):
    baseline_s, baseline_times = _best_of(3, _sweep)
    instrumented_s, (registry, metered_times) = _best_of(
        3, _instrumented_sweep
    )

    # Same simulation either way: instrumentation must not perturb
    # results, and the instrumented run must actually have collected.
    assert metered_times == baseline_times
    assert registry.counter("des.events_dispatched").value > 0
    assert registry.counter("engine.points").value == len(_COUNTS)

    overhead_s = instrumented_s - baseline_s
    budget_s = max(0.05 * baseline_s, _ABS_SLACK_S)
    artefact(
        "Metrics instrumentation overhead (fig3-style sweep)",
        f"baseline {baseline_s:.3f} s | instrumented {instrumented_s:.3f} s"
        f" | overhead {overhead_s * 1000:+.0f} ms"
        f" (budget {budget_s * 1000:.0f} ms)",
    )
    assert overhead_s <= budget_s, (
        f"metrics overhead {overhead_s:.3f}s exceeds budget {budget_s:.3f}s "
        f"(baseline {baseline_s:.3f}s)"
    )
