"""Experiment engine — cold vs warm reruns of a cluster-scaling sweep.

The content-addressed cache turns a figure rerun into pure lookups.
The effect only pays off when points are expensive: a Figure 3-style
LINPACK sweep costs seconds per point through the DES, so the warm
rerun is orders of magnitude faster; for sub-millisecond analytic
kernels (Figure 7) the disk round-trip can cost more than computing.
"""

from repro.engine import ExperimentEngine, ResultCache
from repro.engine.sweeps import run_replicated_times

_COUNTS = [4, 8, 16]
_TIMINGS: dict[str, float] = {}


def _sweep(engine):
    return run_replicated_times(
        engine, "linpack", counts=_COUNTS, num_nodes=96, seeds=[7]
    )


def _mean_seconds(benchmark):
    """Mean runtime, or None when benchmarking is disabled."""
    try:
        return benchmark.stats.stats.mean
    except AttributeError:
        return None


def test_engine_cold_sweep(benchmark, artefact, tmp_path):
    """Every point simulated: empty cache."""
    caches = iter(ResultCache(tmp_path / f"c{i}") for i in range(100))

    times = benchmark.pedantic(
        lambda: _sweep(ExperimentEngine(cache=next(caches))),
        rounds=1, iterations=1,
    )
    mean = _mean_seconds(benchmark)
    if mean is not None:
        _TIMINGS["cold"] = mean
        artefact(
            "Engine — cold LINPACK sweep (3 points)",
            f"all points simulated; {mean:.2f} s",
        )
    assert sorted(times) == _COUNTS


def test_engine_warm_sweep(benchmark, artefact, tmp_path):
    """Every point replayed from the content-addressed cache."""
    cache = ResultCache(tmp_path / "cache")
    cold_times = _sweep(ExperimentEngine(cache=cache))

    def warm():
        engine = ExperimentEngine(cache=cache)
        times = _sweep(engine)
        assert engine.manifests[-1].misses == 0
        return times

    times = benchmark(warm)
    mean = _mean_seconds(benchmark)
    if mean is not None:
        cold = _TIMINGS.get("cold")
        ratio = "" if not cold else f" ({cold / mean:,.0f}x vs cold)"
        artefact(
            "Engine — warm LINPACK sweep (3 points)",
            f"all points from cache; {mean * 1e3:.2f} ms{ratio}",
        )
    assert times == cold_times
