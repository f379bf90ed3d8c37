"""Figure 5 — impact of real-time priority on the ARM Snowball's
effective bandwidth (stride 1, array sizes 1-50 KB, 42 randomized
repetitions per size): a bimodal distribution (5a) whose degraded
samples are consecutive in acquisition order (5b).  The experiment is
the ``repro fig5`` record, at seed 5."""

from repro.core.report import render_series
from repro.core.stats import detect_modes, is_bimodal
from repro.engine.sweeps import FIG5_SIZES_KB, run_fig5


def test_fig5_rt_priority_bimodal_bandwidth(benchmark, artefact, engine):
    results = benchmark.pedantic(
        lambda: run_fig5(engine, seed=5), rounds=1, iterations=1
    )

    # 5a: bandwidth vs array size, nominal-mode averages.
    curve = []
    for size in (kb * 1024 for kb in FIG5_SIZES_KB):
        nominal = [
            s.value / 1e9 for s in results.where(array_bytes=size, degraded=False)
        ]
        curve.append((size // 1024, sum(nominal) / len(nominal)))
    artefact(
        "Figure 5a — bandwidth vs array size (nominal mode, GB/s)",
        render_series("RT-priority membench", curve,
                      x_label="KB", y_label="GB/s"),
    )

    # 5b: sequence-order plot summary.
    degraded_seq = [s.sequence for s in results if s.factors["degraded"]]
    runs = (
        1 + sum(1 for a, b in zip(degraded_seq, degraded_seq[1:]) if b != a + 1)
        if degraded_seq
        else 0
    )
    artefact(
        "Figure 5b — degraded samples in sequence order",
        f"{len(degraded_seq)} degraded samples out of {len(results)}, "
        f"forming {runs} consecutive run(s)",
    )

    at_16k = [s.value for s in results.where(array_bytes=16 * 1024)]
    assert is_bimodal(at_16k, ratio=2.5)
    modes = detect_modes([v / 1e9 for v in at_16k])
    assert modes[0].center / modes[-1].center > 3.5   # "almost 5 times lower"
    assert runs <= max(1, len(degraded_seq) // 8)     # consecutive, not scattered
    # 5a cliff: bandwidth decreases when size exceeds the 32 KiB L1.
    by_size = dict(curve)
    assert by_size[8] > by_size[50] * 1.1
