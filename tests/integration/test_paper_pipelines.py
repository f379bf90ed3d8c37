"""End-to-end pipelines: each test drives one paper artefact through
the full stack, asserting the paper's qualitative findings."""

import pytest

from repro.apps import BigDFT, CoreMark, Linpack, Specfem3D, StockFish
from repro.arch import SNOWBALL_A9500, TEGRA2_NODE, XEON_X5550
from repro.cluster import MpiJob, tibidabo
from repro.core.stats import is_bimodal
from repro.energy import compare_runs
from repro.engine import ExperimentEngine
from repro.engine.sweeps import run_replicated_speedups
from repro.kernels import MagicFilterBenchmark, MemBench
from repro.osmodel import OSModel, SchedulingPolicy
from repro.tracing import TraceRecorder, analyze_collectives, export_prv, parse_prv

PAPER_TABLE2 = {
    # benchmark: (snowball, xeon, ratio, energy_ratio)
    "LINPACK": (620.0, 24000.0, 38.7, 1.0),
    "CoreMark": (5877.0, 41950.0, 7.1, 0.2),
    "StockFish": (224113.0, 4521733.0, 20.2, 0.5),
    "SPECFEM3D": (186.8, 23.5, 7.9, 0.2),
    "BigDFT": (420.4, 18.1, 23.2, 0.6),
}


class TestTable2Pipeline:
    """The full Table II: five benchmarks, two platforms, both ratios."""

    @pytest.mark.parametrize(
        "app",
        [Linpack(), CoreMark(), StockFish(), Specfem3D(), BigDFT()],
        ids=lambda a: a.name,
    )
    def test_row_matches_paper(self, app):
        snow = app.run(SNOWBALL_A9500)
        xeon = app.run(XEON_X5550)
        row = compare_runs(xeon, snow)
        paper_snow, paper_xeon, paper_ratio, paper_energy = PAPER_TABLE2[app.name]
        assert row.contender_value == pytest.approx(paper_snow, rel=0.05)
        assert row.reference_value == pytest.approx(paper_xeon, rel=0.05)
        assert row.ratio == pytest.approx(paper_ratio, rel=0.06)
        assert row.energy_ratio == pytest.approx(paper_energy, abs=0.12)

    def test_arm_wins_energy_on_every_row_but_linpack(self):
        """§III-C: LINPACK 'costs the same energy'; everything else is
        cheaper on the ARM."""
        for app in (CoreMark(), StockFish(), Specfem3D(), BigDFT()):
            row = compare_runs(app.run(XEON_X5550), app.run(SNOWBALL_A9500))
            assert row.energy_ratio < 0.8, app.name
        linpack = compare_runs(Linpack().run(XEON_X5550), Linpack().run(SNOWBALL_A9500))
        assert linpack.energy_ratio == pytest.approx(1.0, abs=0.1)


def _speedups(app, counts, *, baseline=1, **app_args):
    """Figure 3's engine records at seed 7 on a 32-node Tibidabo:
    ``cores -> speedup``."""
    grid = run_replicated_speedups(
        ExperimentEngine(), app, counts=counts, num_nodes=32, seeds=[7],
        baseline_cores=baseline, app_args=app_args,
    )
    return {cores: speedups[0] for cores, speedups in grid.items()}


class TestFigure3Pipeline:
    """Strong scaling on a reduced Tibidabo (shapes, not wall time)."""

    def test_linpack_scales_acceptably(self):
        curve = _speedups("linpack", [1, 4, 16, 48])
        assert curve[48] / 48 > 0.7  # "acceptable", ~80% at scale

    def test_specfem_scales_excellently(self):
        curve = _speedups("specfem3d", [4, 16, 64], baseline=4, timesteps=8)
        assert curve[64] / 64 > 0.9  # "excellent ... 90%"

    def test_bigdft_efficiency_drops_rapidly(self):
        curve = _speedups("bigdft", [1, 4, 16, 36], scf_iterations=4)
        assert curve[36] / 36 < 0.6
        # ordering of the three codes at comparable scale
        linpack = _speedups("linpack", [1, 36])
        assert curve[36] < linpack[36]

    def test_efficiency_ordering_matches_paper(self):
        """SPECFEM3D > LINPACK > BigDFT at a common core count."""
        specfem = _speedups("specfem3d", [4, 32], baseline=4, timesteps=8)[32] / 32
        linpack = _speedups("linpack", [1, 32])[32] / 32
        bigdft = _speedups("bigdft", [1, 32], scf_iterations=4)[32] / 32
        assert specfem > linpack > bigdft


class TestFigure4Pipeline:
    """36-core BigDFT: trace, export, analyze delayed collectives."""

    @pytest.fixture(scope="class")
    def recorder(self):
        cluster = tibidabo(num_nodes=18, seed=7)
        recorder = TraceRecorder()
        app = BigDFT()
        MpiJob(cluster, 36, app.rank_program(cluster, 36), tracer=recorder).run()
        return recorder

    def test_most_collectives_delayed(self, recorder):
        report = analyze_collectives(recorder, "alltoallv")
        assert report.delayed_fraction > 0.5

    def test_mixed_full_and_partial_delays(self, recorder):
        """'In some cases all the nodes are delayed while in other,
        only part of them suffers'."""
        report = analyze_collectives(recorder, "alltoallv")
        delayed_counts = {i.ranks_delayed for i in report.delayed}
        assert len(delayed_counts) > 1

    def test_trace_roundtrips_through_paraver_format(self, recorder):
        parsed = parse_prv(export_prv(recorder, job_name="bigdft-36"))
        assert len(parsed.comms) == len(recorder.comms)

    def test_upgraded_switches_remove_the_delays(self):
        cluster = tibidabo(num_nodes=18, seed=7, upgraded_switches=True)
        recorder = TraceRecorder()
        app = BigDFT()
        MpiJob(cluster, 36, app.rank_program(cluster, 36), tracer=recorder).run()
        report = analyze_collectives(recorder, "alltoallv")
        assert report.delayed_fraction < 0.2


class TestFigure5Pipeline:
    """RT scheduling on the Snowball: bimodal bandwidth, consecutive
    degradation, L1-size cliff."""

    @pytest.fixture(scope="class")
    def results(self):
        os_model = OSModel.boot(
            SNOWBALL_A9500, policy=SchedulingPolicy.FIFO, seed=5
        )
        bench = MemBench(SNOWBALL_A9500, os_model, seed=5)
        sizes = [k * 1024 for k in (1, 2, 4, 8, 16, 24, 32, 40, 48, 50)]
        return bench.run_experiment(array_sizes=sizes, replicates=42, seed=5)

    def test_42_replicates_per_size(self, results):
        for size in (1024, 32 * 1024, 50 * 1024):
            assert len(results.where(array_bytes=size)) == 42

    def test_bimodal_at_fixed_size(self, results):
        values = [s.value for s in results.where(array_bytes=16 * 1024)]
        assert is_bimodal(values, ratio=2.5)

    def test_degraded_mode_is_about_5x_lower(self, results):
        nominal = [
            s.value for s in results.where(array_bytes=16 * 1024, degraded=False)
        ]
        degraded = [
            s.value for s in results.where(array_bytes=16 * 1024, degraded=True)
        ]
        assert nominal and degraded
        ratio = (sum(nominal) / len(nominal)) / (sum(degraded) / len(degraded))
        assert 3.5 < ratio < 6.0

    def test_bandwidth_drops_past_l1(self, results):
        def nominal_mean(size):
            values = [
                s.value for s in results.where(array_bytes=size, degraded=False)
            ]
            return sum(values) / len(values)

        assert nominal_mean(16 * 1024) > nominal_mean(50 * 1024) * 1.1

    def test_sequence_plot_shows_consecutive_degradation(self, results):
        degraded_seq = [s.sequence for s in results if s.factors["degraded"]]
        assert len(degraded_seq) > 10
        adjacent = sum(1 for a, b in zip(degraded_seq, degraded_seq[1:]) if b == a + 1)
        assert adjacent / len(degraded_seq) > 0.8


class TestFigure6Pipeline:
    """Element-size x unroll grid on both platforms."""

    @staticmethod
    def _grid(machine, seed=3):
        os_model = OSModel.boot(machine, seed=seed)
        bench = MemBench(machine, os_model, seed=seed)
        results = bench.run_variant_grid(array_bytes=50 * 1024, replicates=3, seed=seed)

        def mean(bits, unroll):
            vals = results.where(elem_bits=bits, unroll=unroll).values()
            return sum(vals) / len(vals)

        return mean

    def test_xeon_both_optimizations_always_help(self):
        mean = self._grid(XEON_X5550)
        for bits in (32, 64, 128):
            assert mean(bits, 8) > mean(bits, 1) * 0.99
        assert mean(128, 8) > mean(64, 8) * 0.95 > mean(32, 8) * 0.9

    def test_arm_pathologies(self):
        mean = self._grid(SNOWBALL_A9500)
        assert mean(64, 8) == max(
            mean(b, u) for b in (32, 64, 128) for u in (1, 8)
        )
        assert mean(128, 8) < mean(128, 1)           # unrolling detrimental
        assert mean(128, 1) < mean(64, 1)            # 128b no better than 64b
        assert abs(mean(128, 1) - mean(32, 1)) / mean(32, 1) < 0.35

    def test_doubling_element_size_roughly_doubles_bandwidth(self):
        """'increasing element size from 32 bits to 64 bits practically
        doubles the bandwidths on both architectures'."""
        for machine in (XEON_X5550, SNOWBALL_A9500):
            mean = self._grid(machine)
            assert 1.4 < mean(64, 1) / mean(32, 1) < 2.3


class TestFigure7Pipeline:
    """magicfilter tuning sweep on Nehalem and Tegra2."""

    def test_sweep_produces_both_counters_for_all_unrolls(self):
        bench = MagicFilterBenchmark(TEGRA2_NODE)
        sweep = bench.sweep()
        assert set(sweep) == set(range(1, 13))
        for counters in sweep.values():
            assert counters.cycles > 0
            assert counters.cache_accesses > 0

    def test_paper_sweet_spots(self):
        assert MagicFilterBenchmark(XEON_X5550).sweet_spot() == list(range(4, 13))
        assert MagicFilterBenchmark(TEGRA2_NODE).sweet_spot() == [4, 5, 6, 7]

    def test_scale_difference_between_platforms(self):
        """'The shapes of the curves are somehow similar but differ
        drastically in scale.'"""
        xeon = MagicFilterBenchmark(XEON_X5550)
        tegra = MagicFilterBenchmark(TEGRA2_NODE)
        best_x = xeon.variant_cost(xeon.best_unroll()).cycles_per_element
        best_t = tegra.variant_cost(tegra.best_unroll()).cycles_per_element
        assert best_t > 5 * best_x


class TestPageAllocationPipeline:
    """§V-A-1 as a pipeline: run-to-run divergence appears exactly when
    physical memory is fragmented and the array is near the L1 size."""

    @staticmethod
    def _ideal_bandwidth(seed, fragmentation, size=32 * 1024):
        os_model = OSModel.boot(
            SNOWBALL_A9500, fragmentation=fragmentation, seed=seed
        )
        bench = MemBench(SNOWBALL_A9500, os_model, seed=seed)
        from repro.kernels.membench import MemBenchConfig
        return bench.measure(
            MemBenchConfig(array_bytes=size)
        ).ideal_bandwidth_bytes_per_s

    def test_clean_system_is_reproducible(self):
        values = {round(self._ideal_bandwidth(s, 0.0)) for s in range(5)}
        assert len(values) == 1

    def test_fragmented_system_diverges_between_runs(self):
        values = {round(self._ideal_bandwidth(s, 0.85)) for s in range(8)}
        assert len(values) > 1

    def test_fragmentation_never_helps(self):
        clean = self._ideal_bandwidth(0, 0.0)
        for seed in range(6):
            assert self._ideal_bandwidth(seed, 0.85) <= clean * 1.001
