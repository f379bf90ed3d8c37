"""Tests for the application catalog (Table I) and the cluster-side
behaviour of the scalable app models (Figure 3 scaling shapes on a
small Tibidabo)."""

import pytest

from repro.apps import BigDFT, Linpack, Specfem3D
from repro.apps.catalog import MONT_BLANC_APPLICATIONS, application_by_code
from repro.cluster import tibidabo
from repro.engine import ExperimentEngine
from repro.engine.sweeps import run_replicated_speedups
from repro.errors import ConfigurationError, EngineError


class TestCatalog:
    def test_eleven_applications(self):
        """Table I: 'Eleven applications were selected'."""
        assert len(MONT_BLANC_APPLICATIONS) == 11

    def test_paper_studies_specfem_and_bigdft(self):
        studied = [a.code for a in MONT_BLANC_APPLICATIONS if a.studied_in_paper]
        assert sorted(studied) == ["BigDFT", "SPECFEM3D"]

    def test_lookup_case_insensitive(self):
        assert application_by_code("bigdft").institution == "CEA"

    def test_unknown_code_rejected(self):
        with pytest.raises(ConfigurationError):
            application_by_code("DOOM")

    def test_domains_match_table1(self):
        assert application_by_code("YALES2").domain == "Combustion"
        assert application_by_code("BQCD").domain == "Particle Physics"
        assert application_by_code("COSMO").domain == "Weather Forecast"


@pytest.fixture(scope="module")
def small_cluster():
    return tibidabo(num_nodes=16, seed=11)


class TestClusterRuns:
    def test_linpack_parallel_beats_serial(self, small_cluster):
        app = Linpack(cluster_n=4096, nb=256)
        t1 = app.run_cluster(small_cluster, 1)
        t8 = app.run_cluster(small_cluster, 8)
        assert t8 < t1 / 4

    def test_specfem_scales_nearly_ideally(self, small_cluster):
        app = Specfem3D(timesteps=5)
        t4 = app.run_cluster(small_cluster, 4)
        t16 = app.run_cluster(small_cluster, 16)
        speedup = 4 * t4 / t16
        assert speedup > 0.9 * 16

    def test_bigdft_scales_worse_than_specfem(self, small_cluster):
        """Figure 3: BigDFT's efficiency 'drops rapidly' while
        SPECFEM3D's stays excellent."""
        bigdft = BigDFT(scf_iterations=3)
        specfem = Specfem3D(timesteps=5)

        def efficiency(app):
            t2 = app.run_cluster(small_cluster, 2)
            t16 = app.run_cluster(small_cluster, 16)
            return (2 * t2 / t16) / 16

        assert efficiency(specfem) > efficiency(bigdft)

    def test_speedup_curve_requires_baseline_in_sweep(self):
        with pytest.raises(EngineError, match="baseline 4 missing"):
            run_replicated_speedups(
                ExperimentEngine(), "specfem3d", counts=[8, 16],
                num_nodes=16, seeds=[11], baseline_cores=4,
            )

    def test_speedup_curve_baseline_normalization(self):
        """The Figure 3b convention: speedup(baseline) == baseline."""
        curve = run_replicated_speedups(
            ExperimentEngine(), "specfem3d", counts=[4, 8], num_nodes=16,
            seeds=[11], baseline_cores=4, app_args={"timesteps": 3},
        )
        assert curve[4] == (4.0,)

    def test_specfem_memory_constraint(self, small_cluster):
        """'the use-case cannot be run on less than 2 nodes'."""
        app = Specfem3D()
        with pytest.raises(ConfigurationError):
            app.validate_memory(small_cluster, 2)  # 2 ranks -> 1 node
        app.validate_memory(small_cluster, 4)

    def test_upgraded_switches_help_bigdft(self):
        """The paper's anticipated fix: 'upgrading the Ethernet
        switches' removes the collapse."""
        app = BigDFT(scf_iterations=3)
        lossy = tibidabo(num_nodes=16, seed=3)
        clean = tibidabo(num_nodes=16, seed=3, upgraded_switches=True)
        t_lossy = app.run_cluster(lossy, 32)
        t_clean = app.run_cluster(clean, 32)
        assert t_clean < t_lossy

    def test_pairwise_alltoallv_ablation_beats_linear(self):
        """The gentle pairwise algorithm avoids the incast the linear
        (real-library) algorithm creates."""
        cluster = tibidabo(num_nodes=16, seed=3)
        linear = BigDFT(scf_iterations=3, alltoallv_algorithm="linear")
        pairwise = BigDFT(scf_iterations=3, alltoallv_algorithm="pairwise")
        assert pairwise.run_cluster(cluster, 32) < linear.run_cluster(cluster, 32)

    def test_rank_flop_conservation(self, small_cluster):
        """Strong scaling: total LINPACK update work is independent of
        P (within panel rounding)."""
        app = Linpack(cluster_n=2048, nb=256)
        base = app.cluster_flops()
        assert base == pytest.approx((2 / 3) * 2048**3)
