"""Tests for repro.apps.portfolio (the full Table I portfolio)."""

import pytest

from repro.apps.catalog import MONT_BLANC_APPLICATIONS
from repro.apps.portfolio import (
    CharacterizedApp,
    CommPattern,
    PORTFOLIO_CHARACTERS,
    WorkloadCharacter,
    character_by_code,
    portfolio_apps,
    portfolio_scaling_report,
)
from repro.arch.isa import Precision
from repro.arch.machines import SNOWBALL_A9500, XEON_X5550
from repro.cluster import tibidabo
from repro.errors import ConfigurationError


class TestCharacters:
    def test_portfolio_completes_table1(self):
        """Nine characterized codes + the two detailed models = the
        full eleven of Table I."""
        table1 = {a.code for a in MONT_BLANC_APPLICATIONS}
        characterized = {c.code for c in PORTFOLIO_CHARACTERS}
        assert characterized | {"SPECFEM3D", "BigDFT"} == table1
        assert len(characterized) == 9

    def test_domains_match_table1(self):
        by_code = {a.code: a.domain for a in MONT_BLANC_APPLICATIONS}
        for character in PORTFOLIO_CHARACTERS:
            assert character.domain == by_code[character.code]

    def test_lookup(self):
        assert character_by_code("bqcd").pattern is CommPattern.HALO_EXCHANGE
        with pytest.raises(ConfigurationError):
            character_by_code("DOOM")

    def test_spectral_codes_are_alltoall(self):
        """Plane-wave DFT transposes — the BigDFT-syndrome candidates."""
        assert (
            character_by_code("Quantum Expresso").pattern
            is CommPattern.TRANSPOSE_ALLTOALL
        )

    def test_invalid_characters_rejected(self):
        with pytest.raises(ConfigurationError):
            WorkloadCharacter(
                code="x", domain="d", precision=Precision.DOUBLE,
                total_flops=0, kernel_efficiency=0.5, bytes_per_flop=0.1,
                pattern=CommPattern.EMBARRASSING, comm_volume_bytes=0, steps=1,
            )
        with pytest.raises(ConfigurationError):
            WorkloadCharacter(
                code="x", domain="d", precision=Precision.DOUBLE,
                total_flops=1e9, kernel_efficiency=1.5, bytes_per_flop=0.1,
                pattern=CommPattern.EMBARRASSING, comm_volume_bytes=0, steps=1,
            )

    def test_app_requires_character(self):
        with pytest.raises(ConfigurationError):
            CharacterizedApp()


class TestSingleNode:
    @pytest.mark.parametrize("code", [c.code for c in PORTFOLIO_CHARACTERS])
    def test_every_code_runs_on_both_platforms(self, code):
        app = portfolio_apps()[code]
        snow = app.run(SNOWBALL_A9500)
        xeon = app.run(XEON_X5550)
        assert snow.elapsed_seconds > xeon.elapsed_seconds
        assert snow.metric_name == "s"

    def test_memory_bound_codes_track_bandwidth_not_peak(self):
        """YALES2 (0.9 B/flop) must show a ratio far below the 42x DP
        peak gap; compute-bound SMMP sits near it."""
        apps = portfolio_apps()
        def ratio(code):
            app = apps[code]
            return (
                app.run(SNOWBALL_A9500).elapsed_seconds
                / app.run(XEON_X5550).elapsed_seconds
            )
        assert ratio("SMMP") > 35
        assert ratio("YALES2") < ratio("SMMP") + 1


class TestClusterScaling:
    @pytest.fixture(scope="class")
    def cluster(self):
        return tibidabo(num_nodes=32, seed=11)

    def test_report_covers_all_eleven(self, cluster):
        verdicts = portfolio_scaling_report(cluster, cores=16, baseline=2)
        assert len(verdicts) == 11
        assert [v.code for v in verdicts[-2:]] == ["SPECFEM3D", "BigDFT"]

    def test_halo_codes_scale_cleanly(self, cluster):
        verdicts = {
            v.code: v for v in portfolio_scaling_report(cluster, cores=32, baseline=2)
        }
        for code in ("COSMO", "BQCD", "YALES2"):
            assert verdicts[code].efficiency > 0.85, code

    def test_monte_carlo_codes_are_trivially_scalable(self, cluster):
        verdicts = {
            v.code: v for v in portfolio_scaling_report(cluster, cores=32, baseline=2)
        }
        for code in ("SMMP", "PorFASI"):
            assert verdicts[code].efficiency > 0.95, code

    def test_transpose_code_shows_the_bigdft_syndrome(self, cluster):
        """Quantum Espresso's alltoall transposition is the worst
        scaler of the portfolio, mirroring Figure 3c."""
        verdicts = portfolio_scaling_report(cluster, cores=32, baseline=2)
        worst = min(verdicts, key=lambda v: v.efficiency)
        assert worst.pattern is CommPattern.TRANSPOSE_ALLTOALL

    def test_invalid_sweep_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            portfolio_scaling_report(cluster, cores=2, baseline=2)
