"""Tests for repro.cluster.prototype (the final Mont-Blanc machine)."""

import pytest

from repro.apps import BigDFT, Specfem3D
from repro.arch.isa import Precision
from repro.cluster import tibidabo
from repro.cluster.mpi import MpiJob
from repro.cluster.prototype import (
    COMMODITY_SWITCH_POWER,
    EeeSwitchPower,
    PROTOTYPE_SWITCH,
    PROTOTYPE_SWITCH_POWER,
    TEN_GBE_NIC,
    montblanc_prototype,
)
from repro.errors import ConfigurationError
from repro.tracing import TraceRecorder, analyze_collectives


class TestPrototypeHardware:
    def test_nodes_are_exynos(self):
        cluster = montblanc_prototype(num_nodes=8)
        assert "Exynos" in cluster.node.name
        assert cluster.node.accelerator is not None

    def test_network_is_fast_and_lossless(self):
        assert TEN_GBE_NIC.bandwidth_bytes_per_s == 1.25e9
        assert PROTOTYPE_SWITCH.loss_rate == 0.0
        assert PROTOTYPE_SWITCH.buffer_bytes > 8 * 1024 * 1024

    def test_dp_peak_exceeds_tibidabo_node(self):
        proto = montblanc_prototype(num_nodes=4)
        tibi = tibidabo(num_nodes=4)
        assert proto.node.peak_flops(Precision.DOUBLE) > 5 * tibi.node.peak_flops(
            Precision.DOUBLE
        )


class TestPrototypeBehaviour:
    def test_bigdft_runs_much_faster(self):
        """Better nodes AND a better network: the two §VI levers."""
        app = BigDFT(scf_iterations=3)
        tibi = tibidabo(num_nodes=16, seed=7)
        proto = montblanc_prototype(num_nodes=16, seed=7)
        t_tibi = app.run_cluster(tibi, 32)
        t_proto = app.run_cluster(proto, 32)
        assert t_proto < t_tibi / 5

    def test_no_delayed_collectives_on_the_prototype(self):
        app = BigDFT()
        proto = montblanc_prototype(num_nodes=18, seed=7)
        recorder = TraceRecorder()
        proto.reset()
        MpiJob(proto, 36, app.rank_program(proto, 36), tracer=recorder).run()
        report = analyze_collectives(recorder, "alltoallv")
        assert report.delayed_fraction < 0.2

    def test_specfem_scales_on_the_prototype_too(self):
        app = Specfem3D(timesteps=5)
        proto = montblanc_prototype(num_nodes=32, seed=3)
        t4 = app.run_cluster(proto, 4)
        # Figure 3b's normalization against the 4-core run.
        assert 4 * t4 / app.run_cluster(proto, 64) / 64 > 0.9


class TestEeePower:
    def test_non_eee_power_is_flat(self):
        power_idle = COMMODITY_SWITCH_POWER.power(active_ports=2, utilization=0.0)
        power_busy = COMMODITY_SWITCH_POWER.power(active_ports=48, utilization=1.0)
        assert power_idle == power_busy

    def test_eee_power_tracks_footprint_and_traffic(self):
        small = PROTOTYPE_SWITCH_POWER.power(active_ports=4, utilization=0.1)
        large = PROTOTYPE_SWITCH_POWER.power(active_ports=40, utilization=0.9)
        assert small < large

    def test_eee_beats_commodity_at_light_load(self):
        """'power saving capabilities': a lightly used EEE switch burns
        far less than the always-on commodity box."""
        eee = PROTOTYPE_SWITCH_POWER.power(active_ports=8, utilization=0.2)
        fixed = COMMODITY_SWITCH_POWER.power(active_ports=8, utilization=0.2)
        assert eee < fixed

    def test_invalid_inputs_rejected(self):
        with pytest.raises(ConfigurationError):
            PROTOTYPE_SWITCH_POWER.power(active_ports=99, utilization=0.5)
        with pytest.raises(ConfigurationError):
            PROTOTYPE_SWITCH_POWER.power(active_ports=4, utilization=1.5)
        with pytest.raises(ConfigurationError):
            EeeSwitchPower(base_w=-1, port_w=1, ports=48, eee=True)
