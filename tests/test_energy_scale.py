"""Tests for repro.energy.scale (cluster-level energy, §IV/§VI)."""

import pytest

from repro.apps import Specfem3D
from repro.cluster import tibidabo
from repro.energy.scale import (
    cluster_power_watts,
    measure_cluster_energy,
    switches_in_use,
)
from repro.engine import ExperimentEngine
from repro.engine.sweeps import run_replicated_energy
from repro.errors import ConfigurationError, EngineError


@pytest.fixture(scope="module")
def cluster():
    return tibidabo(num_nodes=96, seed=7)


class TestFootprint:
    def test_switch_count_single_leaf(self, cluster):
        assert switches_in_use(cluster, 1) == 1
        assert switches_in_use(cluster, 40) == 1

    def test_switch_count_grows_with_leaves(self, cluster):
        assert switches_in_use(cluster, 41) == 3   # 2 leaves + root
        assert switches_in_use(cluster, 96) == 4   # 3 leaves + root

    def test_out_of_range_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            switches_in_use(cluster, 0)
        with pytest.raises(ConfigurationError):
            switches_in_use(cluster, 97)

    def test_cluster_power_includes_fabric(self, cluster):
        nodes_only = cluster.node_power_watts(10)
        total = cluster_power_watts(cluster, 10)
        assert total == pytest.approx(nodes_only + 60.0)

    def test_network_power_matters_at_small_scale(self, cluster):
        """One switch (60 W) dwarfs a handful of 4 W nodes — the
        'network inefficiency' side of the paper's counterbalance."""
        power = cluster_power_watts(cluster, 2)
        assert power > 8 * cluster.node.tdp_watts


class TestMeasureEnergy:
    def test_basic_accounting(self, cluster):
        run = measure_cluster_energy(Specfem3D(timesteps=5), cluster, 16)
        assert run.nodes == 8
        assert run.node_power_w == pytest.approx(32.0)
        assert run.network_power_w == pytest.approx(60.0)
        assert run.energy_joules == pytest.approx(
            run.total_power_w * run.elapsed_seconds
        )

    def test_network_fraction(self, cluster):
        run = measure_cluster_energy(Specfem3D(timesteps=5), cluster, 16)
        assert run.network_power_fraction == pytest.approx(60.0 / 92.0)

    def test_invalid_cores_rejected(self, cluster):
        with pytest.raises(ConfigurationError):
            measure_cluster_energy(Specfem3D(), cluster, 0)


def _x4(app, app_args, counts, field):
    """One field of X4's engine records at seed 7 on 96 nodes:
    ``cores -> value``."""
    grid = run_replicated_energy(
        ExperimentEngine(), app, counts=counts, num_nodes=96, seeds=[7],
        app_args=app_args,
    )
    return {cores: values[0][field] for cores, values in grid.items()}


class TestCounterbalance:
    def test_scalable_code_energy_flat_or_falling(self):
        """SPECFEM3D scales ~ideally: more nodes, proportionally less
        time — compute energy stays flat while the fixed switch power
        amortizes, so energy must not grow much."""
        energies = _x4("specfem3d", {"timesteps": 5}, [8, 16, 32, 64], "energy_j")
        assert energies[64] < energies[8] * 1.6

    def test_congested_code_wastes_energy_at_scale(self):
        """BigDFT's energy-to-solution is U-shaped: adding cores pays
        until the incast threshold, then the network pathology burns
        more joules for the same problem — the paper's counterbalance,
        quantified."""
        energies = _x4(
            "bigdft", {"scf_iterations": 4}, [4, 8, 16, 24, 36], "energy_j"
        )
        assert energies[36] > energies[24]                 # the congestion tax
        assert min(energies, key=energies.get) < 36        # optimum before 36

    def test_network_fraction_shrinks_with_nodes(self):
        fractions = _x4(
            "specfem3d", {"timesteps": 5}, [8, 64], "network_power_fraction"
        )
        assert fractions[64] < fractions[8]

    def test_empty_sweep_rejected(self):
        with pytest.raises(EngineError):
            _x4("specfem3d", {}, [], "energy_j")
