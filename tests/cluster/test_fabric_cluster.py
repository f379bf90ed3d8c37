"""Tests for repro.cluster.fabric and repro.cluster.cluster."""

import pytest

from repro.cluster.cluster import ClusterModel, tibidabo
from repro.cluster.fabric import Fabric, FatTreeSpec
from repro.errors import ConfigurationError, NetworkError


class TestFabricTopology:
    def test_single_leaf_has_no_root(self):
        fabric = Fabric(16, FatTreeSpec())
        assert fabric.root is None
        assert len(fabric.leaves) == 1

    def test_multi_leaf_grows_a_root(self):
        fabric = Fabric(96, FatTreeSpec(nodes_per_leaf=40))
        assert fabric.root is not None
        assert len(fabric.leaves) == 3

    def test_leaf_assignment(self):
        fabric = Fabric(96, FatTreeSpec(nodes_per_leaf=40))
        assert fabric.leaf_of(0) == 0
        assert fabric.leaf_of(39) == 0
        assert fabric.leaf_of(40) == 1
        assert fabric.leaf_of(95) == 2

    def test_hop_counts(self):
        fabric = Fabric(96, FatTreeSpec(nodes_per_leaf=40))
        assert fabric.hop_count(0, 0) == 0
        assert fabric.hop_count(0, 1) == 1
        assert fabric.hop_count(0, 41) == 3

    def test_too_many_nodes_per_leaf_rejected(self):
        with pytest.raises(ConfigurationError):
            FatTreeSpec(nodes_per_leaf=48)  # 48 + uplink > 48 ports


class TestFabricDelivery:
    def test_intra_leaf_delivery_time(self):
        fabric = Fabric(4, FatTreeSpec())
        arrival = fabric.deliver(0.0, 0, 1, 125_000)
        # NIC tx (1 ms) + latency + switch (1 ms) + latency + NIC rx (1 ms) + latency
        assert 0.003 <= arrival < 0.0032

    def test_cross_leaf_costs_more_hops(self):
        fabric = Fabric(96, FatTreeSpec(nodes_per_leaf=40))
        intra = fabric.deliver(0.0, 0, 1, 125_000)
        fabric.reset()
        inter = fabric.deliver(0.0, 0, 41, 125_000)
        assert inter > intra

    def test_self_delivery_rejected(self):
        fabric = Fabric(4, FatTreeSpec())
        with pytest.raises(NetworkError):
            fabric.deliver(0.0, 2, 2, 100)

    def test_unknown_node_rejected(self):
        fabric = Fabric(4, FatTreeSpec())
        with pytest.raises(NetworkError):
            fabric.deliver(0.0, 0, 9, 100)

    def test_concurrent_messages_to_one_node_serialize(self):
        fabric = Fabric(8, FatTreeSpec())
        arrivals = [fabric.deliver(0.0, src, 0, 1_250_000) for src in range(1, 8)]
        assert arrivals == sorted(arrivals)
        # 7 x 10 ms of payload must serialize at the rx port/NIC.
        assert arrivals[-1] >= 7 * 0.01

    def test_reset_clears_bookings_and_stats(self):
        fabric = Fabric(8, FatTreeSpec())
        fabric.deliver(0.0, 0, 1, 1_000_000)
        fabric.reset()
        assert fabric.nics[0].tx.free_at == 0.0
        assert fabric.total_loss_episodes() == 0

    def test_busy_seconds_add_left_to_right_on_every_python(self):
        """Python 3.12's compensated float sum() would read 1.0 here;
        the goldens were made with plain left-to-right addition."""
        fabric = Fabric(3, FatTreeSpec())
        for nic, busy in zip(fabric.nics, (1e16, 1.0, -1e16)):
            nic.tx.busy_time = busy
        assert fabric.metrics_summary(1.0)["busy_seconds"] == 0.0


class TestClusterModel:
    def test_tibidabo_defaults(self):
        cluster = tibidabo(num_nodes=8)
        assert cluster.node.name.startswith("NVIDIA Tegra2")
        assert cluster.cores_per_node == 2
        assert cluster.total_cores == 16

    def test_rank_placement(self):
        cluster = tibidabo(num_nodes=4)
        assert cluster.node_of_rank(0) == 0
        assert cluster.node_of_rank(1) == 0
        assert cluster.node_of_rank(2) == 1
        assert cluster.node_of_rank(7) == 3

    def test_rank_overflow_rejected(self):
        cluster = tibidabo(num_nodes=2)
        with pytest.raises(ConfigurationError):
            cluster.node_of_rank(4)

    def test_shared_memory_transfer(self):
        cluster = tibidabo(num_nodes=2)
        done = cluster.shared_memory_transfer(0.0, 0, 1_000_000)
        assert 0.0 < done < 0.01

    def test_node_power(self):
        cluster = tibidabo(num_nodes=8)
        assert cluster.node_power_watts(8) == pytest.approx(8 * 4.0)
        with pytest.raises(ConfigurationError):
            cluster.node_power_watts(9)

    def test_upgraded_variant(self):
        cluster = tibidabo(num_nodes=8, upgraded_switches=True)
        assert "upgraded" in cluster.name
        assert cluster.fabric.spec.switch.loss_rate == 0.0

    def test_mismatched_fabric_rejected(self):
        from repro.arch.machines import TEGRA2_NODE
        fabric = Fabric(4, FatTreeSpec())
        with pytest.raises(ConfigurationError):
            ClusterModel(name="bad", node=TEGRA2_NODE, num_nodes=8, fabric=fabric)
