"""Cluster-scale energy accounting.

§IV closes with: "No power measurement was done so far at large scale,
but experiments are ongoing.  Nonetheless, with current hardware, the
node power efficiency is likely to be counterbalanced by the network
inefficiency."  This module quantifies exactly that trade on the
simulator: whole-cluster power (nodes + switches), and the energy to
solution of one job with the fabric's share of it.  The X4 sweep over
core counts is :func:`repro.engine.sweeps.run_replicated_energy`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.apps.base import ScalableAppModel
from repro.cluster.cluster import ClusterModel
from repro.errors import ConfigurationError

#: Wall power of one 48-port GbE switch of the era.
SWITCH_POWER_W = 60.0


def switches_in_use(cluster: ClusterModel, nodes_used: int) -> int:
    """Leaf switches touched by the first *nodes_used* nodes, plus the
    root when more than one leaf is involved."""
    if not 1 <= nodes_used <= cluster.num_nodes:
        raise ConfigurationError(
            f"nodes_used must be in [1, {cluster.num_nodes}], got {nodes_used}"
        )
    per_leaf = cluster.fabric.spec.nodes_per_leaf
    leaves = -(-nodes_used // per_leaf)
    return leaves + (1 if leaves > 1 else 0)


def cluster_power_watts(
    cluster: ClusterModel, nodes_used: int, *, switch_power_w: float = SWITCH_POWER_W
) -> float:
    """TDP-model power of a job footprint: nodes plus fabric."""
    node_power = cluster.node_power_watts(nodes_used)
    return node_power + switches_in_use(cluster, nodes_used) * switch_power_w


@dataclass(frozen=True)
class ClusterRunEnergy:
    """Energy accounting of one simulated cluster job."""

    app: str
    cores: int
    nodes: int
    elapsed_seconds: float
    node_power_w: float
    network_power_w: float

    @property
    def total_power_w(self) -> float:
        """Nodes + fabric."""
        return self.node_power_w + self.network_power_w

    @property
    def energy_joules(self) -> float:
        """Energy to solution under the TDP model."""
        return self.total_power_w * self.elapsed_seconds

    @property
    def network_power_fraction(self) -> float:
        """Share of the power budget burned by the fabric."""
        return self.network_power_w / self.total_power_w


def measure_cluster_energy(
    app: ScalableAppModel,
    cluster: ClusterModel,
    cores: int,
    *,
    switch_power_w: float = SWITCH_POWER_W,
) -> ClusterRunEnergy:
    """Run *app* on *cores* and account the footprint's energy."""
    if cores < 1:
        raise ConfigurationError("need at least one core")
    elapsed = app.run_cluster(cluster, cores)
    nodes = -(-cores // cluster.cores_per_node)
    return ClusterRunEnergy(
        app=app.name,
        cores=cores,
        nodes=nodes,
        elapsed_seconds=elapsed,
        node_power_w=cluster.node_power_watts(nodes),
        network_power_w=switches_in_use(cluster, nodes) * switch_power_w,
    )
