"""Hierarchical switch fabrics and routing.

Tibidabo's boards "are interconnected hierarchically using 48-port
1 GbE switches": nodes hang off leaf switches whose uplinks meet at a
root switch.  A message therefore crosses (at worst) NIC → leaf →
root → leaf → NIC, serializing at every hop — and the leaf uplinks are
the natural congestion points for all-to-all traffic.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cluster.network import Nic, NicSpec, GBE_NIC
from repro.cluster.switch import SwitchModel, SwitchSpec, TIBIDABO_SWITCH
from repro.errors import ConfigurationError, NetworkError


@dataclass(frozen=True)
class FatTreeSpec:
    """Two-level tree: leaves host nodes, one root joins the leaves.

    ``nodes_per_leaf`` node ports plus one uplink port must fit the
    switch's port count.
    """

    switch: SwitchSpec = TIBIDABO_SWITCH
    nic: NicSpec = GBE_NIC
    nodes_per_leaf: int = 40

    def __post_init__(self) -> None:
        if self.nodes_per_leaf < 1:
            raise ConfigurationError("need at least one node per leaf")
        if self.nodes_per_leaf + 1 > self.switch.ports:
            raise ConfigurationError(
                f"{self.nodes_per_leaf} nodes + uplink exceed the "
                f"{self.switch.ports}-port switch"
            )


class Fabric:
    """A built fabric: NICs, leaf switches, root switch, and routing."""

    def __init__(self, num_nodes: int, spec: FatTreeSpec, *, seed: int = 0) -> None:
        if num_nodes < 1:
            raise ConfigurationError("a fabric needs at least one node")
        self.spec = spec
        self.num_nodes = num_nodes
        self.nics = [Nic(i, spec.nic) for i in range(num_nodes)]
        num_leaves = -(-num_nodes // spec.nodes_per_leaf)
        self.leaves = [
            SwitchModel(spec.switch, name=f"leaf{i}", seed=seed + i)
            for i in range(num_leaves)
        ]
        self.root = (
            SwitchModel(spec.switch, name="root", seed=seed + num_leaves)
            if num_leaves > 1
            else None
        )
        #: Port on each leaf reserved for the uplink to the root.
        self._uplink_port = spec.switch.ports - 1

    def leaf_of(self, node: int) -> int:
        """Leaf switch index hosting *node*."""
        self._check_node(node)
        return node // self.spec.nodes_per_leaf

    def _leaf_port(self, node: int) -> int:
        return node % self.spec.nodes_per_leaf

    def _check_node(self, node: int) -> None:
        if not 0 <= node < self.num_nodes:
            raise NetworkError(f"node {node} outside fabric of {self.num_nodes}")

    def hop_count(self, src: int, dst: int) -> int:
        """Switch hops between two (distinct) nodes."""
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            return 0
        return 1 if self.leaf_of(src) == self.leaf_of(dst) else 3

    def deliver(self, now: float, src: int, dst: int, nbytes: int) -> float:
        """Book the full route of one message; returns arrival time.

        The message serializes at the source NIC TX, every traversed
        switch output port (where congestion episodes may strike) and
        the destination NIC RX, store-and-forward at each hop.
        """
        self._check_node(src)
        self._check_node(dst)
        if src == dst:
            raise NetworkError("use shared memory for intra-node transfers")
        nic_src, nic_dst = self.nics[src], self.nics[dst]

        t = nic_src.tx.occupy(now, nbytes) + nic_src.latency_s

        src_leaf, dst_leaf = self.leaf_of(src), self.leaf_of(dst)
        if src_leaf == dst_leaf:
            t = self.leaves[src_leaf].forward(
                t, self._leaf_port(dst), nbytes, flow=src
            )
        else:
            if self.root is None:
                raise NetworkError("multi-leaf route in a single-leaf fabric")
            t = self.leaves[src_leaf].forward(
                t, self._uplink_port, nbytes, flow=src, edge_port=False
            )
            t = self.root.forward(
                t, dst_leaf, nbytes, flow=src, edge_port=False
            )
            t = self.leaves[dst_leaf].forward(
                t, self._leaf_port(dst), nbytes, flow=src
            )

        t = nic_dst.rx.occupy(t, nbytes) + nic_dst.latency_s
        return t

    # -- fault-injection hooks ---------------------------------------------

    def set_node_link_scale(
        self, node: int, factor: float, *, now: float | None = None
    ) -> None:
        """Degrade (or restore with 1.0) one node's NIC line rate.

        With *now* given, in-flight transfers on the NIC are re-booked
        at the new rate from *now* on (see
        :meth:`SerialResource.set_bandwidth_scale`).
        """
        self._check_node(node)
        self.nics[node].tx.set_bandwidth_scale(factor, now=now)
        self.nics[node].rx.set_bandwidth_scale(factor, now=now)

    def set_buffer_scale(self, factor: float) -> None:
        """Shrink (or restore with 1.0) every switch's output buffers."""
        for leaf in self.leaves:
            leaf.set_buffer_scale(factor)
        if self.root is not None:
            self.root.set_buffer_scale(factor)

    def reset(self) -> None:
        """Clear all bookings and statistics for a fresh job."""
        for nic in self.nics:
            nic.tx.reset()
            nic.rx.reset()
        for leaf in self.leaves:
            leaf.reset()
        if self.root is not None:
            self.root.reset()

    def total_loss_episodes(self) -> int:
        """Congestion loss episodes across all switches."""
        total = sum(s.loss_episodes for s in self.leaves)
        if self.root is not None:
            total += self.root.loss_episodes
        return total

    def metrics_summary(self, elapsed: float) -> dict[str, float]:
        """Aggregate transport statistics over a ``[0, elapsed]`` window.

        Feeds the metrics registry at job teardown: NIC-TX traffic
        totals, the busiest NIC's utilization, and the retransmission
        (loss) episodes every switch recorded.  All values derive from
        simulated time, so they are deterministic across runs.
        """
        tx = [nic.tx for nic in self.nics]
        # Left to right in a plain loop: from Python 3.12 on, sum() of
        # floats compensates rounding, which moves the last digit and
        # would make the goldens depend on the interpreter.
        busy_seconds = 0.0
        for r in tx:
            busy_seconds += r.busy_time
        summary: dict[str, float] = {
            "bytes": float(sum(r.bytes_carried for r in tx)),
            "messages": float(sum(r.messages_carried for r in tx)),
            "busy_seconds": busy_seconds,
            "retransmit_episodes": float(self.total_loss_episodes()),
        }
        if elapsed > 0:
            summary["max_nic_utilization"] = max(
                r.utilization(elapsed) for r in tx
            )
        return summary
