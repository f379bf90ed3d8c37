"""Closed-form oracles for the switch fabric.

On an idle fabric built from loss-free switches (``UPGRADED_SWITCH``:
``loss_rate = 0``, so no incast collapse can strike) every delivery
time follows from the link parameters alone, LogGP-style:

* **intra-leaf** — source NIC, one leaf output port, destination NIC,
  store-and-forward at each: ``2 * (n / nic_rate + nic_latency) +
  n / port_rate + forwarding_latency``;
* **cross-leaf** — the same NIC terms plus three switch hops (leaf
  uplink, root, destination leaf): ``3 * (n / port_rate +
  forwarding_latency)``;
* **incast** — k equal messages sent together from distinct nodes of
  one leaf to one receiver serialize on its output port: the first
  arrives at the single-message time, each later one exactly one port
  slot (``n / port_rate``) after the one before.

The commodity ``TIBIDABO_SWITCH`` is where the incast oracle stops
holding by design: its shallow buffers overflow under many converging
flows and collapsed bursts pay retransmission timeouts (the §IV
pathology behind Figure 4).
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, strategies as st

from repro.cluster.fabric import Fabric, FatTreeSpec
from repro.cluster.switch import TIBIDABO_SWITCH, UPGRADED_SWITCH

SPEC = FatTreeSpec(switch=UPGRADED_SWITCH)
NUM_NODES = 96  # three leaves of 40 nodes
NIC_RATE = SPEC.nic.bandwidth_bytes_per_s
NIC_LATENCY = SPEC.nic.latency_s
PORT_RATE = SPEC.switch.port_bandwidth_bits_per_s / 8.0
FORWARDING = SPEC.switch.forwarding_latency_s

sizes = st.integers(min_value=1, max_value=1_250_000)
start_times = st.floats(min_value=0.0, max_value=10.0)


def nic_terms(nbytes):
    return 2.0 * (nbytes / NIC_RATE + NIC_LATENCY)


def switch_hop(nbytes):
    return nbytes / PORT_RATE + FORWARDING


@st.composite
def same_leaf_pair(draw):
    leaf = draw(st.integers(0, NUM_NODES // SPEC.nodes_per_leaf - 1))
    ports = st.integers(0, SPEC.nodes_per_leaf - 1)
    src = draw(ports)
    dst = draw(ports.filter(lambda port: port != src))
    base = leaf * SPEC.nodes_per_leaf
    return base + src, base + dst


@st.composite
def cross_leaf_pair(draw):
    src = draw(st.integers(0, NUM_NODES - 1))
    dst = draw(
        st.integers(0, NUM_NODES - 1).filter(
            lambda node: node // SPEC.nodes_per_leaf
            != src // SPEC.nodes_per_leaf
        )
    )
    return src, dst


class TestSingleMessage:
    @given(pair=same_leaf_pair(), nbytes=sizes, now=start_times)
    def test_intra_leaf_arrival(self, pair, nbytes, now):
        fabric = Fabric(NUM_NODES, SPEC)
        assert fabric.hop_count(*pair) == 1
        arrival = fabric.deliver(now, *pair, nbytes)
        expected = now + nic_terms(nbytes) + switch_hop(nbytes)
        assert arrival == pytest.approx(expected, rel=1e-12)

    @given(pair=cross_leaf_pair(), nbytes=sizes, now=start_times)
    def test_cross_leaf_arrival(self, pair, nbytes, now):
        fabric = Fabric(NUM_NODES, SPEC)
        assert fabric.hop_count(*pair) == 3
        arrival = fabric.deliver(now, *pair, nbytes)
        expected = now + nic_terms(nbytes) + 3.0 * switch_hop(nbytes)
        assert arrival == pytest.approx(expected, rel=1e-12)


def incast(fabric, senders, nbytes):
    """Deliver one message from each of *senders* to node 0 at t = 0."""
    return [fabric.deliver(0.0, src, 0, nbytes) for src in senders]


class TestIncast:
    @given(
        k=st.integers(2, SPEC.nodes_per_leaf - 1),
        nbytes=sizes,
        seed=st.integers(0, 1_000),
    )
    def test_messages_land_one_port_slot_apart(self, k, nbytes, seed):
        fabric = Fabric(NUM_NODES, SPEC, seed=seed)
        arrivals = incast(fabric, range(1, k + 1), nbytes)
        slot = nbytes / PORT_RATE
        assert arrivals[0] == pytest.approx(
            nic_terms(nbytes) + switch_hop(nbytes), rel=1e-12
        )
        for before, after in zip(arrivals, arrivals[1:]):
            assert after - before == pytest.approx(slot, rel=1e-9)
        assert fabric.total_loss_episodes() == 0

    def test_commodity_switch_breaks_the_oracle(self):
        """30 flows into one shallow-buffered port: the burst collapses
        and retransmission timeouts open gaps far wider than a slot."""
        nbytes = 64 * 1024
        fabric = Fabric(NUM_NODES, FatTreeSpec(switch=TIBIDABO_SWITCH), seed=3)
        arrivals = incast(fabric, range(1, 31), nbytes)
        gaps = [after - before for before, after in zip(arrivals, arrivals[1:])]
        assert fabric.total_loss_episodes() == 5
        assert max(gaps) >= 0.75 * TIBIDABO_SWITCH.rto_s
