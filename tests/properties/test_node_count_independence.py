"""When a cluster job's result does not depend on the fabric's size.

A job on ``cores`` ranks occupies the first ``ceil(cores / 2)`` Tegra 2
nodes (block placement, two cores per node).  Nodes past those add
NICs nobody sends through and, every 40 nodes, a leaf switch nobody
routes through; a second leaf also adds the root.  None of that can
change the job:

* leaf ``i`` is seeded ``seed + i`` whatever the fabric's size, so the
  leaves the job uses draw the same stream;
* only edge ports (a leaf's port feeding one node's NIC) can suffer
  incast collapse, so only they draw from a switch's RNG; the root,
  seeded ``seed + num_leaves``, forwards only on trunks and never
  draws, so its seed is never read;
* energy counts the switches in use by the job's nodes, not the
  switches built.

So ``cluster_time_point`` and ``cluster_energy_point`` return the same
value, and record the same deterministic metrics, at any two node
counts that hold the job — including jobs that cross leaves, and
fabrics of one to four leaves.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import example, given, strategies as st

from repro.engine.sweeps import cluster_energy_point, cluster_time_point
from repro.metrics.export import registry_to_dict
from repro.metrics.registry import MetricsRegistry, use_registry

#: Four leaves of 40 nodes: the largest fabric drawn.
MAX_NODES = 121

apps = st.one_of(
    st.just(("linpack", {})),
    st.builds(
        lambda n: ("bigdft", {"scf_iterations": n}), st.integers(1, 2)
    ),
    st.builds(
        lambda n: ("specfem3d", {"timesteps": n}), st.integers(2, 5)
    ),
)


@st.composite
def jobs(draw):
    app, app_args = draw(apps)
    cores = draw(st.integers(2, 96))
    n1 = draw(st.integers(-(-cores // 2), MAX_NODES - 1))
    n2 = draw(st.integers(n1 + 1, MAX_NODES))
    worker = draw(st.sampled_from([cluster_time_point, cluster_energy_point]))
    seed = draw(st.integers(0, 20))
    point = {"app": app, "app_args": app_args, "cores": cores, "seed": seed}
    return worker, point, n1, n2


def run(worker, point, num_nodes):
    with use_registry(MetricsRegistry()) as registry:
        value = worker(dict(point, num_nodes=num_nodes))
    return value, registry_to_dict(registry, deterministic=True)


#: Cross-leaf BigDFT jobs whose edge ports do draw from their leaves'
#: RNGs, on fabrics of two, three and four leaves.
CROSS_LEAF = {"app": "bigdft", "app_args": {"scf_iterations": 2}, "seed": 3}
#: x9's 16-node clean job, which reads Figure 3's 96-node point.
X9_CLEAN = {"app": "linpack", "app_args": {}, "cores": 32, "seed": 7}


@given(jobs())
@example((cluster_time_point, X9_CLEAN, 16, 96))
@example((cluster_time_point, dict(CROSS_LEAF, cores=96), 48, 121))
@example((cluster_energy_point, dict(CROSS_LEAF, cores=90), 45, 81))
def test_extra_nodes_change_nothing(job):
    worker, point, n1, n2 = job
    assert run(worker, point, n1) == run(worker, point, n2)
