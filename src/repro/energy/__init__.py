"""Energy accounting (the paper's §III model).

"The results assume a full 2.5W power consumption for the Snowball
board, while only 95W of power (the TDP of the Xeon) are accounted for
the Intel platform.  This is a very conservative estimation, highly
unfavorable for the ARM platform" — and still the ARM wins on energy
for every benchmark but LINPACK.
"""

from repro.energy.model import (
    EnergyComparison,
    compare_runs,
    energy_ratio,
    energy_to_solution,
    gflops_per_watt,
    performance_ratio,
    table2_rows,
)
from repro.energy.scale import (
    ClusterRunEnergy,
    cluster_power_watts,
    measure_cluster_energy,
    switches_in_use,
)

__all__ = [
    "ClusterRunEnergy",
    "EnergyComparison",
    "cluster_power_watts",
    "compare_runs",
    "energy_ratio",
    "energy_to_solution",
    "gflops_per_watt",
    "measure_cluster_energy",
    "performance_ratio",
    "switches_in_use",
    "table2_rows",
]
