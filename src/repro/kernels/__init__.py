"""Computational kernels and their performance models.

* :mod:`repro.kernels.codegen` — an abstract code-generation model:
  register allocation with spill estimation and loop scheduling, the
  mechanism behind the unrolling effects in Figures 6 and 7;
* :mod:`repro.kernels.variants` — the element-size x unroll x
  vectorization variants of the stride kernel (Figure 6);
* :mod:`repro.kernels.membench` — the §V-A memory microbenchmark
  (Figure 5 and the §V-A-1 page-allocation study);
* :mod:`repro.kernels.magicfilter` — BigDFT's 3-D magicfilter
  convolution, both executable (pure Python) and modelled (Figure 7);
* :mod:`repro.kernels.counters` — PAPI-style hardware counters.
"""

from repro.kernels.codegen import LoopKernel, RegisterPressure, ScheduledLoop
from repro.kernels.counters import CounterSet
from repro.kernels.magicfilter import (
    MAGICFILTER_LENGTH,
    MagicFilterBenchmark,
    apply_magicfilter_3d,
    magicfilter_1d,
)
from repro.kernels.latbench import LatBench, LatencySample, latency_plateaus
from repro.kernels.membench import MemBench, MemBenchConfig
from repro.kernels.memmodel import (
    CacheCapacityModel,
    FittedMemoryModel,
    fit_memory_model,
)
from repro.kernels.variants import IssueProfile, KernelVariant, issue_profile

__all__ = [
    "CacheCapacityModel",
    "CounterSet",
    "FittedMemoryModel",
    "LatBench",
    "LatencySample",
    "IssueProfile",
    "KernelVariant",
    "LoopKernel",
    "MAGICFILTER_LENGTH",
    "MagicFilterBenchmark",
    "MemBench",
    "MemBenchConfig",
    "RegisterPressure",
    "ScheduledLoop",
    "apply_magicfilter_3d",
    "fit_memory_model",
    "issue_profile",
    "latency_plateaus",
    "magicfilter_1d",
]
