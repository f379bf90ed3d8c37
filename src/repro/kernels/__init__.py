"""Computational kernels and their performance models.

* :mod:`repro.kernels.variants` — the element-size x unroll x
  vectorization variants of the stride kernel and their issue model
  (Figure 6);
* :mod:`repro.kernels.membench` — the §V-A memory microbenchmark
  (Figure 5 and the §V-A-1 page-allocation study);
* :mod:`repro.kernels.magicfilter` — BigDFT's 3-D magicfilter
  convolution, both executable (pure Python) and modelled: the
  register-pressure cost model behind Figure 7;
* :mod:`repro.kernels.counters` — PAPI-style hardware counters.
"""

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
    "MAGICFILTER_LENGTH",
    "MagicFilterBenchmark",
    "MemBench",
    "MemBenchConfig",
    "apply_magicfilter_3d",
    "fit_memory_model",
    "issue_profile",
    "latency_plateaus",
    "magicfilter_1d",
]
