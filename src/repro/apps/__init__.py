"""Application workload models.

One model per code the paper measures (§III, Table II):

* :mod:`repro.apps.linpack` — HPL dense linear algebra (double),
* :mod:`repro.apps.coremark` — the embedded-industry integer benchmark,
* :mod:`repro.apps.stockfish` — the branchy 64-bit chess engine,
* :mod:`repro.apps.specfem3d` — seismic wave propagation (bandwidth
  bound, single precision, point-to-point halo exchanges),
* :mod:`repro.apps.bigdft` — wavelet electronic structure (double
  precision convolutions, all-to-all-v transposition).

Every model characterizes its *workload* (flops by precision, integer
ops, branches, streamed bytes, communication pattern) and derives its
runtime on a :class:`~repro.arch.cpu.MachineModel` analytically, or on
a :class:`~repro.cluster.cluster.ClusterModel` by generating MPI rank
programs for the discrete-event simulator.  :mod:`repro.apps.catalog`
carries the paper's Table I application list, and :data:`APPS` names
the cluster-capable models so sweep points and job submissions can
address them in text.
"""

from typing import Any, Mapping

from repro.apps.base import AppModel, RunResult
from repro.apps.bigdft import BigDFT
from repro.apps.catalog import MONT_BLANC_APPLICATIONS, Application
from repro.apps.coremark import CoreMark
from repro.apps.linpack import Linpack
from repro.apps.portfolio import (
    CharacterizedApp,
    CommPattern,
    WorkloadCharacter,
    portfolio_apps,
    portfolio_scaling_report,
)
from repro.apps.specfem3d import Specfem3D
from repro.apps.stockfish import StockFish
from repro.errors import EngineError

#: Cluster-capable app models addressable by name in sweep params;
#: a point's ``app_args`` are keyword arguments of the model.
APPS = {"linpack": Linpack, "specfem3d": Specfem3D, "bigdft": BigDFT}


def build_app(name: str, app_args: Mapping[str, Any] | None = None):
    """Instantiate a scalable app model from its registry name."""
    try:
        factory = APPS[name]
    except KeyError:
        raise EngineError(
            f"unknown app {name!r}; known: {sorted(APPS)}"
        ) from None
    return factory(**dict(app_args or {}))


__all__ = [
    "APPS",
    "AppModel",
    "Application",
    "BigDFT",
    "CharacterizedApp",
    "CommPattern",
    "CoreMark",
    "Linpack",
    "MONT_BLANC_APPLICATIONS",
    "RunResult",
    "Specfem3D",
    "StockFish",
    "WorkloadCharacter",
    "build_app",
    "portfolio_apps",
    "portfolio_scaling_report",
]
