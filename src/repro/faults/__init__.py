"""Deterministic fault injection and resilience for the cluster stack.

The paper's cluster finding (§IV, Figure 4) is already a robustness
story — shallow switch buffers dropping frames under incast — but a
real deployment fails in many more ways (the Mont-Blanc retrospective,
arXiv:1508.05075, treats node and network reliability as first-class).
This package makes failure a first-class simulated phenomenon:

* :mod:`repro.faults.plan` — the fault vocabulary (``NodeCrash``,
  ``NodeSlowdown``, ``LinkDegrade``, ``LinkFlap``,
  ``SwitchBufferShrink``, ``OSNoiseBurst``) and seeded, deterministic
  :class:`FaultPlan` schedules;
* :mod:`repro.faults.detect` — retry policies with exponential backoff
  and the heartbeat failure detector;
* :mod:`repro.faults.inject` — the :class:`FaultInjector` that arms a
  plan onto a running :class:`~repro.cluster.mpi.MpiJob`;
* :mod:`repro.faults.checkpoint` — coordinated checkpoint/restart and
  the time-to-solution decomposition under failures.

Everything is seed-driven: the same plan seed yields identical fault
timestamps, detection times and resilience reports across runs.
"""

from repro.faults.checkpoint import (
    CheckpointConfig,
    ResilientRunResult,
    run_with_checkpoints,
)
from repro.faults.detect import FailureDetector, ResilienceConfig, RetryPolicy
from repro.faults.inject import FailureRecord, FaultInjector
from repro.faults.plan import (
    NAMED_PLANS,
    FaultEvent,
    FaultPlan,
    LinkDegrade,
    LinkFlap,
    NodeCrash,
    NodeSlowdown,
    OSNoiseBurst,
    SwitchBufferShrink,
    named_plan,
)

__all__ = [
    "NAMED_PLANS",
    "CheckpointConfig",
    "FailureDetector",
    "FailureRecord",
    "FaultEvent",
    "FaultInjector",
    "FaultPlan",
    "LinkDegrade",
    "LinkFlap",
    "NodeCrash",
    "NodeSlowdown",
    "OSNoiseBurst",
    "ResilienceConfig",
    "ResilientRunResult",
    "RetryPolicy",
    "SwitchBufferShrink",
    "named_plan",
    "run_with_checkpoints",
]
