"""Failure detection and retry policies.

Real MPI-over-TCP on Tibidabo had exactly two mechanisms standing
between a network fault and a hung job: per-connection retransmission
timeouts (with exponential backoff) and — at the resource-manager
level — heartbeat liveness checks.  These dataclasses model both as
*deterministic* policies: a :class:`RetryPolicy` tells the MPI layer
how long a blocked send waits between attempts, and a
:class:`FailureDetector` fixes the latency between a node dying and
the job *knowing* it died.  :class:`ResilienceConfig` bundles them
with the degradation mode for collectives.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RetryPolicy:
    """Per-message timeout with exponential backoff and bounded retries.

    A blocked point-to-point send waits ``timeout_s * backoff**attempt``
    before re-trying; after ``max_retries`` failed attempts the send
    surfaces a structured :class:`~repro.errors.LinkFailure` (or
    :class:`~repro.errors.RankFailure` when the peer is known dead).
    """

    timeout_s: float = 0.2
    backoff: float = 2.0
    max_retries: int = 5

    def __post_init__(self) -> None:
        if self.timeout_s <= 0:
            raise ConfigurationError(f"timeout must be positive, got {self.timeout_s}")
        if self.backoff < 1.0:
            raise ConfigurationError(f"backoff must be >= 1, got {self.backoff}")
        if self.max_retries < 1:
            raise ConfigurationError(f"need at least one retry, got {self.max_retries}")

    def wait_for(self, attempt: int) -> float:
        """Backoff delay before retry number ``attempt`` (0-based)."""
        if attempt < 0:
            raise ConfigurationError(f"negative attempt {attempt}")
        return self.timeout_s * self.backoff**attempt


@dataclass(frozen=True)
class FailureDetector:
    """Heartbeat-based liveness detection.

    Every node heartbeats with period ``heartbeat_period_s``; a node is
    declared dead after ``miss_threshold`` consecutive missed beats, so
    the detection latency is their product — deterministic by design,
    which keeps same-seed runs byte-identical.
    """

    heartbeat_period_s: float = 0.05
    miss_threshold: int = 3

    def __post_init__(self) -> None:
        if self.heartbeat_period_s <= 0:
            raise ConfigurationError(
                f"heartbeat period must be positive, got {self.heartbeat_period_s}"
            )
        if self.miss_threshold < 1:
            raise ConfigurationError(
                f"miss threshold must be >= 1, got {self.miss_threshold}"
            )

    @property
    def latency_s(self) -> float:
        """Crash-to-detection latency."""
        return self.heartbeat_period_s * self.miss_threshold


@dataclass(frozen=True)
class ResilienceConfig:
    """Everything the MPI layer needs to *react* to injected faults.

    ``on_failure`` selects the collective degradation mode:

    * ``"abort"`` (default): a detected rank failure aborts the whole
      job cleanly — every surviving rank receives a structured
      :class:`~repro.errors.RankFailure` at its next MPI call and
      :meth:`MpiJob.run` re-raises it.  Never a silent hang.
    * ``"shrink"``: only ranks actually blocked on (or sending to) the
      dead rank receive the exception; rank programs that catch it
      continue on the surviving communicator, everything else keeps
      running.
    """

    retry: RetryPolicy = field(default_factory=RetryPolicy)
    detector: FailureDetector = field(default_factory=FailureDetector)
    on_failure: str = "abort"

    def __post_init__(self) -> None:
        if self.on_failure not in ("abort", "shrink"):
            raise ConfigurationError(
                f"on_failure must be 'abort' or 'shrink', got {self.on_failure!r}"
            )
