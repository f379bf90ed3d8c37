"""Fault-tolerance policy for the experiment engine.

The same operational reality the Mont-Blanc phase-1 report describes
for long sweeps on prototype hardware applies to this harness: a sweep
of N seeds x M points runs long enough that a hung worker, a crashed
process or a half-written cache shard is the *common* case, not the
exception.  :class:`ExecutionPolicy` is the engine's answer — a
per-attempt wall-clock budget plus a bounded, seeded retry schedule.

The backoff shape is deliberately the one the simulator already
trusts: :class:`repro.faults.detect.RetryPolicy` (``base * factor **
attempt``), reused verbatim so the engine and the simulated MPI layer
degrade the same way.  On top of it sits deterministic jitter — a
sha256 of ``(seed, point key, attempt)`` mapped into ``[-jitter,
+jitter]`` — so retries of many points never stampede in sync, yet the
exact delay sequence of any run can be replayed from its seed.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any

from repro.errors import ConfigurationError
from repro.faults.detect import RetryPolicy


@dataclass(frozen=True)
class ExecutionPolicy:
    """How the engine treats a sweep point that misbehaves.

    * ``point_timeout_s`` — wall-clock budget per attempt.  In process
      mode a worker exceeding it is killed and the attempt counts as a
      :class:`~repro.errors.PointTimeout`; serial mode only observes
      the overrun (``engine.timeouts`` metric) since the value already
      exists.  ``None`` disables the budget.
    * ``retry`` — the backoff schedule for failed attempts; ``None``
      means one attempt, no retries.  ``retry.timeout_s`` is the *base
      delay* before the first retry and ``retry.backoff`` the growth
      factor, exactly as in the MPI layer's send retries.
    * ``jitter`` — fractional spread applied to each delay, derived
      deterministically from ``seed``, the point's content key and the
      attempt number.
    * ``deadline_s`` — wall-clock budget for the *whole run* (every
      attempt of every point).  A retry whose backoff delay would land
      past the deadline is not dispatched: the point fails finally with
      a ``RetryExhausted`` manifest record (the budget ran out — the
      incidental type of the last attempt's error is preserved as its
      cause).  The job service derives this from each job's deadline,
      so a client deadline propagates all the way into the retry
      schedule.  ``None`` (the default) disables the budget.
    """

    point_timeout_s: float | None = None
    retry: RetryPolicy | None = None
    jitter: float = 0.1
    seed: int = 0
    deadline_s: float | None = None

    def __post_init__(self) -> None:
        if self.point_timeout_s is not None and self.point_timeout_s <= 0:
            raise ConfigurationError(
                f"point timeout must be positive, got {self.point_timeout_s}"
            )
        if self.deadline_s is not None and self.deadline_s <= 0:
            raise ConfigurationError(
                f"run deadline must be positive, got {self.deadline_s}"
            )
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigurationError(
                f"jitter must be within [0, 1], got {self.jitter}"
            )

    @property
    def max_attempts(self) -> int:
        """Total attempts a point may consume (first run + retries)."""
        return 1 + (self.retry.max_retries if self.retry is not None else 0)

    @property
    def fault_tolerant(self) -> bool:
        """Whether failures become typed records instead of propagating.

        With the default policy (no timeout, no retries) the engine
        preserves its historical contract: a worker exception surfaces
        as itself.  Any configured budget switches failures to the
        structured taxonomy (:class:`~repro.errors.RetryExhausted`).
        """
        return (
            self.retry is not None
            or self.point_timeout_s is not None
            or self.deadline_s is not None
        )

    def retry_delay_s(self, failed_attempt: int, token: str) -> float:
        """Backoff before re-dispatching after *failed_attempt* (1-based).

        ``token`` (the point's content key) seeds the jitter so each
        point walks its own deterministic schedule.
        """
        if self.retry is None:
            return 0.0
        if failed_attempt < 1:
            raise ConfigurationError(
                f"attempt numbers are 1-based, got {failed_attempt}"
            )
        base = self.retry.wait_for(failed_attempt - 1)
        if self.jitter == 0.0:
            return base
        digest = hashlib.sha256(
            f"{self.seed}|{token}|{failed_attempt}".encode("utf-8")
        ).digest()
        fraction = int.from_bytes(digest[:8], "big") / 2.0**64  # [0, 1)
        return base * (1.0 - self.jitter + 2.0 * self.jitter * fraction)

    def settle(
        self,
        error: BaseException,
        attempt: int,
        token: str,
        deadline: float | None,
        transient: list[dict[str, Any]],
    ) -> tuple[float, None] | tuple[None, dict[str, Any]]:
        """Settle failed *attempt* (1-based): retry it, or end the point.

        Returns ``(delay, None)`` to retry after the seeded backoff, or
        ``(None, record)`` with the point's final error record.  The
        final record is the error's own once the retry budget is spent.
        While retries remain but the backoff would land past *deadline*
        (a ``time.monotonic()`` instant, the end of ``deadline_s``),
        what the point ran out of is its budget: the record is
        ``RetryExhausted``, and the last attempt's incidental error
        (often a :class:`~repro.errors.PointTimeout`) survives as its
        cause, not its type.  Every attempt that is not itself the
        final record joins *transient*.
        """
        record = {
            "type": type(error).__name__,
            "message": str(error),
            "attempt": attempt,
        }
        if attempt >= self.max_attempts:
            return None, record
        transient.append(record)
        delay = self.retry_delay_s(attempt, token)
        if deadline is None or time.monotonic() + delay <= deadline:
            return delay, None
        return None, {
            "type": "RetryExhausted",
            "message": (
                f"retry schedule truncated by the {self.deadline_s:g}s "
                f"run deadline after attempt {attempt} "
                f"({record['type']}: {record['message']})"
            ),
            "attempt": attempt,
        }
