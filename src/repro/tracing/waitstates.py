"""Scalasca-style wait-state classification and POP efficiency metrics.

The paper's Figure 4 finding — "when using 36 cores most of these
collective communications are longer and delayed", traced to "the
Ethernet switches used in Tibidabo" — is a *wait-state diagnosis*:
ranks sit blocked in ``MPI_Alltoallv`` not because peers are slow but
because the fabric is.  This module machine-reproduces that diagnosis.

Every receive-blocked second in a trace is attributed to a root cause,
the way Scalasca's wait-state and delay-cost analyses do:

* ``transfer``           — in-flight time within the trace-wide
  baseline latency for that operation: the network doing its job
  (benign);
* ``switch-contention``  — in-flight time *beyond* the baseline on a
  congested message: buffer overflow, RTO stalls, incast collapse —
  the Figure 4 pathology;
* ``late-sender``        — blocked before the matching send was even
  posted **and** the sender's lateness bottoms out in its own work
  rather than in earlier blocking: genuine peer slowness;
* ``late-receiver``      — the message sat delivered in the mailbox
  before the receive was posted.  Severity is the buffered time; no
  rank is blocked during it, so it is diagnostic only (benign);
* ``collective-imbalance`` — entry-time spread *introduced* since the
  previous collective (Scalasca's "wait at N×N", with inherited
  network skew factored out so it is not double-billed).

Blocked-before-send time is not taken at face value: a sender that
posts late because *it* was stuck behind congested messages earlier is
a victim, not a culprit.  The classifier therefore walks
the sender's timeline backwards (skipping intrinsic compute/send work)
and recursively blames the sender's own most recent blocked intervals
— Scalasca's delay-cost propagation.  Only lateness that survives the
walk with no blocking to blame is charged as ``late-sender``.  Costs
are per blocked receiver, so one congested message can legitimately be
billed for several ranks' waits (that is what "cost of a delay" means).

On top sit the POP-style efficiency metrics computed from per-rank
useful-compute time: load balance, communication efficiency, and
parallel efficiency (their product).

The per-wait arithmetic lives in
:class:`repro.tracing.attribution.WaitClassifier`, and
:class:`repro.tracing.stream.TraceStreamAnalyzer` drives it over every
receive wait; this module holds the report types the analyzer
assembles and the order-independent reductions it feeds them from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping

from repro.core.stats import summarize

#: Wait-state categories in display order.
WAIT_CATEGORIES = (
    "switch-contention",
    "late-sender",
    "collective-imbalance",
    "transfer",
    "late-receiver",
)

#: Categories that never count as the dominant pathology: ``transfer``
#: is the network doing its job, ``late-receiver`` severity is buffered
#: time during which no rank is blocked.
BENIGN_CATEGORIES = frozenset({"transfer", "late-receiver"})

#: A message whose end-to-end latency exceeds this multiple of its
#: label's trace-wide median counts as congested.
CONTENTION_FACTOR = 3.0

_EPS = 1e-12


@dataclass(frozen=True)
class WaitEntry:
    """Aggregate wait time of one ``(category, label)`` pair."""

    category: str
    label: str
    seconds: float
    occurrences: int


@dataclass(frozen=True)
class EfficiencyReport:
    """POP-style efficiencies mined from per-rank useful compute time.

    ``parallel_efficiency == load_balance * communication_efficiency``
    holds by construction (both sides divide by max then runtime).
    """

    runtime_seconds: float
    useful_seconds: tuple[float, ...]

    @property
    def num_ranks(self) -> int:
        """Ranks the report covers."""
        return len(self.useful_seconds)

    @property
    def load_balance(self) -> float:
        """Mean over max useful compute time (1.0 = perfectly even)."""
        peak = max(self.useful_seconds)
        if peak <= 0.0:
            return 1.0
        return math.fsum(self.useful_seconds) / len(self.useful_seconds) / peak

    @property
    def communication_efficiency(self) -> float:
        """Best rank's useful share of the runtime (1.0 = no comm cost)."""
        if self.runtime_seconds <= 0.0:
            return 1.0
        return max(self.useful_seconds) / self.runtime_seconds

    @property
    def parallel_efficiency(self) -> float:
        """Average useful share of total rank-time; LB × CommE."""
        if self.runtime_seconds <= 0.0:
            return 1.0
        return (
            math.fsum(self.useful_seconds)
            / len(self.useful_seconds)
            / self.runtime_seconds
        )


@dataclass(frozen=True)
class WaitStateReport:
    """Outcome of the wait-state classification of one trace."""

    entries: tuple[WaitEntry, ...]
    efficiencies: EfficiencyReport
    baseline_latency_s: dict[str, float]
    contention_factor: float

    @property
    def total_wait_seconds(self) -> float:
        """All classified wait time (every category, all ranks)."""
        return math.fsum(entry.seconds for entry in self.entries)

    @property
    def blocked_seconds(self) -> float:
        """Wait time during which some rank was actually blocked
        (everything except ``late-receiver`` buffered time)."""
        return math.fsum(
            entry.seconds
            for entry in self.entries
            if entry.category != "late-receiver"
        )

    def seconds(self, category: str, label: str | None = None) -> float:
        """Wait time in *category*, optionally for one label."""
        return math.fsum(
            entry.seconds
            for entry in self.entries
            if entry.category == category
            and (label is None or entry.label == label)
        )

    @property
    def dominant(self) -> WaitEntry | None:
        """The single largest pathological entry, or ``None`` when
        nothing pathological was found.

        Benign categories (:data:`BENIGN_CATEGORIES`) never dominate,
        and neither does noise: an entry must carry at least 1% of the
        blocked time to count as a diagnosis.
        """
        floor = max(0.01 * self.blocked_seconds, _EPS)
        pathological = [
            entry
            for entry in self.entries
            if entry.category not in BENIGN_CATEGORIES
            and entry.seconds > floor
        ]
        if not pathological:
            return None
        return max(
            sorted(pathological, key=lambda e: (e.category, e.label)),
            key=lambda e: e.seconds,
        )

    def explain(self) -> str:
        """One sentence naming the root cause — the automated
        equivalent of the paper's Figure 4 caption."""
        top = self.dominant
        if top is None:
            return "no pathological wait states detected"
        blocked = self.blocked_seconds
        share = top.seconds / blocked if blocked > 0 else 0.0
        return (
            f"dominant wait state: {top.category} on {top.label!r} "
            f"({top.seconds:.3f}s across {top.occurrences} waits, "
            f"{share:.0%} of all blocked time)"
        )


def baselines_from_latencies(
    latencies: Mapping[str, Iterable[float]]
) -> dict[str, float]:
    """Per-label baseline latency: the trace-wide median (floored at
    :data:`_EPS`), always a ``float``.  The median is order-independent
    and the result type does not depend on whether the latencies were
    kept as ints or packed doubles."""
    return {
        label: float(max(summarize(list(values)).median, _EPS))
        for label, values in latencies.items()
    }


def wait_entries_from_buckets(
    buckets: Mapping[tuple[str, str], list]
) -> tuple[WaitEntry, ...]:
    """Sort accumulated ``(category, label) -> [seconds, count]``
    buckets into the report's entry order (largest first)."""
    return tuple(
        WaitEntry(category, label, seconds, int(count))
        for (category, label), (seconds, count) in sorted(
            buckets.items(), key=lambda kv: (-kv[1][0], kv[0])
        )
    )


def collective_instance_spreads(
    instances: Mapping[tuple, Mapping[str, Mapping[int, float]]]
) -> list[tuple[str, float]]:
    """Entry-time spread per collective instance, *introduced* since
    the previous instance (inherited skew is the previous waits' fault
    and already billed there).

    *instances* maps ``(kind, seq)`` to ``{"entry": {rank: first send
    time}, "exit": {rank: last arrival}}`` — min/max accumulations, so
    the structure does not depend on the order messages were recorded.
    """
    spreads: list[tuple[str, float]] = []
    previous_exit: Mapping[int, float] = {}
    for kind, _sequence in sorted(instances, key=lambda k: (k[1], k[0])):
        record = instances[(kind, _sequence)]
        entries = record["entry"]
        if len(entries) >= 2:
            introduced = {
                rank: entry - previous_exit.get(rank, 0.0)
                for rank, entry in entries.items()
            }
            latest = max(introduced.values())
            spread = math.fsum(latest - value for value in introduced.values())
            if spread > 0.0:
                spreads.append((kind, spread))
        previous_exit = record["exit"]
    return spreads
