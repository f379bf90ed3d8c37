"""The process-wide, deterministic metrics registry.

:class:`MetricsRegistry` holds three metric kinds — monotone
**counters**, last/max-value **gauges**, and fixed-bucket
**histograms** — plus the :mod:`span <repro.metrics.spans>` profile
tree.  Instrumented layers (DES, MPI, engine, faults, autotuner) fetch
the ambient registry at construction via :func:`current_registry`,
which resolves, in order: the thread-local registry installed by
:func:`use_registry` (how engine workers capture their metrics), then
the process-global one installed by :func:`set_registry` (how the CLI
turns metrics on), then the shared :class:`NullRegistry`.

The null registry is the cheap no-op mode: every mutator is a ``pass``
and ``enabled`` is ``False``, so un-instrumented runs pay one dynamic
dispatch per metric event and nothing else (asserted to < 5% overhead
by ``benchmarks/test_metrics_overhead.py``).

Determinism: metric values derived from *simulated* time and counts are
identical across ``--jobs`` levels and machines; wall-clock-derived
metrics are declared ``volatile=True`` at creation and dropped from the
deterministic export form, which is what the golden-file and
``--jobs 1`` vs ``--jobs 4`` equivalence tests compare.

Snapshots (:meth:`MetricsRegistry.snapshot`) are plain JSON-able dicts;
:meth:`MetricsRegistry.merge` folds one back in (counters add, gauges
take the max, histograms add bucket-wise, span trees merge node-wise),
and is associative and commutative — the property the engine relies on
to merge worker snapshots in any grouping.
"""

from __future__ import annotations

import re
import threading
import time
from bisect import bisect_left
from contextlib import contextmanager
from typing import Any, Callable, Iterator, Mapping, Sequence

from repro.errors import MetricsError
from repro.metrics.spans import Span, SpanNode

#: Default histogram buckets: decades from 1µs to 100s (latencies).
DEFAULT_BUCKETS = (
    1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0,
)

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9._/-]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise MetricsError(
            f"invalid metric name {name!r}: want letters, digits, and ._/-"
        )
    return name


class Counter:
    """A monotonically non-decreasing sum."""

    __slots__ = ("name", "value", "volatile")

    kind = "counter"

    def __init__(self, name: str, *, volatile: bool = False) -> None:
        self.name = name
        self.value = 0.0
        self.volatile = volatile

    def inc(self, amount: float = 1.0) -> None:
        """Add *amount* (>= 0); counters never decrease."""
        if amount < 0:
            raise MetricsError(
                f"counter {self.name!r} cannot decrease (inc {amount})"
            )
        self.value += amount


class Gauge:
    """A point-in-time value (``set``) or a high-water mark (``set_max``)."""

    __slots__ = ("name", "value", "volatile")

    kind = "gauge"

    def __init__(self, name: str, *, volatile: bool = False) -> None:
        self.name = name
        self.value: float | None = None
        self.volatile = volatile

    def set(self, value: float) -> None:
        """Record the latest value."""
        self.value = float(value)

    def set_max(self, value: float) -> None:
        """Keep the maximum of the recorded values (high-water mark)."""
        value = float(value)
        if self.value is None or value > self.value:
            self.value = value


class Histogram:
    """Fixed-bucket histogram (Prometheus ``le`` semantics).

    ``upper_bounds`` are the inclusive bucket upper edges; one implicit
    overflow bucket (``+Inf``) catches everything above the last edge,
    so bucket counts always sum to the observation count.
    """

    __slots__ = ("name", "upper_bounds", "bucket_counts", "count", "sum",
                 "volatile")

    kind = "histogram"

    def __init__(
        self,
        name: str,
        *,
        upper_bounds: Sequence[float] = DEFAULT_BUCKETS,
        volatile: bool = False,
    ) -> None:
        bounds = tuple(float(b) for b in upper_bounds)
        if not bounds:
            raise MetricsError(f"histogram {name!r} needs at least one bucket")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise MetricsError(
                f"histogram {name!r} buckets must be strictly increasing"
            )
        self.name = name
        self.upper_bounds = bounds
        self.bucket_counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.sum = 0.0
        self.volatile = volatile

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        if value != value:  # NaN would silently poison the sum
            raise MetricsError(f"histogram {self.name!r} observed NaN")
        self.bucket_counts[bisect_left(self.upper_bounds, value)] += 1
        self.count += 1
        self.sum += value


class NullRegistry:
    """The no-op registry: every mutator does nothing, cheaply."""

    enabled = False

    def counter(self, name: str, *, volatile: bool = False) -> Counter:
        return _NULL_COUNTER

    def gauge(self, name: str, *, volatile: bool = False) -> Gauge:
        return _NULL_GAUGE

    def histogram(self, name: str, **kwargs: Any) -> Histogram:
        return _NULL_HISTOGRAM

    def inc(self, name: str, amount: float = 1.0, **kwargs: Any) -> None:
        pass

    def gauge_set(self, name: str, value: float, **kwargs: Any) -> None:
        pass

    def gauge_max(self, name: str, value: float, **kwargs: Any) -> None:
        pass

    def observe(self, name: str, value: float, **kwargs: Any) -> None:
        pass

    def span(self, name: str) -> "_NullSpan":
        return _NULL_SPAN

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {},
                "spans": SpanNode("").to_dict()}


class _NullMutator:
    """Shared no-op metric instances handed out by :class:`NullRegistry`."""

    __slots__ = ()

    def inc(self, amount: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def set_max(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


class _NullSpan(_NullMutator):
    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        pass


_NULL_COUNTER: Any = _NullMutator()
_NULL_GAUGE: Any = _NullMutator()
_NULL_HISTOGRAM: Any = _NullMutator()
_NULL_SPAN = _NullSpan()

#: The process-wide no-op registry (the default ambient registry).
NULL_REGISTRY = NullRegistry()


class MetricsRegistry:
    """Counters, gauges, histograms and the span profile tree.

    ``clock`` feeds the span timers (injectable for deterministic
    tests); metric access is get-or-create by name, and a name can
    never change kind (:class:`MetricsError` otherwise).
    """

    enabled = True

    def __init__(self, *, clock: Callable[[], float] = time.perf_counter) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._clock = clock
        self.spans = SpanNode("")
        self._span_stack: list[SpanNode] = [self.spans]

    # -- metric accessors ---------------------------------------------------

    def _claim(self, name: str, kind: str) -> None:
        for table, other in (
            (self._counters, "counter"),
            (self._gauges, "gauge"),
            (self._histograms, "histogram"),
        ):
            if other != kind and name in table:
                raise MetricsError(
                    f"metric {name!r} already registered as a {other}"
                )

    def counter(self, name: str, *, volatile: bool = False) -> Counter:
        """Get or create the counter called *name*."""
        metric = self._counters.get(name)
        if metric is None:
            self._claim(_check_name(name), "counter")
            metric = self._counters[name] = Counter(name, volatile=volatile)
        return metric

    def gauge(self, name: str, *, volatile: bool = False) -> Gauge:
        """Get or create the gauge called *name*."""
        metric = self._gauges.get(name)
        if metric is None:
            self._claim(_check_name(name), "gauge")
            metric = self._gauges[name] = Gauge(name, volatile=volatile)
        return metric

    def histogram(
        self,
        name: str,
        *,
        upper_bounds: Sequence[float] = DEFAULT_BUCKETS,
        volatile: bool = False,
    ) -> Histogram:
        """Get or create the histogram called *name*."""
        metric = self._histograms.get(name)
        if metric is None:
            self._claim(_check_name(name), "histogram")
            metric = self._histograms[name] = Histogram(
                name, upper_bounds=upper_bounds, volatile=volatile
            )
        return metric

    # -- one-shot conveniences ----------------------------------------------

    def inc(self, name: str, amount: float = 1.0, *, volatile: bool = False) -> None:
        """Increment the counter *name* by *amount*."""
        self.counter(name, volatile=volatile).inc(amount)

    def gauge_set(self, name: str, value: float, *, volatile: bool = False) -> None:
        """Set the gauge *name* to *value*."""
        self.gauge(name, volatile=volatile).set(value)

    def gauge_max(self, name: str, value: float, *, volatile: bool = False) -> None:
        """Raise the gauge *name* to *value* if it is a new maximum."""
        self.gauge(name, volatile=volatile).set_max(value)

    def observe(self, name: str, value: float, *, volatile: bool = False) -> None:
        """Record *value* into the histogram *name*."""
        self.histogram(name, volatile=volatile).observe(value)

    def span(self, name: str) -> Span:
        """A context manager timing one entry of span *name*."""
        return Span(self._span_stack, self._clock, name)

    # -- iteration (export support) -----------------------------------------

    def counters(self) -> Iterator[Counter]:
        """Counters in name order."""
        for name in sorted(self._counters):
            yield self._counters[name]

    def gauges(self) -> Iterator[Gauge]:
        """Gauges in name order."""
        for name in sorted(self._gauges):
            yield self._gauges[name]

    def histograms(self) -> Iterator[Histogram]:
        """Histograms in name order."""
        for name in sorted(self._histograms):
            yield self._histograms[name]

    # -- snapshot / merge ---------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """The registry's full state as a plain JSON-able dict."""
        return {
            "counters": {
                c.name: {"value": c.value, "volatile": c.volatile}
                for c in self.counters()
            },
            "gauges": {
                g.name: {"value": g.value, "volatile": g.volatile}
                for g in self.gauges()
                if g.value is not None
            },
            "histograms": {
                h.name: {
                    "upper_bounds": list(h.upper_bounds),
                    "bucket_counts": list(h.bucket_counts),
                    "count": h.count,
                    "sum": h.sum,
                    "volatile": h.volatile,
                }
                for h in self.histograms()
            },
            "spans": self.spans.to_dict(),
        }

    def merge(self, snapshot: Mapping[str, Any]) -> None:
        """Fold a :meth:`snapshot` into this registry.

        Counters add, gauges keep the maximum, histograms add
        bucket-wise (bucket layouts must match), span trees merge
        node-wise — all associative and commutative, so worker
        snapshots can be merged in any grouping.
        """
        for name, record in snapshot.get("counters", {}).items():
            self.counter(name, volatile=bool(record.get("volatile"))).inc(
                float(record["value"])
            )
        for name, record in snapshot.get("gauges", {}).items():
            self.gauge(name, volatile=bool(record.get("volatile"))).set_max(
                float(record["value"])
            )
        for name, record in snapshot.get("histograms", {}).items():
            hist = self.histogram(
                name,
                upper_bounds=record["upper_bounds"],
                volatile=bool(record.get("volatile")),
            )
            if list(hist.upper_bounds) != [float(b) for b in record["upper_bounds"]]:
                raise MetricsError(
                    f"histogram {name!r} bucket layouts differ; cannot merge"
                )
            counts = record["bucket_counts"]
            if len(counts) != len(hist.bucket_counts):
                raise MetricsError(
                    f"histogram {name!r} bucket counts differ in length"
                )
            for index, count in enumerate(counts):
                hist.bucket_counts[index] += int(count)
            hist.count += int(record["count"])
            hist.sum += float(record["sum"])
        spans = snapshot.get("spans")
        if spans:
            self.spans.merge(spans)


# ---------------------------------------------------------------------------
# Ambient registry plumbing
# ---------------------------------------------------------------------------

_GLOBAL: NullRegistry | MetricsRegistry = NULL_REGISTRY
_TLS = threading.local()

AnyRegistry = NullRegistry | MetricsRegistry


def current_registry() -> AnyRegistry:
    """The ambient registry: thread-local, else global, else the null one."""
    local = getattr(_TLS, "registry", None)
    return local if local is not None else _GLOBAL


def set_registry(registry: AnyRegistry | None) -> AnyRegistry:
    """Install *registry* process-wide; ``None`` restores the null one.

    Returns the previously installed registry so callers can restore it.
    """
    global _GLOBAL
    previous = _GLOBAL
    _GLOBAL = NULL_REGISTRY if registry is None else registry
    return previous


@contextmanager
def use_registry(registry: AnyRegistry):
    """Scope *registry* as this thread's ambient registry.

    This is how engine workers capture their metrics without touching
    the parent's registry: the worker runs under a fresh registry, the
    engine merges its snapshot afterwards.
    """
    previous = getattr(_TLS, "registry", None)
    _TLS.registry = registry
    try:
        yield registry
    finally:
        _TLS.registry = previous
