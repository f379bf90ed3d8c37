"""repro.metrics — unified, deterministic metrics & profiling.

The observability substrate the rest of the library reports into: a
process-wide :class:`MetricsRegistry` (counters, gauges, fixed-bucket
histograms), nestable :mod:`span <repro.metrics.spans>` timers that
aggregate into a per-phase profile tree, and pluggable exporters
(canonical JSON, Prometheus text, human table).

Instrumented layers resolve the ambient registry with
:func:`current_registry` at construction time, so metrics default to
the zero-cost :data:`NULL_REGISTRY` until the CLI (``--metrics-out`` /
``--metrics-format``) or a test (:func:`use_registry` /
:func:`set_registry`) turns them on::

    from repro import metrics

    registry = metrics.MetricsRegistry()
    with metrics.use_registry(registry):
        ...  # run simulations, engine sweeps, tuners
    print(metrics.to_table(registry))
    print(metrics.to_json(registry, deterministic=True))
"""

from repro.metrics.export import (
    FORMATS,
    METRICS_SCHEMA_VERSION,
    load_and_validate,
    registry_to_dict,
    render_metrics,
    to_json,
    to_prometheus,
    to_table,
    validate_metrics_json,
    write_metrics,
)
from repro.metrics.registry import (
    DEFAULT_BUCKETS,
    NULL_REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    current_registry,
    set_registry,
    use_registry,
)
from repro.metrics.spans import Span, SpanNode

__all__ = [
    "Counter",
    "DEFAULT_BUCKETS",
    "FORMATS",
    "Gauge",
    "Histogram",
    "METRICS_SCHEMA_VERSION",
    "MetricsRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "Span",
    "SpanNode",
    "current_registry",
    "load_and_validate",
    "registry_to_dict",
    "render_metrics",
    "set_registry",
    "to_json",
    "to_prometheus",
    "to_table",
    "use_registry",
    "validate_metrics_json",
    "write_metrics",
]
