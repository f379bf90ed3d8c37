"""Tracing and trace analysis.

The paper profiles BigDFT "using [an] automatic code instrumentation
library and Paraver, a visualization tool dedicated to parallel code
analysis", and reads the pathology off the trace: most ``all_to_all_v``
collectives are short, some are *delayed* (Figure 4).

* :mod:`repro.tracing.events` — state and communication records;
* :mod:`repro.tracing.recorder` — the Extrae-style recorder MpiJob
  drives, which replays its events into any other tracer;
* :mod:`repro.tracing.paraver` — Paraver ``.prv`` export and a parser
  for round-trip tests;
* :mod:`repro.tracing.chrome` — Chrome trace-event export for
  Perfetto / ``chrome://tracing``;
* :mod:`repro.tracing.analysis` — delayed-collective detection, the
  programmatic equivalent of the paper's green circles, plus the
  resilience summary (MTTF, detection latency, retry goodput loss,
  rework fraction) mined from :class:`FaultRecord` entries;
* :mod:`repro.tracing.stream` — the trace store: ingests the
  events as the simulation produces them into a frontier that is
  bounded or, with ``frontier_limit=None``, never evicts, and
  finalizes the critical path and the wait states;
* :mod:`repro.tracing.attribution` — the critical-path walk with
  per-segment attribution and the wait classifier the store runs;
* :mod:`repro.tracing.waitstates` — Scalasca-style wait-state
  report types (the automated Figure 4 diagnosis) and POP
  efficiency metrics.
"""

from repro.tracing.analysis import (
    CollectiveInstance,
    ResilienceReport,
    analyze_collectives,
    resilience_summary,
)
from repro.tracing.chrome import (
    export_chrome_trace,
    validate_chrome_trace,
    write_chrome_trace,
)
from repro.tracing.attribution import CriticalPath, PathSegment
from repro.tracing.events import CommEvent, FaultRecord, StateEvent
from repro.tracing.paraver import export_pcf, export_prv, export_row, parse_prv
from repro.tracing.recorder import TraceRecorder
from repro.tracing.stream import (
    StreamConfig,
    StreamResult,
    StreamStats,
    TraceStreamAnalyzer,
    build_synthetic_trace,
)
from repro.tracing.timeline import render_timeline
from repro.tracing.waitstates import (
    EfficiencyReport,
    WaitEntry,
    WaitStateReport,
)

__all__ = [
    "CollectiveInstance",
    "CommEvent",
    "CriticalPath",
    "EfficiencyReport",
    "FaultRecord",
    "PathSegment",
    "ResilienceReport",
    "StateEvent",
    "StreamConfig",
    "StreamResult",
    "StreamStats",
    "TraceRecorder",
    "TraceStreamAnalyzer",
    "WaitEntry",
    "WaitStateReport",
    "analyze_collectives",
    "build_synthetic_trace",
    "export_chrome_trace",
    "export_pcf",
    "export_prv",
    "export_row",
    "parse_prv",
    "render_timeline",
    "resilience_summary",
    "validate_chrome_trace",
    "write_chrome_trace",
]
