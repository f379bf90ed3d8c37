"""Run observability: combined trace reports and cross-run diffing.

:mod:`repro.obs.report` assembles one job's critical path, wait-state
root causes, POP efficiencies, and metrics snapshot into a single
artefact; :mod:`repro.obs.diff` compares two runs' metrics exports and
flags drift beyond a threshold (the CI regression gate);
:mod:`repro.obs.significance` pairs two replicate-summary documents
and tests each point for a statistically significant difference (the
noise-aware gate behind ``repro compare``); :mod:`repro.obs.bundle`
writes and verifies the ``reproduce-all`` bundle manifest (sha256 per
file + environment capture).
"""

from repro.obs.bundle import (
    BUNDLE_SCHEMA,
    MANIFEST_NAME,
    environment_capture,
    file_digests,
    load_bundle_manifest,
    sha256_file,
    verify_bundle,
    write_bundle_manifest,
)
from repro.obs.diff import (
    MetricChange,
    MetricsDiff,
    diff_metrics,
    diff_metrics_files,
    load_metrics_file,
    parse_threshold,
)
from repro.obs.report import (
    REPORT_SCHEMA_VERSION,
    RunReport,
    build_run_report,
)
from repro.obs.significance import (
    SUMMARY_SCHEMA,
    SignificanceReport,
    SignificanceRow,
    compare_summary_docs,
    compare_summary_files,
    iter_summary_points,
    load_summary_doc,
)

__all__ = [
    "BUNDLE_SCHEMA",
    "MANIFEST_NAME",
    "REPORT_SCHEMA_VERSION",
    "SUMMARY_SCHEMA",
    "MetricChange",
    "MetricsDiff",
    "RunReport",
    "SignificanceReport",
    "SignificanceRow",
    "build_run_report",
    "compare_summary_docs",
    "compare_summary_files",
    "diff_metrics",
    "diff_metrics_files",
    "environment_capture",
    "file_digests",
    "iter_summary_points",
    "load_bundle_manifest",
    "load_metrics_file",
    "parse_threshold",
    "sha256_file",
    "verify_bundle",
    "write_bundle_manifest",
]
