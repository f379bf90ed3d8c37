"""Significance-aware comparison of replicate-summary documents.

``repro <artefact> --seeds N --summary-out run.json`` writes a
*replicate-summary document*: per artefact, per series, per x-point,
the :class:`~repro.core.stats.ReplicateSummary` of the N seeded
replicates (raw values included).  This module pairs two such
documents point-by-point and asks, for each pair, whether the two
replicate series differ *significantly* — Mann-Whitney AND a seeded
permutation test must both reject at ``alpha``
(:func:`repro.core.stats.compare_replicates`).

``repro compare A.json B.json`` consumes it: the report states which
configurations differ and by how much, and exits 1 when any point
does.  Unlike the ``diff-metrics`` threshold gate, a within-noise
drift (mean moved but the replicate distributions overlap) does NOT
trip it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, Mapping

from repro.core.stats import ReplicateSummary, SampleComparison, compare_replicates
from repro.errors import MetricsError

#: Schema stamp of the ``--summary-out`` document.
SUMMARY_SCHEMA = 1

#: One point's address inside a summary document.
PointKey = tuple[str, str, float]


def load_summary_doc(path: str | Path) -> dict[str, Any]:
    """Read and structurally validate one replicate-summary document."""
    path = Path(path)
    try:
        document = json.loads(path.read_text(encoding="utf-8"))
    except OSError as error:
        raise MetricsError(f"cannot read {path}: {error}") from error
    except ValueError as error:
        raise MetricsError(f"{path} is not valid JSON: {error}") from error
    if not isinstance(document, Mapping) or "artefacts" not in document:
        raise MetricsError(
            f"{path}: not a replicate-summary document (no 'artefacts' "
            "section — was this written with --summary-out?)"
        )
    if document.get("schema") != SUMMARY_SCHEMA:
        raise MetricsError(
            f"{path}: summary schema {document.get('schema')!r} "
            f"!= supported {SUMMARY_SCHEMA}"
        )
    return dict(document)


def iter_summary_points(
    document: Mapping[str, Any],
) -> Iterator[tuple[PointKey, ReplicateSummary]]:
    """Yield ``((artefact, series, x), summary)`` for every point."""
    artefacts = document.get("artefacts", {})
    for artefact in sorted(artefacts):
        series_map = artefacts[artefact].get("series", {})
        for series in sorted(series_map):
            for point in series_map[series].get("points", []):
                yield (
                    (artefact, series, float(point["x"])),
                    ReplicateSummary.from_dict(point["summary"]),
                )


def _describe_key(key: PointKey) -> str:
    artefact, series, x = key
    return f"{artefact}/{series} @ x={x:g}"


@dataclass(frozen=True)
class SignificanceRow:
    """One paired point's comparison verdict."""

    key: PointKey
    comparison: SampleComparison

    def describe(self) -> str:
        return f"{_describe_key(self.key)}: {self.comparison.describe()}"


@dataclass(frozen=True)
class SignificanceReport:
    """Outcome of comparing two replicate-summary documents."""

    rows: tuple[SignificanceRow, ...]
    only_in_a: tuple[PointKey, ...]
    only_in_b: tuple[PointKey, ...]
    alpha: float

    @property
    def significant(self) -> tuple[SignificanceRow, ...]:
        """Rows where both tests reject, biggest change first."""
        flagged = [r for r in self.rows if r.comparison.significant]
        flagged.sort(
            key=lambda r: (-abs(r.comparison.relative_change), r.key)
        )
        return tuple(flagged)

    @property
    def ok(self) -> bool:
        """No significant drift and no unpaired points."""
        return not self.significant and not self.only_in_a and not self.only_in_b

    def format(self) -> str:
        """The report ``repro compare`` prints."""
        lines = [
            f"compared {len(self.rows)} replicate series "
            f"at alpha {self.alpha:g}"
        ]
        for key in self.only_in_a:
            lines.append(f"  {_describe_key(key)}: only in A")
        for key in self.only_in_b:
            lines.append(f"  {_describe_key(key)}: only in B")
        flagged = self.significant
        if not flagged:
            lines.append("no significant differences")
        else:
            lines.append(f"{len(flagged)} significant difference(s):")
            lines += [f"  {row.describe()}" for row in flagged]
        return "\n".join(lines) + "\n"


def compare_summary_docs(
    a: Mapping[str, Any],
    b: Mapping[str, Any],
    *,
    alpha: float = 0.05,
    seed: int = 0,
    resamples: int = 999,
) -> SignificanceReport:
    """Pair two summary documents by (artefact, series, x) and test
    each pair for a significant difference."""
    points_a = dict(iter_summary_points(a))
    points_b = dict(iter_summary_points(b))
    shared = sorted(points_a.keys() & points_b.keys())
    rows = tuple(
        SignificanceRow(
            key=key,
            comparison=compare_replicates(
                points_a[key].values,
                points_b[key].values,
                alpha=alpha,
                seed=seed,
                resamples=resamples,
            ),
        )
        for key in shared
    )
    return SignificanceReport(
        rows=rows,
        only_in_a=tuple(sorted(points_a.keys() - points_b.keys())),
        only_in_b=tuple(sorted(points_b.keys() - points_a.keys())),
        alpha=alpha,
    )


def compare_summary_files(
    a: str | Path,
    b: str | Path,
    *,
    alpha: float = 0.05,
    seed: int = 0,
    resamples: int = 999,
) -> SignificanceReport:
    """File-level convenience for :func:`compare_summary_docs`."""
    return compare_summary_docs(
        load_summary_doc(a),
        load_summary_doc(b),
        alpha=alpha,
        seed=seed,
        resamples=resamples,
    )
