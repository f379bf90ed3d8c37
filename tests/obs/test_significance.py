"""Significance-aware drift gate.

The point of ``repro compare``: a mean that wiggles within run-to-run
noise must NOT trip the CI gate (the plain ``diff-metrics`` threshold
gate would), while a genuine shift — replicate distributions that
barely overlap — must.
"""

import json

import pytest

from repro.cli import main
from repro.core.stats import summarize_replicates
from repro.errors import MetricsError
from repro.obs import (
    SUMMARY_SCHEMA,
    compare_summary_docs,
    iter_summary_points,
    load_summary_doc,
)


def summary_doc(series_values, artefact="fig3", series="linpack"):
    """A minimal --summary-out document: {x: [replicates]}."""
    return {
        "schema": SUMMARY_SCHEMA,
        "confidence": 0.95,
        "seed": 7,
        "seeds": [7, 8, 9, 10, 11],
        "artefacts": {
            artefact: {
                "series": {
                    series: {
                        "x_label": "cores",
                        "y_label": "speedup",
                        "points": [
                            {
                                "x": x,
                                "summary": summarize_replicates(
                                    values, resamples=99
                                ).to_dict(),
                            }
                            for x, values in sorted(series_values.items())
                        ],
                    }
                }
            }
        },
    }


BASE = {16: [14.9, 15.1, 15.0, 14.95, 15.05]}
NOISY = {16: [15.05, 14.92, 15.08, 14.97, 15.02]}       # same distribution
SHIFTED = {16: [10.1, 10.0, 10.2, 9.9, 10.05]}          # real regression


class TestCompareSummaryDocs:
    def test_within_noise_drift_is_not_significant(self):
        report = compare_summary_docs(summary_doc(BASE), summary_doc(NOISY))
        assert report.ok
        assert len(report.rows) == 1
        assert not report.rows[0].comparison.significant
        # The plain threshold gate WOULD have flagged this wiggle at a
        # tight threshold — that asymmetry is the satellite's point.
        means = [
            summarize_replicates(BASE[16]).mean,
            summarize_replicates(NOISY[16]).mean,
        ]
        assert means[0] != means[1]

    def test_real_shift_is_significant(self):
        report = compare_summary_docs(summary_doc(BASE), summary_doc(SHIFTED))
        assert not report.ok
        row = report.significant[0]
        assert row.key == ("fig3", "linpack", 16.0)
        assert row.comparison.relative_change == pytest.approx(-0.33, abs=0.02)

    def test_unpaired_points_flag_the_report(self):
        bigger = dict(BASE)
        bigger[64] = [60.0, 60.5, 59.5, 60.2, 59.8]
        report = compare_summary_docs(summary_doc(bigger), summary_doc(BASE))
        assert not report.ok
        assert report.only_in_a == (("fig3", "linpack", 64.0),)
        assert "only in A" in report.format()

    def test_iter_summary_points_roundtrips(self):
        doc = summary_doc(BASE)
        points = dict(iter_summary_points(doc))
        assert list(points) == [("fig3", "linpack", 16.0)]
        assert points[("fig3", "linpack", 16.0)].count == 5


class TestLoadSummaryDoc:
    def test_rejects_metrics_exports(self, tmp_path):
        path = tmp_path / "metrics.json"
        path.write_text(json.dumps({"counters": {}}), encoding="utf-8")
        with pytest.raises(MetricsError, match="summary-out"):
            load_summary_doc(path)

    def test_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "summary.json"
        path.write_text(
            json.dumps({"schema": 99, "artefacts": {}}), encoding="utf-8"
        )
        with pytest.raises(MetricsError, match="schema"):
            load_summary_doc(path)


class TestCliGate:
    def write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc), encoding="utf-8")
        return str(path)

    def test_within_noise_drift_passes_the_gate(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", summary_doc(BASE))
        b = self.write(tmp_path, "b.json", summary_doc(NOISY))
        assert main(["compare", a, b]) == 0
        assert "no significant differences" in capsys.readouterr().out

    def test_real_drift_trips_the_gate(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", summary_doc(BASE))
        b = self.write(tmp_path, "b.json", summary_doc(SHIFTED))
        assert main(["compare", a, b]) == 1
        assert "significant difference" in capsys.readouterr().out

    def test_compare_command_reports_the_same_verdicts(
        self, tmp_path, capsys
    ):
        a = self.write(tmp_path, "a.json", summary_doc(BASE))
        b = self.write(tmp_path, "b.json", summary_doc(SHIFTED))
        assert main(["compare", a, b]) == 1
        out = capsys.readouterr().out
        assert "fig3/linpack @ x=16" in out
        assert "differs" in out

    def test_compare_rejects_wrong_arity(self, tmp_path, capsys):
        a = self.write(tmp_path, "a.json", summary_doc(BASE))
        assert main(["compare", a]) == 1
        assert "exactly two" in capsys.readouterr().err
