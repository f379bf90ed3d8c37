"""Tests for repro.core.report."""

import pytest

from repro.core.report import Table, render_series, render_table
from repro.errors import ConfigurationError


class TestRenderTable:
    def test_header_and_rows_aligned(self):
        text = render_table("T", ["name", "v"], [["LINPACK", 620.0]])
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[2]
        assert "LINPACK" in lines[4]

    def test_wrong_width_rejected(self):
        with pytest.raises(ConfigurationError):
            render_table("T", ["a", "b"], [["only-one"]])

    def test_float_formatting(self):
        text = render_table("T", ["v"], [[24000.0], [38.7], [0.25]])
        assert "24,000" in text
        assert "38.7" in text
        assert "0.25" in text

    def test_table_add_row_validates(self):
        table = Table(title="T", headers=["a", "b"])
        table.add_row(1, 2)
        with pytest.raises(ConfigurationError):
            table.add_row(1)
        assert "T" in table.render()


class TestRenderSeries:
    def test_series_lists_points(self):
        text = render_series("S", [(1, 10.0), (2, 20.0)], x_label="n", y_label="speed")
        assert "S" in text
        assert "n" in text and "speed" in text
        assert text.count("#") > 0

    def test_bars_scale_with_magnitude(self):
        text = render_series("S", [(1, 1.0), (2, 2.0)], width=10)
        lines = text.splitlines()
        assert lines[-1].count("#") == 2 * lines[-2].count("#")

    def test_empty_series(self):
        assert "(no data)" in render_series("S", [])

    def test_narrow_width_rejected(self):
        with pytest.raises(ConfigurationError):
            render_series("S", [(1, 1.0)], width=2)
