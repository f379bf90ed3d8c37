"""Plain-text rendering of tables and series.

The benchmark harness regenerates every table and figure of the paper
as text: tables as aligned ASCII (Table II style), figures as ``(x, y)``
series listings plus a crude inline plot, so the shapes are visible in
test logs without any plotting dependency.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

from repro.errors import ConfigurationError


@dataclass
class Table:
    """An ASCII table with a title, column headers and rows."""

    title: str
    headers: Sequence[str]
    rows: list[Sequence[Any]] = field(default_factory=list)

    def add_row(self, *cells: Any) -> None:
        """Append one row; must match the header width."""
        if len(cells) != len(self.headers):
            raise ConfigurationError(
                f"row has {len(cells)} cells but table {self.title!r} "
                f"has {len(self.headers)} columns"
            )
        self.rows.append(cells)

    def render(self) -> str:
        """Render the table with aligned columns."""
        return render_table(self.title, self.headers, self.rows)


def _format_cell(cell: Any) -> str:
    if isinstance(cell, float):
        if cell == 0:
            return "0"
        if abs(cell) >= 1000:
            return f"{cell:,.0f}"
        if abs(cell) >= 10:
            return f"{cell:.1f}"
        return f"{cell:.2f}"
    return str(cell)


def render_table(
    title: str, headers: Sequence[str], rows: Sequence[Sequence[Any]]
) -> str:
    """Render a titled, column-aligned ASCII table."""
    text_rows = [[_format_cell(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in text_rows:
        if len(row) != len(headers):
            raise ConfigurationError(
                f"row width {len(row)} != header width {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(cells, widths)).rstrip()

    separator = "  ".join("-" * w for w in widths)
    body = [title, "=" * len(title), line(list(headers)), separator]
    body.extend(line(row) for row in text_rows)
    return "\n".join(body)


def render_series(
    title: str,
    points: Sequence[tuple[Any, float]],
    *,
    x_label: str = "x",
    y_label: str = "y",
    width: int = 50,
) -> str:
    """Render an ``(x, y)`` series as a listing with inline bars.

    The bars give a log-free visual of the curve shape directly in
    benchmark output, mirroring the paper's figures.
    """
    if width < 10:
        raise ConfigurationError(f"plot width must be >= 10, got {width}")
    lines = [title, "=" * len(title), f"{x_label:>12}  {y_label:>14}"]
    if not points:
        lines.append("(no data)")
        return "\n".join(lines)
    max_y = max(abs(y) for _, y in points)
    for x, y in points:
        bar = ""
        if max_y > 0:
            bar = "#" * max(0, round(width * abs(y) / max_y))
        lines.append(f"{str(x):>12}  {y:>14.4g}  {bar}")
    return "\n".join(lines)
