"""Plain-text rendering of tables and bar charts.

The report prints the paper's artifacts in a terminal-friendly form:
Table I as an aligned table, Figure 6 as a horizontal bar chart.
"""

from __future__ import annotations

from typing import Mapping, Sequence


def render_table(
    headers: Sequence[str], rows: Sequence[Sequence[object]], title: str = ""
) -> str:
    """Render an aligned ASCII table."""
    cells = [[str(h) for h in headers]] + [[str(c) for c in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(headers))]

    def fmt(row: Sequence[str]) -> str:
        return " | ".join(cell.ljust(width) for cell, width in zip(row, widths))

    rule = "-+-".join("-" * w for w in widths)
    lines = []
    if title:
        lines.append(title)
    lines.append(fmt(cells[0]))
    lines.append(rule)
    lines.extend(fmt(row) for row in cells[1:])
    return "\n".join(lines)


def render_bar_chart(
    values: Mapping[str, float],
    title: str = "",
    unit: str = "",
    width: int = 50,
    baseline: str | None = None,
) -> str:
    """Render a horizontal bar chart (one bar per key).

    When ``baseline`` names a key, each bar is annotated with its gain
    relative to that key — the way the paper reports Figure 6.
    """
    if not values:
        raise ValueError("no values to chart")
    label_width = max(len(k) for k in values)
    peak = max(values.values()) or 1.0
    base = values.get(baseline) if baseline else None
    lines = [title] if title else []
    for key, value in values.items():
        bar = "#" * max(1, round(width * value / peak)) if value > 0 else ""
        note = f" {value:.2f}{(' ' + unit) if unit else ''}"
        if base not in (None, 0) and key != baseline:
            note += f" ({(value / base - 1.0) * 100.0:+.2f}% vs {baseline})"
        lines.append(f"{key.ljust(label_width)} |{bar}{note}")
    return "\n".join(lines)
