"""ASCII rendering of experiment tables.

The original figures are line charts; for a dependency-free reproduction we
render each :class:`~repro.experiments.reporting.ExperimentTable` as an ASCII
chart (one mark per series) so trends are visible directly in terminal output
and in the benchmark logs.  This is presentation-only — the underlying data is
the table itself.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.experiments.reporting import ExperimentTable

__all__ = ["ascii_chart"]

#: Fallback marks used when a series' initial letter is already taken.
_FALLBACK_MARKS = "0123456789*#@"


def _assign_marks(series: Sequence[str]) -> Dict[str, str]:
    """One distinct single-character mark per series (initial letter preferred)."""
    marks: Dict[str, str] = {}
    used: set = set()
    fallback = iter(_FALLBACK_MARKS)
    for name in series:
        initial = next((char.upper() for char in name if char.isalnum()), None)
        if initial is None or initial in used:
            initial = next(fallback)
        marks[name] = initial
        used.add(initial)
    return marks


def _numeric_rows(table: ExperimentTable) -> List[Dict[str, float]]:
    rows = []
    for row in table.rows:
        values = {}
        for name in table.series:
            value = row.get(name)
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                values[name] = float(value)
        if values:
            rows.append({"x": row["x"], **values})
    return rows


def ascii_chart(table: ExperimentTable, *, width: int = 60, height: int = 16) -> str:
    """Render the table as an ASCII chart (series value vs row index).

    Each series gets a single-character mark; the y-axis is linear from zero to
    the maximum observed value.  Returns a multi-line string; tables without
    numeric series render as a short notice.
    """
    if width < 20 or height < 5:
        raise ValueError("chart dimensions are too small to be readable")
    rows = _numeric_rows(table)
    if not rows or not table.series:
        return f"{table.experiment_id}: no numeric series to plot"
    maximum = max(value for row in rows for key, value in row.items() if key != "x")
    if maximum <= 0:
        maximum = 1.0
    columns = len(rows)
    # Horizontal position of each row, spread across the width.
    positions = [int(round(index * (width - 1) / max(1, columns - 1))) for index in range(columns)]

    grid = [[" "] * width for _ in range(height)]
    marks = _assign_marks(table.series)
    for name in table.series:
        mark = marks[name]
        for row, column in zip(rows, positions):
            if name not in row:
                continue
            level = int(round((row[name] / maximum) * (height - 1)))
            grid[height - 1 - level][column] = mark

    y_label_width = len(f"{maximum:.1f}")
    lines = [f"{table.experiment_id}: {table.title}"]
    for line_index, line in enumerate(grid):
        if line_index == 0:
            label = f"{maximum:.1f}".rjust(y_label_width)
        elif line_index == len(grid) - 1:
            label = "0".rjust(y_label_width)
        else:
            label = " " * y_label_width
        lines.append(f"{label} |{''.join(line)}")
    lines.append(" " * y_label_width + " +" + "-" * width)
    x_values = [str(row["x"]) for row in rows]
    lines.append(" " * (y_label_width + 2) + f"{table.x_label}: {x_values[0]} .. {x_values[-1]}")
    legend = "  ".join(f"{marks[name]}={name}" for name in table.series)
    lines.append(" " * (y_label_width + 2) + legend)
    return "\n".join(lines)
