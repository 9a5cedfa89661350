"""Tabular reporting of experiment results.

Every figure/table of the paper is regenerated as an :class:`ExperimentTable`:
an x-axis (number of peers, number of replicas, failure rate, ...), one column
per algorithm/series, and one row per x value.  Tables render to plain text
(for benchmark output) and Markdown (for EXPERIMENTS.md).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

__all__ = ["ExperimentTable"]


@dataclass
class ExperimentTable:
    """A reproduced table or figure, as rows of series values."""

    experiment_id: str
    title: str
    x_label: str
    series: List[str]
    rows: List[Dict[str, Any]] = field(default_factory=list)
    notes: str = ""

    # ------------------------------------------------------------------ build
    def add_row(self, x: Any, values: Dict[str, Any]) -> None:
        """Append one row; ``values`` maps series name to measurement."""
        unknown = set(values) - set(self.series)
        if unknown:
            raise ValueError(f"unknown series {sorted(unknown)}; expected {self.series}")
        row: Dict[str, Any] = {"x": x}
        row.update(values)
        self.rows.append(row)

    # ----------------------------------------------------------------- queries
    def x_values(self) -> List[Any]:
        """The x-axis values, in row order."""
        return [row["x"] for row in self.rows]

    def series_values(self, name: str) -> List[Any]:
        """The values of one series, in row order (``None`` when missing)."""
        if name not in self.series:
            raise KeyError(f"unknown series {name!r}; expected one of {self.series}")
        return [row.get(name) for row in self.rows]

    # --------------------------------------------------------------- rendering
    def _format_value(self, value: Any, float_format: str) -> str:
        if isinstance(value, bool) or value is None:
            return str(value)
        if isinstance(value, float):
            return float_format % value
        return str(value)

    def to_markdown(self, float_format: str = "%.2f") -> str:
        """Render as a GitHub-flavoured Markdown table with a title header."""
        header = [self.x_label] + list(self.series)
        lines = [f"### {self.experiment_id}: {self.title}", ""]
        lines.append("| " + " | ".join(header) + " |")
        lines.append("|" + "|".join(["---"] * len(header)) + "|")
        for row in self.rows:
            cells = [self._format_value(row["x"], float_format)]
            cells += [self._format_value(row.get(name), float_format) for name in self.series]
            lines.append("| " + " | ".join(cells) + " |")
        if self.notes:
            lines += ["", self.notes]
        return "\n".join(lines)

    def to_text(self, float_format: str = "%.2f") -> str:
        """Render as an aligned plain-text table (used by benchmark output)."""
        header = [self.x_label] + list(self.series)
        body: List[List[str]] = []
        for row in self.rows:
            cells = [self._format_value(row["x"], float_format)]
            cells += [self._format_value(row.get(name), float_format) for name in self.series]
            body.append(cells)
        widths = [max(len(header[index]), *(len(line[index]) for line in body)) if body
                  else len(header[index])
                  for index in range(len(header))]
        lines = [f"{self.experiment_id}: {self.title}"]
        lines.append("  ".join(name.ljust(width) for name, width in zip(header, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for cells in body:
            lines.append("  ".join(cell.ljust(width) for cell, width in zip(cells, widths)))
        if self.notes:
            lines.append(self.notes)
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.rows)

