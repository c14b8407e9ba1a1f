"""Plain-text rendering of experiment results, paper values alongside."""

from __future__ import annotations

import dataclasses
import typing


@dataclasses.dataclass
class ExperimentResult:
    """A regenerated table/figure: header, rows, and commentary."""

    experiment_id: str
    title: str
    columns: list[str]
    rows: list[list[typing.Any]]
    notes: list[str] = dataclasses.field(default_factory=list)

    def render(self) -> str:
        """ASCII table with the experiment header and notes."""
        header = f"== {self.experiment_id}: {self.title} =="
        widths = [len(str(column)) for column in self.columns]
        formatted_rows = []
        for row in self.rows:
            formatted = [self._format_cell(cell) for cell in row]
            widths = [max(width, len(text))
                      for width, text in zip(widths, formatted)]
            formatted_rows.append(formatted)
        lines = [header]
        lines.append("  ".join(
            str(column).ljust(width)
            for column, width in zip(self.columns, widths)))
        lines.append("  ".join("-" * width for width in widths))
        for formatted in formatted_rows:
            lines.append("  ".join(
                text.ljust(width)
                for text, width in zip(formatted, widths)))
        for note in self.notes:
            lines.append(f"  note: {note}")
        return "\n".join(lines)

    @staticmethod
    def _format_cell(cell: typing.Any) -> str:
        if cell is None:
            return "-"
        if isinstance(cell, float):
            return f"{cell:.2f}" if abs(cell) < 100 else f"{cell:.0f}"
        return str(cell)

    def column(self, name: str) -> list[typing.Any]:
        """All values of one named column (for tests and plots)."""
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

