"""ASCII chart rendering for figure-like exhibits.

The paper's evaluation is mostly bar charts and line series; these
helpers render the same data as terminal charts so benchmark logs read
like the figures.  No plotting dependency: everything is plain text.
"""

from __future__ import annotations

from typing import Sequence


def bar_chart(labels: Sequence[str], values: Sequence[float],
              title: str | None = None, width: int = 46,
              value_format: str = "{:.2%}") -> str:
    """Horizontal bar chart, one bar per label."""
    if len(labels) != len(values):
        raise ValueError("labels and values must align")
    if not values:
        return title or ""
    peak = max(max(values), 0.0)
    label_width = max((len(label) for label in labels), default=0)
    lines = [title] if title else []
    for label, value in zip(labels, values):
        filled = 0 if peak <= 0 else max(0, round(width * value / peak))
        bar = "#" * filled
        lines.append(f"{label:>{label_width}}  "
                     f"{value_format.format(value):>8} |{bar}")
    return "\n".join(lines)


def series_chart(x_labels: Sequence[str],
                 series: dict[str, Sequence[float]],
                 title: str | None = None, height: int = 12,
                 value_format: str = "{:.3f}") -> str:
    """Multi-series scatter over a categorical x axis (Figure-3 style).

    Each series gets a marker; coincident points show the later marker.
    """
    markers = "ox*+@%&"
    values_flat = [value for values in series.values() for value in values]
    if not values_flat:
        return title or ""
    low, high = min(values_flat), max(values_flat)
    span = (high - low) or 1.0
    grid = [[" "] * len(x_labels) for _ in range(height)]
    for series_index, (name, values) in enumerate(series.items()):
        marker = markers[series_index % len(markers)]
        for column, value in enumerate(values):
            row = round((value - low) / span * (height - 1))
            grid[height - 1 - row][column] = marker

    lines = [title] if title else []
    for row_index, row in enumerate(grid):
        level = high - span * row_index / (height - 1)
        lines.append(f"{value_format.format(level):>8} | "
                     + "   ".join(row))
    lines.append(" " * 9 + "+" + "-" * (4 * len(x_labels)))
    lines.append(" " * 10 + " ".join(f"{label:>3}" for label in x_labels))
    legend = "  ".join(f"{markers[i % len(markers)]}={name}"
                       for i, name in enumerate(series))
    lines.append(f"legend: {legend}")
    return "\n".join(lines)
