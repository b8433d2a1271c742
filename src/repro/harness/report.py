"""ASCII rendering and CSV export helpers for the harness."""

from __future__ import annotations

import csv
import io
from typing import Dict, Iterable, Sequence

__all__ = ["ascii_table", "ascii_bars", "ascii_histogram", "to_csv"]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value != value:  # NaN
            return "-"
        if abs(value) >= 1000:
            return f"{value:,.0f}"
        return f"{value:.2f}".rstrip("0").rstrip(".")
    return str(value)


def ascii_table(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Render a right-aligned text table (first column left-aligned)."""
    str_rows = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    def line(cells: Sequence[str]) -> str:
        parts = [cells[0].ljust(widths[0])]
        parts += [c.rjust(w) for c, w in zip(cells[1:], widths[1:])]
        return "  ".join(parts)

    sep = "-" * (sum(widths) + 2 * (len(widths) - 1))
    out = [line(list(headers)), sep]
    out += [line(r) for r in str_rows]
    return "\n".join(out)


def ascii_bars(
    labels: Sequence[str], values: Sequence[float], width: int = 46, unit: str = "x"
) -> str:
    """Horizontal bar chart (one bar per label)."""
    if not values:
        return "(no data)"
    peak = max(values) or 1.0
    label_w = max(len(l) for l in labels)
    lines = []
    for label, value in zip(labels, values):
        bar = "#" * max(1, round(value / peak * width)) if value > 0 else ""
        lines.append(f"{label.ljust(label_w)} |{bar.ljust(width)}| {value:.1f}{unit}")
    return "\n".join(lines)


def ascii_histogram(
    buckets: Sequence[str], series: Dict[str, Sequence[int]], width: int = 40
) -> str:
    """Multi-series bucket histogram (one row per bucket)."""
    peak = max((max(v) if v else 0 for v in series.values()), default=0) or 1
    names = list(series)
    label_w = max(len(b) for b in buckets)
    lines = ["bucket".ljust(label_w) + "  " + "  ".join(names)]
    for i, bucket in enumerate(buckets):
        cells = []
        for name in names:
            count = series[name][i]
            bar = "#" * max(0, round(count / peak * width))
            cells.append(f"{count:6d} {bar}")
        lines.append(bucket.ljust(label_w) + "  " + "  ".join(cells))
    return "\n".join(lines)


def to_csv(headers: Sequence[str], rows: Iterable[Sequence]) -> str:
    """Serialise rows to CSV text."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(headers)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()
