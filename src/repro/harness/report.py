"""Plain-text rendering helpers for experiment output.

Everything the benches print goes through these, so reports share one
look: fixed-width columns, values pre-scaled by the caller.
"""

from __future__ import annotations

import re
from typing import Dict, List, Optional, Sequence, Tuple

_WALLCLOCK = re.compile(r", \d+ events/sec wall-clock")


def scrub_wallclock(text: str) -> str:
    """Drop the wall-clock fragment from engine footers.

    ``ScenarioResult.report()`` appends host-dependent throughput to its
    engine line; a report that embeds it can never regenerate
    byte-identically.  Prefer ``report(deterministic=True)`` when you
    control the render call — this scrubber covers already-rendered
    text (persisted golden reports, mixed output).
    """
    return _WALLCLOCK.sub("", text)


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render a left-aligned fixed-width table."""
    cells = [[_stringify(value) for value in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in cells:
        for index, value in enumerate(row):
            widths[index] = max(widths[index], len(value))
    lines = [
        "  ".join(h.ljust(widths[i]) for i, h in enumerate(headers)),
        "  ".join("-" * w for w in widths),
    ]
    for row in cells:
        lines.append("  ".join(v.ljust(widths[i]) for i, v in enumerate(row)))
    return "\n".join(lines)


def format_cell(value: object) -> object:
    """Render one sweep-row value for a table: compact but lossless."""
    if value is None:
        return "-"
    if isinstance(value, float):
        return "%g" % value
    if isinstance(value, dict):
        return ",".join("%s=%s" % (k, v) for k, v in sorted(value.items()))
    return value


def format_rows(rows: Sequence[Dict[str, object]]) -> str:
    """Render row dicts as a table headed by the first row's keys."""
    if not rows:
        return "(no rows)"
    headers = list(rows[0])
    return format_table(headers, [[row[h] for h in headers] for row in rows])


def format_series(
    rows: Sequence[Tuple[float, float]],
    x_label: str,
    y_label: str,
    width: int = 40,
    marks: Optional[Sequence[str]] = None,
) -> str:
    """Render an (x, y) series as a table with an inline bar chart.

    ``marks``, when given, is a per-row annotation column (index-aligned
    with ``rows``; missing entries render empty) — used to flag which
    buckets fall inside fault windows.
    """
    if not rows:
        return "(empty series)"
    peak = max(y for _x, y in rows) or 1.0
    table_rows: List[Sequence[object]] = []
    for index, (x, y) in enumerate(rows):
        bar = "#" * max(1, round(width * y / peak)) if y > 0 else ""
        row = ["%.1f" % x, "%.3f" % y, bar]
        if marks is not None:
            row.append(marks[index] if index < len(marks) else "")
        table_rows.append(row)
    headers = [x_label, y_label, ""]
    if marks is not None:
        headers.append("faults")
    return format_table(headers, table_rows)


def _stringify(value: object) -> str:
    if isinstance(value, float):
        return "%.3f" % value
    return str(value)
