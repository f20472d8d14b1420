"""Plain-text table rendering for experiment output.

The benchmark harness prints the same rows/series the paper reports;
these helpers keep that output aligned and diff-friendly.
"""

from __future__ import annotations

import io
from typing import Any, Iterable, Optional, Sequence


def format_cell(value: Any, ndigits: int = 2) -> str:
    """Human formatting: floats rounded, ints plain, rest ``str()``."""
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, float):
        if value.is_integer():
            return str(int(value))
        return f"{value:.{ndigits}f}"
    return str(value)


def text_table(
    headers: Sequence[str],
    rows: Iterable[Sequence[Any]],
    title: Optional[str] = None,
    ndigits: int = 2,
) -> str:
    """Render an aligned monospace table.

    >>> print(text_table(["a", "b"], [[1, 2.5]]))
    a | b
    --+----
    1 | 2.50
    """
    str_rows = [[format_cell(c, ndigits) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(
                f"row has {len(row)} cells, expected {len(headers)}"
            )
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))

    out = io.StringIO()
    if title:
        out.write(title + "\n")
    out.write(" | ".join(h.ljust(w) for h, w in zip(headers, widths)).rstrip() + "\n")
    out.write("-+-".join("-" * w for w in widths) + "\n")
    for row in str_rows:
        out.write(
            " | ".join(c.ljust(w) for c, w in zip(row, widths)).rstrip() + "\n"
        )
    return out.getvalue().rstrip("\n")
