"""Sweep dossiers: render a sweep's tasks and merged telemetry.

``python -m repro report PATH`` points here. ``PATH`` is a sweep
canonical JSON (``repro sweep ... --out sweep.json``). It renders as
aligned text tables (the default) or as one self-contained HTML file
(``--html OUT``) with no external assets, so the dossier can be
archived next to the run artifacts and opened anywhere.

Everything rendered here is a pure function of the input payload — the
dossier for a given run is byte-stable, like every other observability
artifact in this repo.
"""

from __future__ import annotations

import html as html_mod
import json
from typing import Any, Dict, List

from repro.obs.snapshot import merge_telemetry, telemetry_rows


def load_report(path: str) -> Dict[str, Any]:
    """Load a sweep canonical JSON payload."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    if not isinstance(payload, dict) or "results" not in payload:
        raise ValueError(
            f"{path!r} is not a sweep canonical JSON (an object with"
            " 'results')"
        )
    return payload


def _fmt_site_value(value: Any) -> str:
    if isinstance(value, dict):
        return (
            f"sum={value['sum']:g} min={value['min']:g}"
            f" max={value['max']:g}"
        )
    if isinstance(value, float):
        return f"{value:g}"
    return str(value)


def _site_rows(sites: Dict[str, Any]) -> List[List[Any]]:
    rows = []
    for name in sorted(sites):
        for field in sorted(sites[name]):
            rows.append([name, field, _fmt_site_value(sites[name][field])])
    return rows


def _sweep_sections(sweep: Dict[str, Any]) -> List[tuple]:
    results = sweep.get("results", [])
    merged = merge_telemetry(r.get("telemetry", {}) for r in results)
    head_rows = [
        ["grid", sweep.get("grid", "?")],
        ["root seed", sweep.get("root_seed", "?")],
        ["tasks", len(results)],
        ["kernel events", merged.get("events_processed", 0)],
    ]
    task_rows = []
    for result in results:
        task = result.get("task", {})
        telemetry = result.get("telemetry", {})
        task_rows.append([
            task.get("index", "?"),
            task.get("experiment", "?")
            + (f":{task['scenario']}" if task.get("scenario") else ""),
            task.get("seed", "?"),
            task.get("n_updates", "?"),
            telemetry.get("events_processed", ""),
        ])
    return [
        ("Sweep", ["field", "value"], head_rows),
        (
            "Tasks",
            ["task", "experiment", "seed", "updates", "events"],
            task_rows,
        ),
        (
            "Merged telemetry",
            ["metric", "kind", "value"],
            telemetry_rows(merged),
        ),
        (
            "Per-site aggregates",
            ["site", "field", "value"],
            _site_rows(merged.get("sites", {})),
        ),
    ]


def render_text(sweep: Dict[str, Any]) -> str:
    """Text sweep dossier."""
    # Imported here: the metrics package imports the protocol core,
    # whose lock manager and AV table import this package's hub.
    from repro.metrics.report import text_table

    blocks = [
        text_table(headers, rows, title=title)
        for title, headers, rows in _sweep_sections(sweep)
        if rows
    ]
    return "\n\n".join(blocks)


# ------------------------------------------------------------------ #
# HTML (self-contained, no external assets)
# ------------------------------------------------------------------ #

_HTML_STYLE = """
body { font-family: monospace; margin: 2em; color: #222; }
h1 { font-size: 1.3em; }
h2 { font-size: 1.05em; margin-top: 1.6em; }
table { border-collapse: collapse; margin: 0.5em 0; }
th, td { border: 1px solid #bbb; padding: 0.25em 0.6em; text-align: left; }
th { background: #eee; }
td.num { text-align: right; }
"""


def _html_table(headers: List[str], rows: List[List[Any]]) -> str:
    parts = ["<table><tr>"]
    parts += [f"<th>{html_mod.escape(str(h))}</th>" for h in headers]
    parts.append("</tr>")
    for row in rows:
        parts.append("<tr>")
        for cell in row:
            cls = ' class="num"' if isinstance(cell, (int, float)) else ""
            parts.append(f"<td{cls}>{html_mod.escape(str(cell))}</td>")
        parts.append("</tr>")
    parts.append("</table>")
    return "".join(parts)


def render_html(payload: Dict[str, Any]) -> str:
    """One self-contained HTML sweep dossier."""
    title = (
        f"Sweep dossier — {payload.get('grid', '?')}"
        f" (root seed {payload.get('root_seed', '?')})"
    )
    body = [f"<h1>{html_mod.escape(title)}</h1>"]
    for section_title, headers, rows in _sweep_sections(payload):
        if not rows:
            continue
        body.append(f"<h2>{html_mod.escape(section_title)}</h2>")
        body.append(_html_table(headers, rows))
    return (
        "<!doctype html><html><head><meta charset=\"utf-8\">"
        f"<title>{html_mod.escape(title)}</title>"
        f"<style>{_HTML_STYLE}</style></head><body>"
        + "".join(body)
        + "</body></html>"
    )
