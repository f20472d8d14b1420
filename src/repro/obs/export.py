"""Exporters: Chrome trace-event JSON, JSONL dumps, text summaries.

Three consumers, three formats:

* **Chrome trace-event JSON** (:func:`write_chrome_trace`) — open the
  file in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``;
  each site renders as a thread, each span as a complete ("X") event,
  and the trace id is kept in both ``cat`` and ``args`` so one update's
  chain is searchable.
* **JSONL** (:func:`write_jsonl`) — one self-describing JSON object per
  line (``{"type": "span" | "metric" | "sample", ...}``) for offline
  analysis with any tool that reads line-delimited JSON.
* **Text** (:func:`render_summary`) — the aligned-table summary the
  ``observe`` CLI subcommand prints.

Simulated time is unitless; the Chrome exporter maps 1 sim-time unit to
1 ms (``ts``/``dur`` are microseconds), which puts typical runs in a
comfortable zoom range.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional

from repro.obs.spans import Span

if TYPE_CHECKING:  # pragma: no cover
    from repro.obs.hub import Observability
    from repro.obs.registry import MetricRegistry
    from repro.obs.sampler import TimeSeriesStore

#: microseconds per simulated time unit in Chrome trace output
SIM_UNIT_US = 1000.0


def chrome_trace_events(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """Convert spans to Chrome trace-event dicts (one "X" event each).

    Unfinished spans are exported with zero duration (they still mark
    where work started). Sites become threads of one process, with
    ``thread_name`` metadata so the viewer labels lanes by site.
    """
    events: List[Dict[str, Any]] = []
    tids: Dict[str, int] = {}
    for span in spans:
        tid = tids.get(span.site)
        if tid is None:
            tid = len(tids) + 1
            tids[span.site] = tid
            events.append({
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": tid,
                "args": {"name": span.site},
            })
        end = span.end if span.end is not None else span.start
        args: Dict[str, Any] = {
            "trace_id": span.trace_id,
            "span_id": span.span_id,
        }
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        if span.attrs:
            args.update(span.attrs)
        events.append({
            "name": span.name,
            "cat": span.trace_id,
            "ph": "X",
            "pid": 1,
            "tid": tid,
            "ts": span.start * SIM_UNIT_US,
            "dur": (end - span.start) * SIM_UNIT_US,
            "args": args,
        })
    return events


def write_chrome_trace(path: str, spans: Iterable[Span]) -> Dict[str, Any]:
    """Write a Chrome trace-event file; returns the written document."""
    document = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
        "otherData": {"exporter": "repro.obs", "sim_unit_us": SIM_UNIT_US},
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    return document


def jsonl_lines(
    spans: Iterable[Span] = (),
    registry: Optional["MetricRegistry"] = None,
    series: Optional["TimeSeriesStore"] = None,
) -> Iterator[str]:
    """Yield one JSON line per span, metric, and time-series sample."""
    for span in spans:
        yield json.dumps({
            "type": "span",
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "name": span.name,
            "site": span.site,
            "start": span.start,
            "end": span.end,
            "attrs": span.attrs or {},
        })
    if registry is not None:
        for record in registry.to_dicts():
            yield json.dumps({"type": "metric", **record})
    if series is not None:
        for name in series.names():
            for t, value in series.series(name):
                yield json.dumps(
                    {"type": "sample", "series": name, "time": t,
                     "value": value}
                )


def write_jsonl(
    path: str,
    spans: Iterable[Span] = (),
    registry: Optional["MetricRegistry"] = None,
    series: Optional["TimeSeriesStore"] = None,
) -> int:
    """Write the JSONL dump; returns the number of lines written."""
    n = 0
    with open(path, "w", encoding="utf-8") as fh:
        for line in jsonl_lines(spans, registry, series):
            fh.write(line + "\n")
            n += 1
    return n


def render_summary(obs: "Observability", title: str = "Observability") -> str:
    """Aligned-table text summary of one observed run.

    Sections: span counts and total durations by name, every registry
    instrument, and the final value of every time series.
    """
    from repro.metrics.report import text_table  # lazy: avoids an import cycle

    blocks: List[str] = []

    recorder = obs.recorder
    if len(recorder):
        # one walk: every read of the recorder rebuilds every span
        counts: Dict[str, int] = {}
        durations: Dict[str, float] = {}
        traces = set()
        for span in recorder:
            counts[span.name] = counts.get(span.name, 0) + 1
            durations[span.name] = durations.get(span.name, 0.0) + span.duration
            traces.add(span.trace_id)
        rows = [
            [name, count, f"{durations[name]:.1f}"]
            for name, count in sorted(counts.items())
        ]
        blocks.append(text_table(
            ["span", "count", "total sim-time"],
            rows,
            title=(
                f"{title} — spans ({len(recorder)} total,"
                f" {len(traces)} traces)"
            ),
        ))

    if len(obs.registry):
        blocks.append(text_table(
            ["metric", "kind", "value"],
            obs.registry.rows(),
            title=f"{title} — metrics",
        ))

    names = obs.series.names()
    if names:
        rows = []
        for name in names:
            points = obs.series.series(name)
            values = [v for _, v in points]
            rows.append([
                name,
                len(points),
                f"{min(values):.1f}",
                f"{max(values):.1f}",
                f"{values[-1]:.1f}",
            ])
        blocks.append(text_table(
            ["series", "samples", "min", "max", "last"],
            rows,
            title=f"{title} — time series",
        ))

    return "\n\n".join(blocks) if blocks else f"{title}: nothing recorded"
