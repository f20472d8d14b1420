"""Unified observability: causal spans, metrics, time series, exporters.

The paper's whole evaluation is about *where* communication happens —
which Delay updates stayed local, which triggered AV transfer chains
(checking → selecting → deciding → grant), how AV drains across sites
over time. This package makes that story first-class:

* :mod:`repro.obs.spans` — causal spans with trace/parent links, so a
  full AV-transfer chain is reconstructable from one trace id;
* :mod:`repro.obs.registry` — counters, gauges, and streaming
  histograms (percentiles without storing every sample);
* :mod:`repro.obs.sampler` — periodic time-series snapshots of per-site
  AV levels, belief staleness, lock-wait depth, and sync backlog;
* :mod:`repro.obs.export` — JSONL, Chrome trace-event JSON (openable in
  Perfetto / ``chrome://tracing``), and aligned text summaries;
* :mod:`repro.obs.snapshot` — mergeable telemetry snapshots the sharded
  sweep runner ships from workers and folds shard-invariantly;
* :mod:`repro.obs.report` — sweep dossiers (text + self-contained HTML)
  rendered from a sweep's canonical JSON.

Instrumentation follows the null-object pattern: a disabled
:class:`Observability` hub routes every call to no-op recorders, so hot
paths pay only a method call when observability is off (verified by
``benchmarks/bench_obs_overhead.py``).
"""

from repro.obs.export import (
    chrome_trace_events,
    jsonl_lines,
    render_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.hub import NULL_OBS, Observability
from repro.obs.registry import (
    Counter,
    Gauge,
    MetricRegistry,
    StreamingHistogram,
)
from repro.obs.report import load_report, render_html, render_text
from repro.obs.sampler import PeriodicSampler, TimeSeriesStore
from repro.obs.snapshot import TelemetrySnapshot, merge_telemetry
from repro.obs.spans import (
    NULL_SPAN,
    SPAN_KINDS,
    NullSpanRecorder,
    Span,
    SpanRecorder,
)

__all__ = [
    "Counter",
    "Gauge",
    "MetricRegistry",
    "NULL_OBS",
    "NULL_SPAN",
    "NullSpanRecorder",
    "Observability",
    "PeriodicSampler",
    "SPAN_KINDS",
    "Span",
    "SpanRecorder",
    "StreamingHistogram",
    "TelemetrySnapshot",
    "TimeSeriesStore",
    "chrome_trace_events",
    "jsonl_lines",
    "load_report",
    "merge_telemetry",
    "render_html",
    "render_summary",
    "render_text",
    "write_chrome_trace",
    "write_jsonl",
]
