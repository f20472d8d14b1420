"""Instrumentation: the update collector, latency, availability, tables."""

from repro.metrics.availability import AvailabilityTracker, WindowStats
from repro.metrics.collector import GlobalLedger, MetricsCollector
from repro.metrics.latency import EMPTY_SUMMARY, LatencySummary, summarize
from repro.metrics.report import format_cell, text_table

__all__ = [
    "AvailabilityTracker",
    "EMPTY_SUMMARY",
    "GlobalLedger",
    "LatencySummary",
    "MetricsCollector",
    "WindowStats",
    "format_cell",
    "summarize",
    "text_table",
]
