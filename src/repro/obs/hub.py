"""The observability hub handed through the stack.

One :class:`Observability` object per system bundles the span recorder,
the metric registry, and the time-series store, so constructors thread a
single handle instead of three. Its :meth:`Observability.emit` bus is
the run's one event stream: AV-table, lock, message and policy events
all reach their subscribers through it. :data:`NULL_OBS` is the shared
disabled hub: its recorder is a :class:`~repro.obs.spans.NullSpanRecorder`,
its ``count``/``gauge_set`` helpers return immediately, and it takes no
subscribers, making the default (unobserved) configuration
near-zero-cost.
"""

from __future__ import annotations

from typing import Optional

from repro.obs.registry import MetricRegistry
from repro.obs.sampler import TimeSeriesStore
from repro.obs.spans import NullSpanRecorder, SpanRecorder


class Observability:
    """Span recorder + metric registry + time-series store for one run.

    Parameters
    ----------
    enabled:
        ``False`` installs the null recorder and turns the metric
        helpers into no-ops.
    max_spans:
        Optional span cap (see :class:`~repro.obs.spans.SpanRecorder`).
    """

    def __init__(self, enabled: bool = True, max_spans: Optional[int] = None) -> None:
        self.enabled = enabled
        self.recorder: SpanRecorder = (
            SpanRecorder(max_spans) if enabled else NullSpanRecorder()
        )
        self.registry = MetricRegistry()
        self.series = TimeSeriesStore()
        #: event subscribers, called as ``fn(kind, now, fields)``.
        #: Independent of ``enabled`` — the runtime sanitizer listens here
        #: even when span recording is off. Every emit site tests this
        #: list first, so with no subscriber no event is built.
        self.event_subscribers: list = []

    def emit(self, kind: str, now: float, **fields) -> None:
        """Publish one event of the run (AV table, lock, message, policy).

        Spans capture *timing*; these events capture *accounting* facts
        the sanitizer folds into its invariants. Callers test
        :attr:`event_subscribers` first, so an unsubscribed run never
        calls this.
        """
        for fn in self.event_subscribers:
            fn(kind, now, fields)

    # Convenience wrappers that keep call sites one-liners and free when
    # disabled (a single attribute check).

    def count(self, name: str, n: float = 1.0) -> None:
        """Increment counter ``name`` (no-op when disabled)."""
        if self.enabled:
            self.registry.counter(name).inc(n)

    def gauge_set(self, name: str, value: float, now: Optional[float] = None) -> None:
        """Set gauge ``name`` (no-op when disabled)."""
        if self.enabled:
            self.registry.gauge(name).set(value, now)

    def __repr__(self) -> str:
        state = "enabled" if self.enabled else "disabled"
        return (
            f"<Observability {state} spans={len(self.recorder)}"
            f" metrics={len(self.registry)}>"
        )


#: the shared disabled hub; never records, safe as a default argument.
#: Its subscriber tuple cannot be appended to, so no run's events can
#: leak into every other run that shares it.
NULL_OBS = Observability(enabled=False)
NULL_OBS.event_subscribers = ()
