"""The observability hub handed through the stack.

One :class:`Observability` object per system bundles the span recorder,
the metric registry, and the time-series store, so constructors thread a
single handle instead of three. It also carries the run's event taps:
one subscriber list per kind of :data:`EVENT_KINDS`, the AV-table, lock,
message and policy events. Each emitter binds its kinds' lists once,
when it is constructed, and an emit site tests its list and calls every
subscriber with the event's time and the kind's fields, positionally.
:data:`NULL_OBS` is the shared disabled hub: its recorder is a
:class:`~repro.obs.spans.NullSpanRecorder`, its ``count``/``gauge_set``
helpers return immediately, and its taps are empty tuples that take no
subscriber, making the default (unobserved) configuration near-zero-cost.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, Optional, Tuple

from repro.obs.registry import MetricRegistry
from repro.obs.sampler import TimeSeriesStore
from repro.obs.spans import NullSpanRecorder, SpanRecorder

#: The run's event vocabulary: kind -> the names of the fields its emit
#: sites pass, positionally and in this order, after the event's time.
#: Spans capture *timing*; these events capture the *accounting* facts
#: the sanitizer folds into its invariants.
EVENT_KINDS: Dict[str, Tuple[str, ...]] = {
    # AV table (repro.core.av_table.AVTable)
    "av.define": ("site", "item", "amount"),
    "av.undefine": ("site", "item", "amount"),
    "av.add": ("site", "item", "amount"),
    "av.take": ("site", "item", "amount"),
    # holds (repro.core.av_table.Hold; opened by the table)
    "av.hold.open": ("site", "item", "amount", "hold"),
    "av.hold.add": ("site", "item", "amount", "hold"),
    "av.hold.consume": ("site", "item", "amount", "hold"),
    "av.hold.release": ("site", "item", "amount", "hold"),
    "av.hold.reclose": ("site", "item", "amount", "hold"),
    # the Delay protocol (repro.core.delay_update.DelayUpdateProtocol)
    "av.mint": ("site", "item", "amount"),
    "av.spend": ("site", "item", "amount"),
    "av.refill": ("site", "item", "amount"),
    "av.select": ("site", "item", "target", "believed", "trace", "span"),
    # grant leases (repro.core.leases.LeaseTable)
    "av.lease.open": ("site", "item", "amount", "holder", "lease"),
    "av.lease.discharge": ("site", "item", "amount", "holder", "lease"),
    "av.lease.revert": ("site", "item", "amount", "holder", "lease"),
    "av.lease.conflict": ("site", "holder", "lease"),
    # the overload controller (repro.core.overload.OverloadController)
    "ovl.shed": ("site", "retry_after"),
    "ovl.transition": ("site", "src", "dst"),
    "ovl.demote": ("site", "item"),
    "ovl.promote": ("site", "item"),
    "ovl.trip": ("site",),
    # locks (repro.db.locks.LockManager)
    "lock.grant": ("site", "item", "owner", "mode", "span_id", "holders", "queue"),
    "lock.wait": ("site", "item", "owner", "mode", "span_id", "holders", "queue"),
    "lock.release": ("site", "item", "owner", "mode", "span_id", "holders", "queue"),
    # messages (repro.net.network.Network)
    "msg.send": ("site", "msg"),
    "msg.recv": ("site", "msg"),
    "msg.drop": ("site", "msg"),
}


class Observability:
    """Span recorder + metric registry + time-series store for one run.

    Parameters
    ----------
    enabled:
        ``False`` installs the null recorder and turns the metric
        helpers into no-ops.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.recorder: SpanRecorder = (
            SpanRecorder() if enabled else NullSpanRecorder()
        )
        self.registry = MetricRegistry()
        self.series = TimeSeriesStore()
        #: kind -> subscriber list. Independent of ``enabled`` — the
        #: runtime sanitizer listens here even when span recording is
        #: off. Emitters bind these lists when they are constructed.
        self.taps: Dict[str, list] = {kind: [] for kind in EVENT_KINDS}

    def tap(self, kind: str) -> list:
        """The subscriber list of ``kind``, for an emitter to bind.

        An emit site tests the list first and then calls each
        subscriber as ``fn(now, *fields)``, the fields in
        ``EVENT_KINDS[kind]`` order; with no subscriber it builds
        nothing and calls nothing.
        """
        return self.taps[kind]

    def subscribe(self, kind: str, fn: Callable) -> None:
        """Call ``fn(now, *fields)`` on every ``kind`` event."""
        self.taps[kind].append(fn)

    def subscribe_fields(
        self, fn: Callable, kinds: Optional[Iterable[str]] = None
    ) -> Callable[[], None]:
        """Call ``fn(kind, now, fields)`` on every event of ``kinds``
        (default: every kind), ``fields`` a dict rebuilt from the kind's
        declared field names. Returns a callable that unsubscribes
        (once; a second call does nothing).

        The adapter costs a dict per event; the sanitizer subscribes
        positionally instead.
        """
        bound = []
        for kind in EVENT_KINDS if kinds is None else kinds:
            names = EVENT_KINDS[kind]

            def deliver(now, *values, kind=kind, names=names):
                fn(kind, now, dict(zip(names, values, strict=True)))

            self.subscribe(kind, deliver)
            bound.append((kind, deliver))

        def detach() -> None:
            while bound:
                kind, deliver = bound.pop()
                self.taps[kind].remove(deliver)

        return detach

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
#: Its taps are empty tuples that cannot be subscribed to, so no run's
#: events can leak into every other run that shares it.
NULL_OBS = Observability(enabled=False)
NULL_OBS.taps = dict.fromkeys(EVENT_KINDS, ())
