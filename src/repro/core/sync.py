"""Periodic batched replica synchronisation.

The paper's Delay Update propagates results "at the earliest" but its
measured metric counts only update-completion traffic — implying
replicas reconcile out of band. :class:`SyncScheduler` is that out-of-
band mechanism: every ``interval`` it pushes each item's *net* pending
delta to every peer (one message per peer per dirty item, however many
updates accumulated). Batching trades staleness for message count; the
``bench_sync_batching`` bench quantifies the trade.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.obs.spans import NULL_ROW
from repro.sim.process import Periodic

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accelerator import Accelerator


class SyncScheduler(Periodic):
    """Periodic :meth:`Accelerator.sync_all` driver for one site.

    Until :meth:`stop`, the site runs it: a crash ends it, and the
    restart starts it again.
    """

    def __init__(self, accel: "Accelerator", interval: float = 50.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if accel.propagate:
            raise ValueError(
                "SyncScheduler is for lazy mode; eager propagation is on"
            )
        self.accel = accel
        self.env, self.owner, self.daemons = accel.env, accel.site, accel.daemons
        self.interval = interval
        #: diagnostics
        self.passes = 0
        self.messages_sent = 0

    def next_interval(self) -> float:
        # Under strain the overload controller halves the interval:
        # draining the backlog faster is the cheapest pressure relief
        # there is.
        ovl = self.accel.overload
        return self.interval if ovl is None else ovl.sync_interval(self.interval)

    def tick(self) -> None:
        accel = self.accel
        rec = accel.obs.recorder
        span = rec.open_span(
            "sync.pass", accel.site, accel.now
        ) if rec.enabled else NULL_ROW
        sent = accel.sync_all(parent=span)
        if rec.enabled:
            rec.close_span(span, accel.now, ("messages",), (sent,))
        self.messages_sent += sent
        self.passes += 1
        if accel.overload is not None:
            # The periodic pass doubles as the recovery clock: it
            # re-evaluates the state machine while the surge tails off,
            # driving RECOVERING → NORMAL.
            accel.overload.note_sync_pass(accel.now)

    def __repr__(self) -> str:
        return (
            f"<SyncScheduler {self.accel.site!r} interval={self.interval}"
            f" passes={self.passes} sent={self.messages_sent}>"
        )
