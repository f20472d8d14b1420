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

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accelerator import Accelerator


class SyncScheduler:
    """Periodic :meth:`Accelerator.sync_all` driver for one site."""

    def __init__(self, accel: "Accelerator", interval: float = 50.0) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if accel.propagate:
            raise ValueError(
                "SyncScheduler is for lazy mode; eager propagation is on"
            )
        self.accel = accel
        self.interval = interval
        #: diagnostics
        self.passes = 0
        self.messages_sent = 0
        self._proc = None

    def start(self):
        """Spawn the periodic process (idempotent); returns it."""
        if self._proc is None or self._proc.triggered:
            self._proc = self.accel.env.process(
                self._loop(), name=f"{self.accel.site}.sync"
            )
        return self._proc

    def stop(self) -> None:
        """Cancel the periodic process (idempotent)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stopped")

    def _loop(self):
        from repro.sim.errors import Interrupt

        accel = self.accel
        ovl = accel.overload
        try:
            while True:
                # Under strain the overload controller halves the
                # interval: draining the backlog faster is the cheapest
                # pressure relief there is.
                interval = (
                    ovl.sync_interval(self.interval)
                    if ovl is not None
                    else self.interval
                )
                yield accel.env.timeout(interval)
                if accel.endpoint.crashed:
                    continue
                rec = accel.obs.recorder
                span = rec.open_span(
                    "sync.pass", accel.site, accel.now
                ) if rec.enabled else NULL_ROW
                sent = accel.sync_all(parent=span)
                if rec.enabled:
                    rec.close_span(span, accel.now, ("messages",), (sent,))
                self.messages_sent += sent
                self.passes += 1
                if ovl is not None:
                    # The periodic pass doubles as the recovery clock:
                    # it re-evaluates the state machine while the surge
                    # tails off, driving RECOVERING → NORMAL.
                    ovl.note_sync_pass(accel.now)
        except Interrupt:
            return

    def __repr__(self) -> str:
        return (
            f"<SyncScheduler {self.accel.site!r} interval={self.interval}"
            f" passes={self.passes} sent={self.messages_sent}>"
        )
