"""Proactive AV rebalancing — the paper's §3.4 circulation, made explicit.

§3.4: "it is essential to calculate the volume of AV transfer using
local information and to make AV **circulate** among the sites". The
on-demand transfer path circulates AV only when an update is already
blocked on it — the cost shows up as update latency. This module adds
the complementary proactive mover the section gestures at: a per-site
background process that pushes surplus AV toward believed-poor peers
*before* anyone blocks.

Everything is decided from local information (own AV + belief table),
per the paper's design rule. Pushes are one-way messages tagged
``rebal`` so the experiment harness can report proactive traffic
separately from update-completion traffic.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accelerator import Accelerator

#: message tag for proactive rebalancing traffic; canonically declared
#: in the protocol registry
from repro.net.protocol import TAG_REBALANCE  # noqa: F401


class AVRebalancer:
    """Background surplus-pusher for one site.

    Parameters
    ----------
    accel:
        The owning accelerator.
    interval:
        Simulated time between rebalancing passes.
    surplus_factor:
        A site pushes only while its AV exceeds ``surplus_factor ×``
        its believed fair share (own + believed peers, divided evenly).
    needy_factor:
        Only peers believed below ``needy_factor ×`` fair share receive.
    push_fraction:
        Fraction of the surplus above fair share pushed per pass.
    """

    def __init__(
        self,
        accel: "Accelerator",
        interval: float = 50.0,
        surplus_factor: float = 1.5,
        needy_factor: float = 0.5,
        push_fraction: float = 0.5,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        if surplus_factor <= 1.0 or not 0.0 <= needy_factor < 1.0:
            raise ValueError("need surplus_factor > 1 and 0 <= needy_factor < 1")
        if not 0.0 < push_fraction <= 1.0:
            raise ValueError("push_fraction must be in (0, 1]")
        self.accel = accel
        self.interval = interval
        self.surplus_factor = surplus_factor
        self.needy_factor = needy_factor
        self.push_fraction = push_fraction
        #: diagnostics
        self.pushes_sent = 0
        self.volume_pushed = 0.0
        self._proc = None

    # ---------------------------------------------------------------- #
    # lifecycle
    # ---------------------------------------------------------------- #

    def start(self):
        """Spawn the periodic process (idempotent); returns it."""
        if self._proc is None or self._proc.triggered:
            self._proc = self.accel.env.process(
                self._loop(), name=f"{self.accel.site}.rebalancer"
            )
        return self._proc

    def stop(self) -> None:
        """Cancel the periodic process (idempotent)."""
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stopped")

    def _loop(self):
        from repro.sim.errors import Interrupt

        accel = self.accel
        try:
            while True:
                yield accel.env.timeout(self.interval)
                if accel.endpoint.crashed:
                    continue
                self.rebalance_once()
        except Interrupt:
            return

    # ---------------------------------------------------------------- #
    # one pass
    # ---------------------------------------------------------------- #

    def rebalance_once(self) -> int:
        """Inspect every AV entry; push surpluses. Returns pushes sent."""
        accel = self.accel
        rec = accel.obs.recorder
        if rec.enabled:
            span = rec.open_span("rebal.pass", accel.site, accel.now)
        sent = 0
        for item, own in list(accel.av_table.items()):
            if accel.frozen_gate(item) is not None:
                continue  # reclassification in progress
            peers = accel.live_peers_for(item)
            if not peers:
                continue
            believed = {
                p: accel.beliefs.believed_volume(p, item) for p in peers
            }
            known = {p: v for p, v in believed.items() if v is not None}
            if not known:
                continue  # no local information to act on
            total = own + sum(known.values())
            fair = total / (len(known) + 1)
            if fair <= 0 or own <= self.surplus_factor * fair:
                continue
            needy = [p for p, v in known.items() if v < self.needy_factor * fair]
            if not needy:
                continue
            target = min(needy, key=lambda p: (known[p], p))
            amount = (own - fair) * self.push_fraction
            if float(own).is_integer():
                amount = float(int(amount))
            if amount <= 0:
                continue
            accel.av_table.take(item, amount)
            payload = {
                "item": item,
                "amount": amount,
                "sender_av": accel.av_table.get(item),
            }
            if accel.leases is not None:
                # The push is fire-and-forget either way; the lease
                # reverts the volume if it never lands.
                payload["lease"] = accel.leases.grant(
                    item, amount, target
                ).lease_id
            accel.endpoint.send(target, "av.push", payload, tag=TAG_REBALANCE)
            # Optimistically assume delivery for our own bookkeeping.
            accel.beliefs.observe(
                target, item, known[target] + amount, accel.now
            )
            self.pushes_sent += 1
            self.volume_pushed += amount
            sent += 1
        if rec.enabled:
            rec.close_span(span, accel.now, ("pushes",), (sent,))
        return sent

    def __repr__(self) -> str:
        return (
            f"<AVRebalancer {self.accel.site!r} pushes={self.pushes_sent}"
            f" volume={self.volume_pushed:g}>"
        )
