"""AV grant leases: granted-but-unacked volume can revert, never vanish.

Without leases, volume a grantor takes out of its table lives only in
the reply (or rebalancer push) carrying it: if that message is dropped,
or the requester times out and discards the late reply, the volume is
*conservatively lost* — headroom shrinks forever. The PR 2 sanitizer
reports each such loss as a warning. This module closes the hole:

* the grantor keeps every granted-but-unacknowledged transfer in an
  **open lease** (item, amount, holder) keyed by a site-local id that
  rides in the transfer payload;
* the holder records a **receipt** for each lease it applies and sends
  an ``av.lease.ack``; the grantor **discharges** the lease on ack;
* a lease still open after ``lease_timeout`` makes the grantor **probe**
  the holder (``av.lease.probe``). Per-directed-pair FIFO makes the
  answer definitive — the transfer travelled the same channel before
  the probe — so "not received" licenses a **revert**: the volume goes
  back into the grantor's table. "Received" (the ack was lost) simply
  discharges.

Transfers themselves are *not* retransmitted: a lost transfer reverts,
and the requester's gather loop (or a later rebalancing pass) moves
volume again under a fresh lease. Every lease therefore resolves exactly
once — discharged or reverted — which the sanitizer's
:class:`~repro.analysis.invariants.LeaseAudit` checks structurally, and
"conservative in-transit loss" becomes a counted non-event instead of a
warning.

The probe loop retries forever (a bounded budget would strand volume);
runs where a holder stays unreachable for good must be bounded with
``run(until=...)``. Any schedule that eventually heals drains cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import TYPE_CHECKING, Dict, Optional, Tuple

from repro.net.endpoint import RequestTimeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accelerator import Accelerator
    from repro.net.reliable import ReliabilityParams

#: message tag for lease control traffic (acks, probes); never counted
#: as update traffic — Fig. 6's accounting must not change. Canonically
#: declared in the protocol registry.
from repro.net.protocol import TAG_LEASE  # noqa: F401


@dataclass(frozen=True)
class Lease:
    """One granted-but-unacknowledged AV transfer, held at the grantor."""

    lease_id: int
    item: str
    amount: float
    holder: str
    opened_at: float


class LeaseTable:
    """Both halves of the lease protocol for one site.

    Grantor side: :meth:`grant` opens a lease (and its expiry timer);
    the ack handler / probe outcome resolves it via :meth:`discharge` or
    revert. Holder side: :meth:`receive` records the receipt and acks;
    :meth:`re_ack` replays acks after a crash. Open leases and receipts
    are durable; the restart re-arms the expiry timers (:meth:`rearm`).

    Parameters
    ----------
    accel:
        The owning accelerator (endpoint, AV table, obs hub).
    params:
        The site's :class:`~repro.net.reliable.ReliabilityParams`
        (``lease_timeout``, ``probe_interval``, ``ack_timeout``).
    """

    def __init__(self, accel: "Accelerator", params: "ReliabilityParams") -> None:
        self.accel = accel
        self.env = accel.env
        self.params = params
        self._ids = count(1)
        #: open leases we granted: lease_id -> Lease
        self._open: Dict[int, Lease] = {}
        #: how each of our leases resolved: lease_id -> "discharged"|"reverted"
        self._resolved: Dict[int, str] = {}
        #: transfers we received and applied: (grantor, lease_id) -> time
        self._receipts: Dict[Tuple[str, int], float] = {}
        obs = accel.obs
        self._on_open = obs.tap("av.lease.open")
        self._on_discharge = obs.tap("av.lease.discharge")
        self._on_revert = obs.tap("av.lease.revert")
        self._on_conflict = obs.tap("av.lease.conflict")
        #: diagnostics
        self.opened = 0
        self.discharged = 0
        self.reverted = 0
        self.probes = 0
        self.acks_sent = 0
        accel.endpoint.on("av.lease.ack", self._handle_ack)
        accel.endpoint.on("av.lease.probe", self._handle_probe)

    # ---------------------------------------------------------------- #
    # grantor side
    # ---------------------------------------------------------------- #

    def grant(self, item: str, amount: float, holder: str) -> Lease:
        """Open a lease for volume just taken out of our table.

        The caller puts ``lease.lease_id`` in the transfer payload (the
        ``av.request`` reply or ``av.push`` message) so the holder can
        ack it.
        """
        lease = Lease(next(self._ids), item, float(amount), holder, self.env.now)
        self._open[lease.lease_id] = lease
        self.opened += 1
        if self._on_open:
            now = self.env.now
            for fn in self._on_open:
                fn(now, self.accel.site, item, lease.amount, holder,
                   lease.lease_id)
        self.env.process(self._expiry(lease), owner=self.accel.site)
        return lease

    def discharge(self, lease_id: int) -> bool:
        """Close a lease whose transfer is known applied at the holder."""
        lease = self._open.pop(lease_id, None)
        if lease is None:
            return False
        self._resolved[lease_id] = "discharged"
        self.discharged += 1
        if self._on_discharge:
            now = self.env.now
            for fn in self._on_discharge:
                fn(now, self.accel.site, lease.item, lease.amount,
                   lease.holder, lease_id)
        return True

    def _revert(self, lease: Lease) -> None:
        """The transfer definitively never arrived: reclaim the volume."""
        if self._open.pop(lease.lease_id, None) is None:
            return
        self._resolved[lease.lease_id] = "reverted"
        self.reverted += 1
        # Emit before the table add: the conservation sum only dips in
        # between (the revert raises the LHS back by exactly the leased
        # amount the in-transit account gave up at the drop).
        if self._on_revert:
            now = self.env.now
            for fn in self._on_revert:
                fn(now, self.accel.site, lease.item, lease.amount,
                   lease.holder, lease.lease_id)
        self.accel.av_table.add(lease.item, lease.amount)

    def rearm(self) -> None:
        """Start one expiry timer per open lease (a restart: the crash
        ended the timers, each lease waits a full timeout again)."""
        for lease in self._open.values():
            self.env.process(self._expiry(lease), owner=self.accel.site)

    def _expiry(self, lease: Lease):
        """Timer: probe the holder once the lease outlives its timeout.

        FIFO makes the first answered probe definitive, so the loop only
        needs to survive timeouts (a holder that is down). It exits as
        soon as the lease resolves — including via an ack that lands
        while a probe is in flight.
        """
        params = self.params
        yield self.env.timeout(params.lease_timeout)
        while lease.lease_id in self._open:
            try:
                reply = yield self.accel.endpoint.request(
                    lease.holder,
                    "av.lease.probe",
                    {"lease": lease.lease_id},
                    tag=TAG_LEASE,
                    timeout=params.ack_timeout,
                )
            except RequestTimeout:
                self.probes += 1
                yield self.env.timeout(params.probe_interval)
                continue
            self.probes += 1
            if lease.lease_id not in self._open:
                break  # an ack resolved it during the round-trip
            if reply["received"]:
                self.discharge(lease.lease_id)
            else:
                self._revert(lease)

    def _handle_ack(self, msg):
        lease_id = msg.payload["lease"]
        if self.discharge(lease_id):
            return
        if self._resolved.get(lease_id) == "reverted":
            # The holder applied a transfer we already reclaimed: the
            # volume now exists twice. Only reachable when a message
            # outlives lease_timeout in flight — which ReliabilityParams
            # forbids — so surface it loudly.
            if self._on_conflict:
                now = self.env.now
                for fn in self._on_conflict:
                    fn(now, self.accel.site, msg.src, lease_id)
        # acks for already-discharged leases (re_ack replays) are normal

    # ---------------------------------------------------------------- #
    # holder side
    # ---------------------------------------------------------------- #

    def receive(self, grantor: str, lease_id: int) -> bool:
        """Record a leased transfer's arrival and ack it.

        Returns ``False`` for a duplicate delivery — the caller must not
        apply the volume again (the first delivery did).
        """
        key = (grantor, lease_id)
        fresh = key not in self._receipts
        if fresh:
            self._receipts[key] = self.env.now
        self._send_ack(grantor, lease_id)
        return fresh

    def _send_ack(self, grantor: str, lease_id: int) -> None:
        self.accel.endpoint.send(
            grantor, "av.lease.ack", {"lease": lease_id}, tag=TAG_LEASE
        )
        self.acks_sent += 1

    def re_ack(self) -> int:
        """Replay acks for every recorded receipt (crash-recovery rejoin).

        Idempotent at the grantor: acks for discharged leases are
        ignored, and a receipt guarantees the lease cannot have
        reverted (the probe would have answered "received").
        """
        sent = 0
        for grantor, lease_id in sorted(self._receipts):
            self._send_ack(grantor, lease_id)
            sent += 1
        return sent

    def _handle_probe(self, msg):
        """Definitive (FIFO) answer: did this grantor's lease arrive?"""
        return {
            "received": (msg.src, msg.payload["lease"]) in self._receipts
        }

    # ---------------------------------------------------------------- #
    # views
    # ---------------------------------------------------------------- #

    @property
    def open_leases(self) -> int:
        return len(self._open)

    def outstanding(self, item: Optional[str] = None) -> float:
        """Leased volume not yet resolved (optionally for one item)."""
        return sum(
            lease.amount
            for lease in self._open.values()
            if item is None or lease.item == item
        )

    def __repr__(self) -> str:
        return (
            f"<LeaseTable {self.accel.site!r} open={len(self._open)}"
            f" discharged={self.discharged} reverted={self.reverted}>"
        )
