"""Read operations with explicit consistency levels.

The paper is update-centric, but any database front-end needs reads.
Three levels, matching the system's consistency spectrum:

* ``LOCAL`` — the site's replica value, instantly, zero messages. For a
  regular item this may lag ground truth by exactly the deltas peers
  have not propagated yet (the price of the Delay path).
* ``RECONCILED`` — one round of requests collecting, from every live
  peer, the balance it owes us; the reply sum added to the local replica
  reproduces the ground-truth value without mutating anything.
  ``2(n-1)`` messages, read-only, no locks. Exact in lazy-propagation
  mode (owed balances are complete); under eager propagation it can lag
  by at most the deltas whose pushes are in flight (≤ one network
  latency old).
* ``LOCKED`` — a reconciled read taken under the item's local lock, so
  it also serialises against Immediate Updates this site coordinates or
  participates in.

For non-regular items every level returns the same (globally
consistent) replica value; LOCAL suffices.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.db.locks import LockMode
from repro.obs.spans import NULL_ROW

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accelerator import Accelerator

#: message tag for reconciled-read traffic; canonically declared in the
#: protocol registry
from repro.net.protocol import TAG_READ  # noqa: F401


class ReadConsistency(enum.Enum):
    LOCAL = "local"
    RECONCILED = "reconciled"
    LOCKED = "locked"


@dataclass(frozen=True, slots=True)
class ReadResult:
    """Outcome of a read."""

    item: str
    value: float
    consistency: ReadConsistency
    #: peers that contributed (reconciled/locked reads only)
    peers_asked: int = 0
    finished_at: float = 0.0
    #: served from the local replica by a DEGRADED site instead of the
    #: requested fan-out (overload brownout; see repro.core.overload)
    degraded: bool = False
    #: explicit bound on how stale a degraded read may be: the replica
    #: lags ground truth by at most the deltas accumulated since the
    #: last completed sync pass, i.e. this many simulated seconds
    staleness_bound: float = 0.0


class ReadProtocol:
    """Read-side message handling for one site."""

    def __init__(self, accel: "Accelerator") -> None:
        self.accel = accel
        accel.endpoint.on("read.owed", self.handle_owed)
        #: reads served for peers (diagnostic)
        self.served = 0

    # ---------------------------------------------------------------- #
    # requester side
    # ---------------------------------------------------------------- #

    def execute(self, item: str, consistency: ReadConsistency):
        """Generator resolving one read at the requested level."""
        accel = self.accel
        rec = accel.obs.recorder

        if (
            consistency is ReadConsistency.LOCAL
            or not accel.av_table.defined(item)
        ):
            return ReadResult(
                item=item,
                value=accel.store.value(item),
                consistency=consistency,
                finished_at=accel.now,
            )

        if accel.overload is not None:
            # Brownout: a DEGRADED site answers reconciled reads from
            # its own replica — zero messages — but says so, with an
            # explicit staleness bound, instead of quietly adding 2(n-1)
            # messages to an already-overloaded system. LOCKED reads
            # still pay full price (they serialise against 2PC).
            bound = accel.overload.degraded_read_bound(accel.now)
            if bound is not None and consistency is ReadConsistency.RECONCILED:
                return ReadResult(
                    item=item,
                    value=accel.store.value(item),
                    consistency=consistency,
                    finished_at=accel.now,
                    degraded=True,
                    staleness_bound=bound,
                )

        span = rec.open_span(
            "read", accel.site, accel.now, ("item", "consistency"),
            (item, consistency.value),
        ) if rec.enabled else NULL_ROW
        token = f"read:{accel.site}:{item}:{next(accel._req_ids)}"
        locked = consistency is ReadConsistency.LOCKED
        if locked:
            yield accel.locks.acquire(
                item, token, LockMode.EXCLUSIVE, span_id=span[1] or None
            )
        try:
            # Only the item's replicas can owe us deltas for it.
            peers = accel.live_peers_for(item)
            replies = yield accel.env.all_of(
                [
                    accel.endpoint.request(
                        peer, "read.owed", {"item": item}, tag=TAG_READ
                    )
                    for peer in peers
                ]
            )
            missing = sum(r["owed"] for r in replies.values())
            value = accel.store.value(item) + missing
        finally:
            if locked:
                accel.locks.release(item, token)
        if rec.enabled:
            rec.close_span(span, accel.now, ("peers",), (len(peers),))
        return ReadResult(
            item=item,
            value=value,
            consistency=consistency,
            peers_asked=len(peers),
            finished_at=accel.now,
        )

    # ---------------------------------------------------------------- #
    # responder side
    # ---------------------------------------------------------------- #

    # Pure read of the owed ledger — nothing timed happens here.
    def handle_owed(self, msg):  # repro-lint: disable=span-coverage
        """Report (without clearing!) the balance we owe the requester."""
        self.served += 1
        return {
            "owed": self.accel.owed_to(msg.src, msg.payload["item"]),
        }
