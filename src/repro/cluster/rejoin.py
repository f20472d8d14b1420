"""Crash-recovery rejoin: anti-entropy before accepting new updates.

Only active when the robustness layer is on
(:class:`~repro.cluster.config.SystemConfig` ``reliability``). A
recovering :class:`~repro.cluster.site.Site` first rebuilds what its
crash ended (``Site.restart``), then runs the rejoin round as a
process while a **gate** on the accelerator holds new updates back:

1. resolve in-doubt 2PC participants (termination protocol);
2. catch up on Immediate Updates committed while we were down;
3. replay lease acks for transfers we received but may not have acked;
4. push our own retained propagation balances to the live peers;
5. ask each live peer to **flush** what it owes us (``prop.flush`` —
   the per-peer owed ledger retained our balances while we were
   unreachable);
6. reconcile our AV catalogue against the base site (``av.catalog``):
   define items that went regular while we were down, undefine ones
   that went non-regular, and refresh beliefs from the base's levels.

The gate then opens. A crash mid-rejoin kills the round like any other
process of the site, and the updates queued at the gate (they end
FAILED); the gate opens on the way out, and the next restart runs a
fresh round.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.net.endpoint import RequestTimeout

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.site import Site

#: message tag for rejoin control traffic (flush/catalog round-trips);
#: never counted as update traffic. Canonically declared in the
#: protocol registry.
from repro.net.protocol import TAG_REJOIN  # noqa: F401

#: bounded attempts for each flush/catalog request — a peer that stays
#: silent is skipped (its balances arrive when *it* next syncs/rejoins)
FLUSH_ATTEMPTS = 3


def install_rejoin_handlers(site: "Site") -> None:
    """Register the serving side of the rejoin protocol on a site."""
    accel = site.accelerator

    def handle_flush(msg):
        """A recovered peer asks for everything we owe it."""
        pushed = accel.sync_to(msg.src)
        return {"pushed": pushed}

    def handle_catalog(msg):
        """Serve our AV catalogue (the base's is authoritative)."""
        levels = dict(sorted(accel.av_table.items()))
        return {"items": sorted(levels), "levels": levels}

    accel.endpoint.on("prop.flush", handle_flush)
    accel.endpoint.on("av.catalog", handle_catalog)


def rejoin(site: "Site"):
    """Generator driving one rejoin round (spawned by ``Site.restart``).

    ``Site.restart`` sets ``accel._rejoin_gate`` *before* spawning this
    process so no update can slip in between; this generator owns the
    gate and always opens it on the way out. The process's value is the
    number of owed balances the live peers replayed for us (the sum of
    their ``prop.flush`` replies).
    """
    accel = site.accelerator
    env = site.env
    gate = accel._rejoin_gate
    timeout = accel.reliability.ack_timeout
    replayed = 0
    try:
        yield from accel.immediate.recover()

        # Transfers we applied before dying may never have been acked;
        # replaying the acks discharges the grantors' leases (idempotent
        # for leases a probe already discharged).
        accel.leases.re_ack()

        # Share what we committed before dying, then pull what the live
        # peers retained for us while we were unreachable. Only peers
        # sharing an item with us can owe anything (partial replication).
        accel.sync_all()
        for peer in sorted(accel.live_neighbors()):
            for _attempt in range(FLUSH_ATTEMPTS):
                try:
                    flushed = yield accel.endpoint.request(
                        peer, "prop.flush", {}, tag=TAG_REJOIN, timeout=timeout
                    )
                    replayed += flushed["pushed"]
                    break
                except RequestTimeout:
                    continue

        # Catalogue reconciliation against the base: reclassifications
        # that completed while we were down must be folded in before we
        # classify new updates.
        if accel.site != accel.base_site and not site.endpoint.network.faults.is_crashed(accel.base_site):
            reply = None
            for _attempt in range(FLUSH_ATTEMPTS):
                try:
                    reply = yield accel.endpoint.request(
                        accel.base_site, "av.catalog", {},
                        tag=TAG_REJOIN, timeout=timeout,
                    )
                    break
                except RequestTimeout:
                    continue
            if reply is not None:
                # The base's catalogue is authoritative but covers the
                # whole universe; we fold in only our own slice — a site
                # must never define (or believe about) an item outside
                # its interest set.
                base_items = {
                    i for i in reply["items"] if accel.serves_item(i)
                }
                mine = {item for item, _volume in accel.av_table.items()}
                for item in sorted(base_items - mine):
                    # Went regular while we were down: start managing it
                    # with zero AV (transfers refill on demand).
                    accel.av_table.define(item, 0.0)
                demoted = sorted(mine - base_items)
                for item in demoted:
                    accel.av_table.undefine(item)
                    accel.clear_owed_item(item)
                if demoted:
                    # Newly non-regular items need the primary-copy
                    # value; the earlier catch-up skipped them because
                    # they still looked regular here.
                    yield from accel.immediate.catch_up()
                for item in sorted(base_items):
                    accel.beliefs.observe(
                        accel.base_site, item, reply["levels"][item], env.now
                    )
    finally:
        # Run to the end, or killed by a crash: the gate opens either way.
        accel._rejoin_gate = None
        gate.succeed()
    return replayed
