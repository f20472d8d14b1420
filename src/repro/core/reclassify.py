"""Dynamic item reclassification — the paper's adaptation claim, built.

The abstract promises "adaptation to unpredictable user requirements":
the heterogeneous requirements on a product can *change* (a non-regular
product becomes a fast-moving stocked good; a regular product becomes a
contract item needing global consistency). The paper never gives the
mechanism; this module supplies one consistent with its machinery — the
checking function routes on AV-entry existence, so reclassification is
exactly a coordinated re-definition of AV entries:

* **make_regular(item)** — a global operation (canonical-order locks,
  same skeleton as Immediate Update) that defines AV at every site,
  splitting the item's current value per the configured weights. New
  updates then take the zero-communication Delay path.
* **make_non_regular(item)** — freezes Delay updates everywhere, waits
  for in-flight ones to drain (quiesce), collects every site's unsynced
  deltas, reconciles the ground-truth value, installs it at every
  replica, and removes the AV entries. New updates then take the
  Immediate path.

Message cost: ``4(n-1)`` messages = ``2(n-1)`` correspondences per
reclassification (lock/ready + commit/ack), tagged ``cls`` — management
traffic, accounted separately from update completion.

Constraint (asserted in tests): ``make_non_regular`` reconciles from
the per-site *unsynced* sums, which is exact only if no delta it claims
also reaches a replica by another route. ``quiesce`` fences the route
shown to race: it waits until no reliable sync push of the item is on
the wire, so a claimed balance has either been acked (and subtracted)
or not sent. Eager pushes and unreliable sync sends are not fenced;
they have not been shown to race, and they get no code until a failing
test shows they do.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional

from repro.core.errors import CoreError
from repro.db.locks import LockMode
from repro.obs.spans import NULL_ROW

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accelerator import Accelerator

#: message tag for reclassification traffic; canonically declared in
#: the protocol registry
from repro.net.protocol import TAG_RECLASS  # noqa: F401


class ReclassificationError(CoreError):
    """The item is already in the requested class, or state is invalid."""


class ReclassificationProtocol:
    """Coordinator + participant roles for class changes at one site."""

    def __init__(self, accel: "Accelerator") -> None:
        self.accel = accel
        accel.endpoint.on("cls.lock", self.handle_lock)
        accel.endpoint.on("cls.to_regular", self.handle_to_regular)
        accel.endpoint.on("cls.to_nonregular", self.handle_to_nonregular)

    # ---------------------------------------------------------------- #
    # coordinator entry points (called through Accelerator.reclassify)
    # ---------------------------------------------------------------- #

    def make_regular(
        self,
        item: str,
        av_fraction: float = 1.0,
        weights: Optional[Dict[str, float]] = None,
    ):
        """Generator: convert a non-regular item to regular everywhere."""
        accel = self.accel
        rec = accel.obs.recorder
        if accel.av_table.defined(item):
            raise ReclassificationError(f"{item!r} is already regular")
        if not 0.0 <= av_fraction <= 1.0:
            raise ReclassificationError(f"av_fraction {av_fraction} not in [0, 1]")
        token = f"cls:{accel.site}:{item}:{next(accel._req_ids)}"
        root = rec.open_span(
            "cls.regular", accel.site, accel.now, ("item",), (item,)
        ) if rec.enabled else NULL_ROW

        # Reclassification involves exactly the item's replicas.
        order = sorted([accel.site, *accel.live_peers_for(item)])
        peers = [s for s in order if s != accel.site]

        # Phase 1: canonical-order locks (replicas of a non-regular item
        # are identical by invariant, so no value collection is needed).
        for site in order:
            if site == accel.site:
                yield accel.locks.acquire(
                    item, token, LockMode.EXCLUSIVE,
                    span_id=root[1] or None,
                )
            else:
                payload = {"item": item, "token": token}
                if rec.enabled:
                    # Participants parent their cls.lock span here.
                    payload["_obs"] = {"trace": root[0], "span": root[1]}
                yield accel.endpoint.request(
                    site, "cls.lock", payload, tag=TAG_RECLASS
                )

        # Decide the split from the (consistent) current value.
        from repro.cluster.bootstrap import split_volume

        value = accel.store.value(item)
        pool = value * av_fraction
        if float(value).is_integer():
            import math

            pool = float(math.floor(pool))
        weight_map = weights if weights is not None else {s: 1.0 for s in order}
        base_first = [accel.base_site] + [
            s for s in order if s != accel.base_site
        ]
        shares = split_volume(pool, weight_map, base_first)

        # Phase 2: install AV entries everywhere, then unlock.
        acks = [
            accel.endpoint.request(
                peer,
                "cls.to_regular",
                {"item": item, "token": token, "share": shares[peer]},
                tag=TAG_RECLASS,
            )
            for peer in peers
        ]
        yield accel.env.all_of(acks)
        accel.av_table.define(item, shares[accel.site])
        accel.locks.release(item, token)
        if rec.enabled:
            rec.close_span(root, accel.now, ("sites",), (len(order),))
        return shares

    def make_non_regular(self, item: str):
        """Generator: convert a regular item to non-regular everywhere."""
        accel = self.accel
        rec = accel.obs.recorder
        if not accel.av_table.defined(item):
            raise ReclassificationError(f"{item!r} is already non-regular")
        token = f"cls:{accel.site}:{item}:{next(accel._req_ids)}"
        root = rec.open_span(
            "cls.nonregular", accel.site, accel.now, ("item",), (item,)
        ) if rec.enabled else NULL_ROW

        # Reclassification involves exactly the item's replicas.
        order = sorted([accel.site, *accel.live_peers_for(item)])
        peers = [s for s in order if s != accel.site]

        # Phase 1: freeze + quiesce + lock everywhere (canonical order);
        # each participant reports the deltas its peers have not seen.
        unsynced_total = 0.0
        for site in order:
            if site == accel.site:
                accel.freeze(item)
                yield accel.quiesce(item)
                yield accel.locks.acquire(
                    item, token, LockMode.EXCLUSIVE,
                    span_id=root[1] or None,
                )
            else:
                payload = {"item": item, "token": token}
                if rec.enabled:
                    # Participants parent their cls.lock span here.
                    payload["_obs"] = {"trace": root[0], "span": root[1]}
                reply = yield accel.endpoint.request(
                    site, "cls.lock", payload, tag=TAG_RECLASS
                )
                unsynced_total += reply["unsynced"]

        # Reconcile: our replica has everything except the balances the
        # peers owed *to us* (our own committed deltas are applied
        # locally already; what we owe others is superseded below).
        accel.clear_owed_item(item)
        true_value = accel.store.value(item) + unsynced_total

        # Phase 2: install the reconciled value, drop AV, unlock.
        acks = [
            accel.endpoint.request(
                peer,
                "cls.to_nonregular",
                {"item": item, "token": token, "value": true_value},
                tag=TAG_RECLASS,
            )
            for peer in peers
        ]
        yield accel.env.all_of(acks)
        accel.av_table.undefine(item)
        accel.store.set_value(item, true_value)
        accel.unfreeze(item)
        accel.locks.release(item, token)
        if rec.enabled:
            rec.close_span(root, accel.now, ("sites", "value"),
                           (len(order), true_value))
        return true_value

    # ---------------------------------------------------------------- #
    # participant handlers
    # ---------------------------------------------------------------- #

    def handle_lock(self, msg):
        """Freeze the item, drain in-flight Delay updates, take the lock.

        Replies with the participant's unsynced delta sum (claimed by the
        coordinator: it is removed here so no later sync double-sends).
        """
        accel = self.accel
        rec = accel.obs.recorder
        item = msg.payload["item"]
        token = msg.payload["token"]
        ctx = msg.payload.get("_obs") if rec.enabled else None

        def locker():
            span = NULL_ROW
            if rec.enabled:
                span = rec.open_span(
                    "cls.lock", accel.site, accel.now, ("item",), (item,),
                    trace=ctx["trace"] if ctx else None,
                    parent=ctx["span"] if ctx else None,
                )
            accel.freeze(item)
            yield accel.quiesce(item)
            yield accel.locks.acquire(
                item, token, LockMode.EXCLUSIVE, span_id=span[1] or None
            )
            if rec.enabled:
                rec.close_span(span, accel.now)
            # Report the balance owed to the coordinator; everything
            # owed to other peers is superseded by the value the commit
            # installs, so it is dropped there.
            return {"unsynced": accel.take_owed(msg.src, item)}

        return locker()

    def handle_to_regular(self, msg):
        accel = self.accel
        rec = accel.obs.recorder
        item = msg.payload["item"]
        if rec.enabled:
            span = rec.open_span("cls.apply", accel.site, accel.now,
                                 ("item", "to"), (item, "regular"))
        accel.av_table.define(item, msg.payload["share"])
        accel.unfreeze(item)
        accel.locks.release(item, msg.payload["token"])
        if rec.enabled:
            rec.close_span(span, accel.now)
        return {"done": True}

    def handle_to_nonregular(self, msg):
        accel = self.accel
        rec = accel.obs.recorder
        item = msg.payload["item"]
        if rec.enabled:
            span = rec.open_span("cls.apply", accel.site, accel.now,
                                 ("item", "to"), (item, "nonregular"))
        if accel.av_table.defined(item):
            accel.av_table.undefine(item)
        accel.clear_owed_item(item)  # superseded by the installed value
        accel.store.set_value(item, msg.payload["value"])
        accel.unfreeze(item)
        accel.locks.release(item, msg.payload["token"])
        if rec.enabled:
            rec.close_span(span, accel.now)
        return {"done": True}
