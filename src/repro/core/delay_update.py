"""Delay Update: AV-gated autonomous local updates (paper §3.3, Figs. 3-4).

The protocol, exactly as the paper describes it:

1. The accelerator receives an update request whose item *has* an AV entry
   (the checking function already routed it here).
2. A stock **increase** mints new allowable volume: apply locally, add the
   delta to the local AV. Zero messages.
3. A stock **decrease** needs AV cover:

   * local AV sufficient → take it, apply locally. Zero messages.
   * otherwise → *hold all the AV at the site* and request peers for the
     shortage. The selecting strategy picks the target (believed-richest
     per the paper); the deciding policy sets the request amount (the
     shortage) and, at the grantor, the granted amount (half of holdings,
     per the SODA'99 reference). Replies piggyback the grantor's remaining
     AV, refreshing the requester's beliefs. The requester re-requests
     until it has enough, then applies; leftover AV goes back to the local
     table. If every reachable peer is dry, all accumulated AV is returned
     and the update is **rejected** (cannot ship).

Rollback needs no exclusive AV lock: an aborted update compensates with
the opposite delta, so concurrent updates may spend AV freely in between
(paper: "extra AV can be used by other process while one process accesses
the same data").
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.core.types import (
    TAG_AV,
    TAG_PROPAGATE,
    UpdateKind,
    UpdateOutcome,
    UpdateRequest,
    UpdateResult,
    _new_tuple,
)
from repro.net.endpoint import RequestTimeout
from repro.obs.spans import (
    NULL_ROW,
    PAIR_ROUND,
    TREE_APPLIED,
    TREE_APPLYING,
    TREE_CHECKED,
    TREE_PUSHING,
    update_trace,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accelerator import Accelerator

#: the outcome a covered update's tree records (``Enum.value`` is a
#: Python-level property, too slow to read once per update)
_COMMITTED = UpdateOutcome.COMMITTED.value


class DelayUpdateProtocol:
    """Executes Delay Updates and serves AV-transfer requests for one site.

    Parameters
    ----------
    accel:
        The owning accelerator (provides endpoint, tables, strategy,
        policy, transactions, configuration).
    """

    def __init__(self, accel: "Accelerator") -> None:
        self.accel = accel
        accel.endpoint.on("av.request", self.handle_av_request)
        accel.endpoint.on("av.pool.request", self.handle_pool_request)
        accel.endpoint.on("av.pool.refill", self.handle_pool_refill)
        accel.endpoint.on("av.push", self.handle_av_push)
        if accel.reliable is not None:
            # Behind the session, propagation deltas dedup on (src, seq)
            # and the reply acks the retransmitting sender.
            accel.reliable.on("prop.push", self.handle_propagation)
        else:
            accel.endpoint.on("prop.push", self.handle_propagation)
        #: grants served, volume granted (diagnostics)
        self.grants_served = 0
        self.volume_granted = 0.0
        #: items with an upward ``av.pool.refill`` on the wire — a
        #: second pool request for the same item must not trigger a
        #: concurrent (duplicate) refill
        self._refill_inflight: set[str] = set()
        obs = accel.obs
        self._on_mint = obs.tap("av.mint")
        self._on_spend = obs.tap("av.spend")
        self._on_select = obs.tap("av.select")
        self._on_refill = obs.tap("av.refill")

    # ---------------------------------------------------------------- #
    # requester side
    # ---------------------------------------------------------------- #

    def execute(self, req: UpdateRequest, span=None):
        """Generator driving one Delay Update to completion.

        Wraps the protocol body with the freeze gate (reclassification
        stops new updates) and in-flight accounting (so `quiesce` can
        wait for the protocol to drain). ``span`` is the row of the
        update's root span (:data:`~repro.obs.spans.NULL_ROW` when
        unobserved); protocol phases open children of it.
        """
        accel = self.accel
        # Wait while the item is frozen (re-check: it may re-freeze).
        while True:
            gate = accel.frozen_gate(req.item)
            if gate is None:
                break
            yield gate
        if not accel.av_table.defined(req.item):
            # Reclassified to non-regular while we waited at the gate.
            result = yield from accel.immediate.execute(req, span=span)
            return result
        accel._delay_begin(req.item)
        try:
            result = yield from self._execute(req, span)
        finally:
            accel._delay_end(req.item)
        return result

    def local(self, req: UpdateRequest, parent=None, tree: bool = False):
        """The zero-communication update: mint AV for an increase or
        spend local AV that covers a decrease, then apply and propagate.
        Never suspends. Returns ``None``, having changed nothing, when
        local AV falls short of the decrease. ``parent`` is the update's
        root span's row (``None`` when unobserved, or with ``tree``).

        With ``tree``, the steps record nothing: the update's whole span
        tree is written as one record at the end
        (:meth:`~repro.obs.spans.SpanRecorder.write_tree`), taking its
        ids then, or, under eager propagation, reserving them before the
        push, whose span the receivers' spans hang off. If a step raises,
        the tree breaks into the rows it had reached
        (:meth:`~repro.obs.spans.SpanRecorder.break_tree`)."""
        accel = self.accel
        item, delta = req.item, req.delta
        step = TREE_CHECKED
        base = 0
        push = None
        try:
            if delta >= 0:
                # Increase: new stock is new headroom — mint AV locally.
                step = TREE_APPLYING
                self._apply(item, delta, parent)
                step = TREE_APPLIED
                # Mint raises the conserved headroom; announce it before
                # the table grows so the conservation sum never
                # transiently exceeds the bound.
                if self._on_mint:
                    now = accel.env._now
                    for fn in self._on_mint:
                        fn(now, accel.site, item, delta)
                accel.av_table.add(item, delta)
            elif accel.av_table.take_if_covered(item, -delta):
                # The paper's headline path: complete within the local
                # site. The fused probe spends the AV in one dict lookup.
                # Spend shrinks headroom; announce after the take so the
                # sum only dips in between.
                if self._on_spend:
                    now = accel.env._now
                    for fn in self._on_spend:
                        fn(now, accel.site, item, -delta)
                step = TREE_APPLYING
                self._apply(item, delta, parent)
                step = TREE_APPLIED
            else:
                return None
            if tree and delta and accel.propagate:
                step = TREE_PUSHING
                base = accel.obs.recorder.open_tree(True)
                push = (update_trace(req.site, req.request_id), base + 3, base)
            pushed = self._propagate(item, delta, parent, push)
        except BaseException:
            if tree:
                # Write the rows the tree reached, and its root open.
                rec = accel.obs.recorder
                now = accel.env._now
                trace = update_trace(req.site, req.request_id)
                root = (trace, rec.break_tree(base, step, trace, accel.site,
                                              now, item, delta), None)
                rec.keep_open(root, "update", accel.site, now,
                              ("item", "delta"), (item, delta))
            raise
        result = self._done(req, UpdateOutcome.COMMITTED, local=True)
        if tree:
            accel.obs.recorder.write_tree(
                base, accel.site, req.request_id, accel.env._now, item, delta,
                _COMMITTED, None if push is None else pushed,
            )
        return result

    def _execute(self, req: UpdateRequest, span=None):
        """The protocol body (see class docs)."""
        result = self.local(req, span)
        if result is not None:
            return result
        accel = self.accel
        rec = accel.obs.recorder
        item, delta = req.item, req.delta
        av = accel.av_table
        need = -delta

        if not accel.allow_transfers:
            # Static-escrow ablation: the allocation is fixed at
            # bootstrap, so an uncovered decrement is simply rejected.
            return self._done(req, UpdateOutcome.REJECTED)

        # Local AV insufficient: hold everything we have and go shopping.
        hold_ctx = span[:2] if span is not None and span[1] else None
        hold = av.hold(item, ctx=hold_ctx)
        hold.add(av.take_all(item))

        tried: set[str] = set()
        av_requests = 0
        obtained = 0.0
        rounds = 0
        progress = False

        # Unobserved, the round trip makes no recorder call at all.
        observed = rec.enabled
        env = accel.env
        while hold.amount < need:
            now = env._now  # fixed until the request below suspends us
            # Nothing in the selecting function opens a span, so its
            # span takes its id once it has chosen: with the request, as
            # one pair, or alone when nobody is left to ask.
            try:
                target, use_pool = self._select(item, tried)
            except BaseException:
                if observed:
                    rec.keep_open(rec.open_row(span), "av.selecting",
                                  accel.site, now)
                raise
            if target is None:
                if observed:
                    rec.write_no_target(span, accel.site, now)
                # Everyone asked once this round. Retry only if somebody
                # granted something (otherwise the system is dry).
                if progress and rounds < accel.max_rounds:
                    rounds += 1
                    tried.clear()
                    progress = False
                    continue
                hold.release()
                return self._done(
                    req,
                    UpdateOutcome.REJECTED,
                    av_requests=av_requests,
                    av_obtained=obtained,
                )

            tried.add(target)
            shortage = need - hold.amount
            ask = accel.policy.request_amount(shortage)
            av_requests += 1
            payload = {
                "item": item,
                "amount": ask,
                # piggyback our level so the grantor's beliefs stay fresh
                "requester_av": hold.amount,
            }
            select = request = NULL_ROW
            if observed:
                select, request = rec.open_pair(
                    PAIR_ROUND, accel.site, now, (target, ask), parent=span
                )
                # Cross-site span context: the grantor parents its
                # av.grant span under this round-trip span.
                payload["_obs"] = {"trace": request[0], "span": request[1]}
            if self._on_select:
                # The happens-before checker correlates this decision
                # with the grants that shaped (or should have shaped)
                # the belief it acted on.
                believed = accel.beliefs.believed_volume(target, item)
                for fn in self._on_select:
                    fn(now, accel.site, item, target, believed,
                       select[0], select[1])
            try:
                if use_pool:
                    reply = yield accel.endpoint.request(
                        target,
                        "av.pool.request",
                        payload,
                        tag=TAG_AV,
                        timeout=accel.request_timeout,
                    )
                else:
                    reply = yield accel.endpoint.request(
                        target,
                        "av.request",
                        payload,
                        tag=TAG_AV,
                        timeout=accel.request_timeout,
                    )
            except RequestTimeout:
                if observed:
                    rec.close_span(request, accel.now, ("timeout",), (True,))
                continue
            except BaseException:
                # Typically the crash's Interrupt: we died mid-gathering.
                # Return the held volume to the table so no AV leaks —
                # the site's state must be exact when it restarts.
                if observed:
                    rec.close_span(request, accel.now, ("error",), (True,))
                hold.release()
                raise

            now = env._now
            granted = reply["granted"]
            if observed:
                rec.close_span(request, now, ("granted",), (granted,))
            lease_id = reply.get("lease")
            if lease_id is not None and accel.leases is not None:
                # Record the receipt and ack the grantor's lease; a
                # duplicate delivery must not double-apply the volume.
                if not accel.leases.receive(target, lease_id):
                    granted = 0
            accel.beliefs.observe(target, item, reply["av_after"], now)
            if granted > 0:
                progress = True
                obtained += granted
                hold.add(granted)

        hold.consume(need)
        self._apply(item, delta, span)
        self._propagate(item, delta, span)
        return self._done(
            req,
            UpdateOutcome.COMMITTED,
            av_requests=av_requests,
            av_obtained=obtained,
        )

    def _select(self, item: str, tried: set):
        """The selecting function: ``(target, use_pool)`` for the next
        ask, ``target`` ``None`` once every candidate was tried."""
        accel = self.accel
        candidates = accel.live_peers_for(item)
        if accel.overload is not None:
            # Steer the ask away from peers that broadcast DEGRADED
            # (unless they are all we have left).
            candidates = accel.overload.filter_peers(candidates)
        # Hierarchical topologies ask the regional aggregator's pool
        # first — it exists to absorb its subtree's demand. Only after
        # the pool has been tried does the believed-richest strategy
        # shop the rest of the interest set.
        pool = accel.pool_parent
        if pool is not None and pool not in tried and pool in candidates:
            return pool, True
        target = accel.strategy.select(item, candidates, tried, accel.beliefs)
        return target, False

    # ---------------------------------------------------------------- #
    # grantor side
    # ---------------------------------------------------------------- #

    def handle_av_request(self, msg, pool: bool = False):
        """Serve an AV transfer: grant per policy, piggyback our level.

        The registered ``av.request`` handler, and the grantor body the
        pool handlers share (``pool=True``). Peer grants follow the
        deciding policy (SODA'99 half-split: the grantor keeps working
        capital). A *pool* grant fills the request outright — an
        aggregator's table exists to absorb its subtree's demand, and
        haggling would only add round trips.
        """
        accel = self.accel
        rec = accel.obs.recorder
        site = accel.site
        payload = msg.payload
        item = payload["item"]
        requested = payload["amount"]
        now = accel.env._now
        # Nothing here waits or opens a span, so the spans take their
        # ids when they are written: av.grant and av.deciding as one
        # pair, or as the rows and open handles a raise leaves. The
        # grant hangs off the requester's round-trip span when the
        # request carries its context (parent id, trace id).
        ctx = payload.get("_obs")
        link = (ctx["span"], ctx["trace"]) if ctx else ()
        available = granted = None
        try:
            accel.beliefs.observe(
                msg.src, item, payload.get("requester_av", 0.0), now
            )
            available = accel.av_table.level(item)
            if available is None:
                if rec.enabled:
                    rec.write_row(
                        rec.open_row(*link), "av.grant", site, now, now,
                        ("item", "requester", "granted", "undefined"),
                        (item, msg.src, 0.0, True),
                    )
                return {"granted": 0.0, "av_after": 0.0}
            # The deciding function at the grantor: how much to grant.
            if pool:
                granted = min(available, requested)
            else:
                granted = accel.policy.grant_amount(available, requested)
                if accel.overload is not None:
                    # Under strain, widen the grant past the half-split:
                    # one round trip settles what repeat asks would.
                    widened = accel.overload.widened_grant(available, requested)
                    if widened is not None:
                        granted = widened
            after = available
            if granted > 0:
                if accel.inject != "av-double-grant":
                    # Planted bug (test-only, see SystemConfig.inject):
                    # the broken variant ships the grant *without*
                    # deducting it, so the same volume exists at both
                    # sites — the exact double-count the AV-conservation
                    # oracle must catch.
                    accel.av_table.take(item, granted)
                    after = available - granted  # what take() stored
                self.grants_served += 1
                self.volume_granted += granted
        except BaseException:
            if rec.enabled:
                # What the grant's handle left: itself open, and its
                # deciding open if the deciding function raised.
                grant = rec.open_row(*link)
                if available is not None:
                    decide = rec.open_row(grant)
                    if granted is None:
                        rec.keep_open(decide, "av.deciding", site, now,
                                      ("available", "requested"),
                                      (available, requested))
                    else:
                        rec.write_row(
                            decide, "av.deciding", site, now, now,
                            ("available", "requested", "granted"),
                            (available, requested, granted),
                        )
                rec.keep_open(grant, "av.grant", site, now,
                              ("item", "requester"), (item, msg.src))
            raise
        if rec.enabled:
            rec.write_pair(
                site, now,
                (item, msg.src, granted, after, available, requested), *link,
            )
        reply = {"granted": granted, "av_after": after}
        if granted > 0 and accel.leases is not None:
            # Hold the granted volume under a lease until the requester
            # acks; a lost or discarded reply reverts it to our table.
            reply["lease"] = accel.leases.grant(item, granted, msg.src).lease_id
        return reply

    # Spans for the grant are recorded in handle_av_request.
    def handle_pool_refill(self, msg):  # repro-lint: disable=span-coverage
        """Serve a downstream aggregator's top-up from our own table.

        Deliberately *not* recursive: a refill never triggers another
        refill, so an ask chain is bounded by the tree depth (the leaf's
        strategy fallback covers a dry chain).
        """
        return self.handle_av_request(msg, pool=True)

    # Spans for the grant are recorded in handle_av_request.
    def handle_pool_request(self, msg):  # repro-lint: disable=span-coverage
        """Aggregator side of hierarchical AV: serve a leaf from the
        regional pool, refilling from our supply parent first when dry.

        Generator handler — the reply is deferred until the (timeout-
        guarded) upward refill resolves, so the leaf sees one round trip
        whether or not the pool had cover on hand.
        """
        accel = self.accel
        item = msg.payload["item"]
        requested = msg.payload["amount"]
        parent = accel.interest.parent
        available = (
            accel.av_table.get(item)
            if accel.av_table.defined(item) else 0.0
        )
        if (
            parent is not None
            and available < requested
            and accel.av_table.defined(item)
            and item not in self._refill_inflight
        ):
            # Top up: the leaf's shortage plus one request's worth of
            # buffer, so the next ask for a hot item stays regional.
            ask = (requested - available) + requested
            self._refill_inflight.add(item)
            payload = {
                "item": item,
                "amount": ask,
                "requester_av": available,
            }
            try:
                reply = yield accel.endpoint.request(
                    parent,
                    "av.pool.refill",
                    payload,
                    tag=TAG_AV,
                    timeout=accel.request_timeout,
                )
            except RequestTimeout:
                reply = None
            finally:
                self._refill_inflight.discard(item)
            if reply is not None:
                granted = reply["granted"]
                lease_id = reply.get("lease")
                if lease_id is not None and accel.leases is not None:
                    if not accel.leases.receive(parent, lease_id):
                        granted = 0
                accel.beliefs.observe(
                    parent, item, reply["av_after"], accel.now
                )
                if granted > 0:
                    if self._on_refill:
                        now = accel.now
                        for fn in self._on_refill:
                            fn(now, accel.site, item, granted)
                    accel.av_table.add(item, granted)
        return self.handle_av_request(msg, pool=True)

    def handle_av_push(self, msg):
        """Accept unsolicited AV (from a proactive rebalancer, see
        :mod:`repro.core.rebalancer`); bounce it if we no longer manage
        the item, and drop an already-bounced push (conservative: losing
        headroom can never over-spend stock). A *leased* push replaces
        the bounce dance: refusing to ack makes the sender's lease
        revert, and a duplicate delivery is acked but not re-applied."""
        accel = self.accel
        rec = accel.obs.recorder
        if not rec.enabled:
            self._take_push(msg)
            return
        push_span = rec.open_span(
            "av.push.apply", accel.site, accel.now,
            ("item", "amount", "sender"),
            (msg.payload["item"], msg.payload["amount"], msg.src),
        )
        rec.close_span(push_span, accel.now, (self._take_push(msg),), (True,))

    def _take_push(self, msg) -> str:
        """:meth:`handle_av_push`'s body; returns what became of the
        push: ``refused``, ``dropped``, ``bounced``, ``duplicate`` or
        ``accepted``."""
        accel = self.accel
        item = msg.payload["item"]
        amount = msg.payload["amount"]
        lease_id = msg.payload.get("lease")
        if not accel.av_table.defined(item):
            if lease_id is not None:
                # No receipt, no ack: the sender's lease reverts the
                # volume — strictly better than bouncing it back.
                return "refused"
            if msg.payload.get("bounced"):
                return "dropped"
            accel.endpoint.send(
                msg.src,
                "av.push",
                {"item": item, "amount": amount, "sender_av": 0.0, "bounced": True},
                tag=msg.tag,
            )
            return "bounced"
        if lease_id is not None and accel.leases is not None:
            if not accel.leases.receive(msg.src, lease_id):
                return "duplicate"
        accel.av_table.add(item, amount)
        accel.beliefs.observe(
            msg.src, item, msg.payload.get("sender_av", 0.0), accel.now
        )
        return "accepted"

    # ---------------------------------------------------------------- #
    # lazy propagation
    # ---------------------------------------------------------------- #

    def handle_propagation(self, msg):
        """Apply a peer's committed delta to our replica."""
        accel = self.accel
        rec = accel.obs.recorder
        item, delta = msg.payload["item"], msg.payload["delta"]
        if not rec.enabled:
            # force: replicas may transiently dip negative (module docs).
            accel.store.apply_delta(item, delta, force=True)
            return
        ctx = msg.payload.get("_obs")
        row = rec.open_row(ctx["span"], ctx["trace"]) if ctx else rec.open_row()
        now = accel.now
        try:
            accel.store.apply_delta(item, delta, force=True)
        except BaseException:
            rec.keep_open(row, "prop.apply", accel.site, now,
                          ("item", "delta", "src"), (item, delta, msg.src))
            raise
        rec.write_row(row, "prop.apply", accel.site, now, now,
                      ("item", "delta", "src"), (item, delta, msg.src))

    def _propagate(self, item: str, delta: float, parent=None, push=None) -> int:
        """Record or push a committed delta for replica convergence;
        returns how many eager pushes went out.

        Eager mode (``accel.propagate``) pushes to every peer at once —
        the paper's "propagated ... at the earliest". Lazy mode
        accumulates the delta for batched sync (one message per peer per
        batch, sent by :meth:`Accelerator.sync_item`). Either way the
        traffic is tagged ``prop`` because Fig. 6 counts only the
        correspondences needed to *complete* updates. ``push`` is the
        push's span when a span tree reserved it: the caller writes it.
        """
        accel = self.accel
        if delta == 0:
            return 0
        if not accel.propagate:
            accel.record_unsynced(item, delta)
            return 0
        if push is not None:
            return self._push(item, delta, push)
        rec = accel.obs.recorder
        now = accel.now
        row = rec.open_row(parent) if rec.enabled else None
        try:
            pushed = self._push(item, delta, row)
        except BaseException:  # a send from a dead site leaves it open
            if row is not None:
                rec.keep_open(row, "prop.push", accel.site, now,
                              ("item",), (item,))
            raise
        if row is not None:
            rec.write_row(row, "prop.push", accel.site, now, now,
                          ("item", "peers"), (item, pushed))
        return pushed

    def _push(self, item: str, delta: float, row) -> int:
        """Send one eager ``prop.push`` per live replica; returns how
        many went out. ``row`` is the push's span (``None`` unobserved).
        """
        accel = self.accel
        pushed = 0
        live = set(accel.live_peers())
        for peer in sorted(accel.replica_peers(item)):
            payload = {"item": item, "delta": delta}
            if row is not None:
                # Receivers parent their prop.apply span under this push
                # (and the sanitizer names it if the delta is lost).
                payload["_obs"] = {"trace": row[0], "span": row[1]}
            if accel.reliable is not None:
                if peer not in live:
                    # Unreachable now: keep the delta owed; the rejoin
                    # flush (or a later sync pass) delivers it.
                    accel.retain_owed(peer, item, delta)
                    continue
                proc = accel.reliable.deliver(
                    peer, "prop.push", payload, tag=TAG_PROPAGATE
                )
                proc.callbacks.append(
                    lambda ev, peer=peer, item=item, delta=delta:
                        self._settle_eager(peer, item, delta, ev)
                )
                pushed += 1
                continue
            if peer not in live:
                continue
            accel.endpoint.send(peer, "prop.push", payload, tag=TAG_PROPAGATE)
            pushed += 1
        return pushed

    def _settle_eager(self, peer: str, item: str, delta: float, event) -> None:
        """An eager reliable push resolved; keep undelivered deltas owed."""
        if event.ok and event.value is True:
            return
        self.accel.retain_owed(peer, item, delta)

    # ---------------------------------------------------------------- #
    # helpers
    # ---------------------------------------------------------------- #

    def _apply(self, item: str, delta: float, parent=None) -> None:
        """Apply a committed delta in its own (single-delta) transaction,
        recorded as a ``delay.apply`` row under ``parent`` (it never
        waits, so it ends when it starts). No ``parent``, no row: the
        run is unobserved, or a span tree records the apply."""
        accel = self.accel
        rec = accel.obs.recorder
        if parent is None or not rec.enabled:
            accel.txns.apply_atomic(item, delta, force=True)
            return
        row = rec.open_row(parent)
        now = accel.now
        try:
            accel.txns.apply_atomic(item, delta, force=True)
        except BaseException:
            rec.keep_open(row, "delay.apply", accel.site, now,
                          ("item", "delta"), (item, delta))
            raise
        rec.write_row(row, "delay.apply", accel.site, now, now,
                      ("item", "delta"), (item, delta))

    def _done(
        self,
        req: UpdateRequest,
        outcome: UpdateOutcome,
        local: bool = False,
        av_requests: int = 0,
        av_obtained: float = 0.0,
    ) -> UpdateResult:
        # UpdateResult(...) in field order, without its __new__ frame
        return _new_tuple(UpdateResult, (
            req, UpdateKind.DELAY, outcome, local, self.accel.env._now,
            av_requests, av_obtained, 0.0,
        ))
