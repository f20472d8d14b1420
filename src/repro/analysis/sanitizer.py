"""The runtime protocol sanitizer.

Opt-in (``SystemConfig.sanitize=True`` or ``python -m repro check``): a
:class:`ProtocolSanitizer` subscribes one method to each kind of a built
system's event taps (:data:`~repro.obs.hub.EVENT_KINDS`): the AV tables'
``av.*``, the lock managers' ``lock.*``, the network's ``msg.*`` and the
protocols' policy events. It audits every event against the paper's
invariants (see :mod:`repro.analysis.invariants` and
:mod:`repro.analysis.hb`).  No protocol code changes behaviour when the
sanitizer is absent; each emit site costs one subscriber-list check.

Severity policy
---------------
Volume that vanishes *conservatively* (a grant or rebalancer push
dropped in transit: headroom shrinks, nothing can over-spend) is a
warning.  A dropped ``prop.push`` is a **violation**: the owed balance
was already claimed by the sender, so the delta can never reach the
replica again — permanent divergence.  Stale-belief findings are
warnings: the paper's design tolerates them (the gather loop retries),
but the counts are reported so a regression in belief freshness is
visible.

With the robustness layer on, both downgrade to counted non-events: a
dropped *leased* transfer reverts at the grantor (``av.lease.*``
lifecycle audited by :class:`~repro.analysis.invariants.LeaseAudit`),
and a dropped reliable-session delivery (``_rel`` envelope) is
retransmitted while the owed balance stays retained.  The chaos harness
asserts the conservative-loss warnings never fire under it.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from repro.analysis.hb import CausalOrder
from repro.analysis.invariants import (
    HEADROOM,
    HOLDS,
    IN_FLIGHT,
    TABLES,
    AVConservation,
    HoldRegistry,
    LeaseAudit,
    LockAudit,
    OverloadAudit,
    SanitizerReport,
    Violation,
)
from repro.obs.hub import EVENT_KINDS


#: the conservation tolerance (AVConservation.EPS), for the inline folds
EPS = AVConservation.EPS

#: message kinds whose reply carries granted AV (the hierarchical pool
#: kinds move AV exactly like a peer grant, so the same request/reply
#: transit accounting covers every level)
_AV_REQUESTS = frozenset(("av.request", "av.pool.request", "av.pool.refill"))
_AV_GRANTS = frozenset((
    "av.request.reply", "av.pool.request.reply", "av.pool.refill.reply",
))


class ProtocolSanitizer:
    """Attaches to a :class:`~repro.cluster.system.DistributedSystem`.

    One fold per event kind, named after it (``av.hold.add`` is folded
    by ``_av_hold_add``), takes the kind's fields positionally. Each
    counts the event in :attr:`events` and audits it in place. The folds
    of the hottest kinds — the six conservation folds (``av.take``,
    ``av.add``, ``av.spend``, ``av.mint``, ``av.hold.add``,
    ``av.hold.release``, each an inline
    :meth:`~repro.analysis.invariants.AVConservation.fold`) and the
    three ``msg.*`` folds — are closures (see :meth:`_bind_folds`); the
    rest are methods.
    """

    EPS = 1e-6

    def __init__(self, max_hb_samples: int = 10) -> None:
        self.report = SanitizerReport()
        self.conservation = AVConservation(self.report)
        self.holds = HoldRegistry(self.report)
        self.locks = LockAudit(self.report)
        self.leases = LeaseAudit(self.report)
        self.overload = OverloadAudit(self.report)
        self.causal = CausalOrder(max_samples=max_hb_samples)
        # the vector clocks the msg.* folds keep up
        self._clocks = self.causal.clocks
        self._msg_clocks = self.causal.msg_clocks
        #: drops of leased transfers (reverted, not lost) and of
        #: reliable-session messages (retransmitted) — counted non-events
        self.lease_covered_drops = 0
        self.rel_covered_drops = 0
        #: events folded by the methods (the closures count their own)
        self._events = 0
        self.system = None
        #: defined sites per item (tracks full undefinition epochs)
        self._defined: Dict[str, set] = {}
        #: av.request msg_id -> item (to classify the reply)
        self._av_requests: Dict[int, str] = {}
        #: in-flight grant replies: msg_id -> (item, granted)
        self._grants: Dict[int, Tuple[str, float]] = {}
        #: in-flight av.push volume: msg_id -> (item, amount)
        self._pushes: Dict[int, Tuple[str, float]] = {}
        #: in-flight propagation deltas: msg_id -> (item, delta, dst, ctx)
        self._props: Dict[int, tuple] = {}
        self._finished = False
        self._bind_folds()

    @property
    def events(self) -> int:
        """Events folded so far, of every kind."""
        return self._events + self._counted()[0]

    # ------------------------------------------------------------- #
    # wiring
    # ------------------------------------------------------------- #

    def attach(self, system) -> "ProtocolSanitizer":
        """Subscribe to the system's event taps and fold in the
        bootstrap state."""
        self.system = system
        for name in sorted(system.sites):
            table = system.sites[name].accelerator.av_table
            for item, volume in sorted(table.items()):
                self.conservation.baseline(item, volume)
                self._defined.setdefault(item, set()).add(name)
        self.listen(system.obs)
        return self

    def listen(self, obs) -> None:
        """Subscribe one fold to every declared event kind."""
        for kind in EVENT_KINDS:
            obs.subscribe(kind, getattr(self, "_" + kind.replace(".", "_")))

    # ------------------------------------------------------------- #
    # AV table and holds (av.define/undefine/add/take, av.hold.*)
    # ------------------------------------------------------------- #

    def _av_define(self, now: float, site: str, item: str, amount: float) -> None:
        self._events += 1
        # New headroom first, then the table entry: the sum never
        # transiently exceeds the bound.
        self.conservation.fold(item, HEADROOM, amount, site, now)
        self.conservation.fold(item, TABLES, amount, site, now)
        self._defined.setdefault(item, set()).add(site)

    def _av_undefine(self, now: float, site: str, item: str, amount: float) -> None:
        self._events += 1
        self.conservation.fold(item, TABLES, -amount, site, now)
        self.conservation.fold(item, HEADROOM, -amount, site, now)
        defined = self._defined.get(item)
        if defined is not None:
            defined.discard(site)
            if not defined:
                self._end_epoch(item, now)

    def _av_hold_open(self, now: float, site: str, item: str, amount: float,
                      hold) -> None:
        self._events += 1
        self.holds.on_open(site, hold, now)

    def _av_hold_consume(self, now: float, site: str, item: str, amount: float,
                         hold) -> None:
        self._events += 1
        # The full held volume leaves the holds account and the needed
        # part leaves headroom; the excess re-enters the table via a
        # separate av.add right after.
        self.conservation.fold(item, HOLDS, -hold.amount, site, now)
        self.conservation.fold(item, HEADROOM, -amount, site, now)
        self.holds.on_close(site, hold, now)

    def _av_hold_reclose(self, now: float, site: str, item: str, amount: float,
                         hold) -> None:
        self._events += 1
        self.holds.on_reclose(site, hold, now)

    def _end_epoch(self, item: str, now: float) -> None:
        """No site defines ``item`` any more: close its AV epoch.

        Residual headroom (volume conservatively lost in transit during
        the epoch) must not leak into a future re-definition of the
        item, so the accounts reset to zero.  A *negative* residual
        would mean more AV existed than headroom — report it.
        """
        acct = self.conservation.accounts[item]
        residual = acct[HEADROOM]
        if residual < -self.EPS:
            self.report.violations.append(Violation(
                rule="av.conservation",
                item=item,
                time=now,
                detail=f"negative residual headroom {residual:g} at undefinition",
            ))
        acct[HEADROOM] = 0.0
        acct[TABLES] = 0.0

    # ------------------------------------------------------------- #
    # protocol policy (av.mint/spend/refill/select, av.lease.*, ovl.*)
    # ------------------------------------------------------------- #

    def _av_refill(self, now: float, site: str, item: str, amount: float) -> None:
        # Counted only: the refilled volume enters the table through
        # the av.add that follows.
        self._events += 1

    def _av_select(self, now: float, site: str, item: str, target: str,
                   believed: Optional[float], trace: Optional[str],
                   span: Optional[int]) -> None:
        self._events += 1
        self.causal.on_select(
            site, item, target, believed, now, trace=trace, span=span,
        )

    def _av_lease_open(self, now: float, site: str, item: str, amount: float,
                       holder: str, lease: int) -> None:
        self._events += 1
        self.leases.on_open(site, lease, item, amount, holder, now)

    def _av_lease_discharge(self, now: float, site: str, item: str,
                            amount: float, holder: str, lease: int) -> None:
        self._events += 1
        self.leases.on_resolve(site, lease, "discharge", now)

    def _av_lease_revert(self, now: float, site: str, item: str, amount: float,
                         holder: str, lease: int) -> None:
        self._events += 1
        self.leases.on_resolve(site, lease, "revert", now)

    def _av_lease_conflict(self, now: float, site: str, holder: str,
                           lease: int) -> None:
        self._events += 1
        self.leases.on_conflict(site, holder, lease, now)

    def _ovl_shed(self, now: float, site: str, retry_after: float) -> None:
        self._events += 1
        self.overload.on_shed(site, retry_after, now)

    def _ovl_transition(self, now: float, site: str, src: str, dst: str) -> None:
        self._events += 1
        self.overload.on_transition(site, src, dst, now)

    def _ovl_demote(self, now: float, site: str, item: str) -> None:
        self._events += 1
        self.overload.on_demote(site, item, now)

    def _ovl_promote(self, now: float, site: str, item: str) -> None:
        self._events += 1
        self.overload.on_promote(site, item, now)

    def _ovl_trip(self, now: float, site: str) -> None:
        self._events += 1
        self.overload.on_trip(site, now)

    # ------------------------------------------------------------- #
    # locks (lock.*)
    # ------------------------------------------------------------- #

    def _lock_grant(self, now, site, item, owner, mode, span_id, holders,
                    queue) -> None:
        self._events += 1
        self.locks.on_event(site, "grant", item, owner, span_id, holders,
                            queue, now)

    def _lock_wait(self, now, site, item, owner, mode, span_id, holders,
                   queue) -> None:
        self._events += 1
        self.locks.on_event(site, "wait", item, owner, span_id, holders,
                            queue, now)

    def _lock_release(self, now, site, item, owner, mode, span_id, holders,
                      queue) -> None:
        self._events += 1
        self.locks.on_event(site, "release", item, owner, span_id, holders,
                            queue, now)

    # ------------------------------------------------------------- #
    # the hot folds: the six conservation folds and msg.* (vector
    # clocks, see CausalOrder, then AV and propagation deltas in transit)
    # ------------------------------------------------------------- #

    def _bind_folds(self) -> None:
        """Bind the folds of the hottest kinds as closures over what
        they touch — the conservation accounts, the vector clocks, the
        in-flight tables — so an event reaches its account and its
        counter through cells, not attributes. Three cells count: every
        conservation fold (one event and one check), every ``msg.*``
        event, and every in-flight check; :attr:`events` and
        ``conservation.checks`` add them in (:meth:`_counted`).

        Each conservation fold unpacks the item's account in its order
        (``TABLES`` … ``HEADROOM``), moves one, stores it back and checks
        ``tables + holds + in_flight <= headroom``, summed in that order,
        as :meth:`AVConservation.fold` does."""
        cons = self.conservation
        accounts, exceeded = cons.accounts, cons.exceeded
        on_close = self.holds.on_close
        on_grant = self.causal.on_grant
        clocks, msg_clocks = self._clocks, self._msg_clocks
        av_requests, grants = self._av_requests, self._grants
        pushes, props = self._pushes, self._props
        folds = msgs = transits = 0

        def _av_add(now, site, item, amount):
            nonlocal folds
            folds += 1
            acct = accounts[item]
            tables, holds, in_flight, headroom = acct
            acct[TABLES] = tables = tables + amount
            if tables + holds + in_flight > headroom + EPS:
                exceeded(item, site, now)

        def _av_take(now, site, item, amount):
            nonlocal folds
            folds += 1
            acct = accounts[item]
            tables, holds, in_flight, headroom = acct
            acct[TABLES] = tables = tables - amount
            if tables + holds + in_flight > headroom + EPS:
                exceeded(item, site, now)

        def _av_hold_add(now, site, item, amount, hold):
            nonlocal folds
            folds += 1
            acct = accounts[item]
            tables, holds, in_flight, headroom = acct
            acct[HOLDS] = holds = holds + amount
            if tables + holds + in_flight > headroom + EPS:
                exceeded(item, site, now)

        def _av_hold_release(now, site, item, amount, hold):
            nonlocal folds
            folds += 1
            acct = accounts[item]
            tables, holds, in_flight, headroom = acct
            acct[HOLDS] = holds = holds - amount
            if tables + holds + in_flight > headroom + EPS:
                exceeded(item, site, now)
            on_close(site, hold, now)

        def _av_mint(now, site, item, amount):
            nonlocal folds
            folds += 1
            acct = accounts[item]
            tables, holds, in_flight, headroom = acct
            acct[HEADROOM] = headroom = headroom + amount
            if tables + holds + in_flight > headroom + EPS:
                exceeded(item, site, now)

        def _av_spend(now, site, item, amount):
            nonlocal folds
            folds += 1
            acct = accounts[item]
            tables, holds, in_flight, headroom = acct
            acct[HEADROOM] = headroom = headroom - amount
            if tables + holds + in_flight > headroom + EPS:
                exceeded(item, site, now)

        def in_transit(item, amount, now):
            """Fold ``amount`` into ``item``'s in-flight account."""
            nonlocal transits
            transits += 1
            acct = accounts[item]
            tables, holds, in_flight, headroom = acct
            acct[IN_FLIGHT] = in_flight = in_flight + amount
            if tables + holds + in_flight > headroom + EPS:
                exceeded(item, None, now)

        def _msg_send(now, site, msg):
            nonlocal msgs
            msgs += 1
            # The sender ticks; the message carries a copy of its clock.
            src, msg_id = msg.src, msg.msg_id
            clock = clocks.get(src)
            if clock is None:
                clock = clocks[src] = {}
            clock[src] = clock.get(src, 0) + 1
            msg_clocks[msg_id] = clock.copy()

            kind = msg.kind
            if kind in _AV_REQUESTS:
                av_requests[msg_id] = msg.payload["item"]
            elif kind in _AV_GRANTS:
                item = av_requests.pop(msg.reply_to, None)
                if item is not None:
                    payload = msg.payload
                    granted = payload.get("granted", 0.0)
                    on_grant(src, item, payload.get("av_after", 0.0), now,
                             msg_id)
                    if granted > 0:
                        grants[msg_id] = (item, granted)
                        in_transit(item, granted, now)
            elif kind == "av.push":
                item, amount = msg.payload["item"], msg.payload["amount"]
                if amount > 0:
                    pushes[msg_id] = (item, amount)
                    in_transit(item, amount, now)
            elif kind == "prop.push":
                props[msg_id] = (
                    msg.payload["item"], msg.payload["delta"], msg.dst,
                    msg.payload.get("_obs"),
                )

        def _msg_recv(now, site, msg):
            nonlocal msgs
            msgs += 1
            # The receiver merges the message's clock, then ticks.
            msg_id = msg.msg_id
            snapshot = msg_clocks.pop(msg_id, None)
            dst = msg.dst
            clock = clocks.get(dst)
            if clock is None:
                clock = clocks[dst] = {}
            get = clock.get
            if snapshot is not None:
                for other, n in snapshot.items():
                    if n > get(other, 0):
                        clock[other] = n
            clock[dst] = get(dst, 0) + 1

            kind = msg.kind
            if kind in _AV_GRANTS:
                entry = grants.pop(msg_id, None)
                if entry is not None:
                    in_transit(entry[0], -entry[1], now)
            elif kind == "av.push":
                entry = pushes.pop(msg_id, None)
                if entry is not None:
                    in_transit(entry[0], -entry[1], now)
            elif kind == "prop.push":
                props.pop(msg_id, None)

        def _msg_drop(now, site, msg):
            nonlocal msgs
            msgs += 1
            msg_id = msg.msg_id
            msg_clocks.pop(msg_id, None)

            kind = msg.kind
            if kind in _AV_REQUESTS:
                av_requests.pop(msg_id, None)
            elif kind in _AV_GRANTS:
                entry = grants.pop(msg_id, None)
                if entry is not None:
                    in_transit(entry[0], -entry[1], now)
                    self._transfer_lost(now, msg, *entry, "av.grant-lost",
                                        "grant")
            elif kind == "av.push":
                entry = pushes.pop(msg_id, None)
                if entry is not None:
                    in_transit(entry[0], -entry[1], now)
                    self._transfer_lost(now, msg, *entry, "av.push-lost",
                                        "rebalancer push")
            elif kind == "prop.push":
                self._prop_dropped(now, msg)

        def counted():
            """(events, checks) the closures have folded."""
            return folds + msgs, folds + transits

        self._av_add, self._av_take = _av_add, _av_take
        self._av_hold_add, self._av_hold_release = (_av_hold_add,
                                                    _av_hold_release)
        self._av_mint, self._av_spend = _av_mint, _av_spend
        self._msg_send, self._msg_recv, self._msg_drop = (
            _msg_send, _msg_recv, _msg_drop)
        self._counted = counted
        cons.inline_checks = lambda: counted()[1]

    def _transfer_lost(self, now: float, msg, item: str, amount: float,
                       rule: str, what: str) -> None:
        """A grant or rebalancer push of ``amount`` was dropped in
        transit: reverted by the grantor's lease (counted, not warned —
        the chaos harness asserts no warning fires), else a conservative
        loss, warned: the volume exists nowhere now."""
        if msg.payload.get("lease") is not None:
            self.lease_covered_drops += 1
            return
        self.report.warnings.append(Violation(
            rule=rule,
            item=item,
            site=msg.dst,
            msg_id=msg.msg_id,
            time=now,
            severity="warning",
            detail=f"{what} of {amount:g} dropped in transit to {msg.dst}",
        ))

    def _prop_dropped(self, now: float, msg) -> None:
        entry = self._props.pop(msg.msg_id, None)
        if entry is None:
            return
        if isinstance(msg.payload, dict) and "_rel" in msg.payload:
            # Reliable-session delivery: the sender retransmits (the
            # owed balance is still retained), so the drop only delays
            # convergence. Counted, never a violation.
            self.rel_covered_drops += 1
            return
        item, delta, dst, ctx = entry
        # There is no retransmit path for propagation deltas: the
        # sender already claimed the owed balance, so this replica can
        # never converge for the item — a real divergence, not a
        # conservative loss.
        self.report.violations.append(Violation(
            rule="prop.lost",
            item=item,
            site=dst,
            trace_id=ctx["trace"] if ctx else None,
            span_id=ctx["span"] if ctx else None,
            msg_id=msg.msg_id,
            time=now,
            detail=f"propagation delta {delta:g} to {dst} dropped — replica diverges",
        ))

    # ------------------------------------------------------------- #
    # teardown
    # ------------------------------------------------------------- #

    def finish(self) -> SanitizerReport:
        """Run the end-of-run audits and return the report (idempotent)."""
        if self._finished:
            return self.report
        self._finished = True
        now = self.system.env.now if self.system is not None else 0.0
        report = self.report

        self.holds.finish(now)
        self.leases.finish(now)
        self.overload.finish(now)
        self._drift_audit(now)
        self._headroom_audit(now)

        for item, acct in sorted(self.conservation.accounts.items()):
            amount = acct[IN_FLIGHT]
            if abs(amount) > self.EPS:
                report.warnings.append(Violation(
                    rule="net.in-flight",
                    item=item,
                    time=now,
                    severity="warning",
                    detail=f"{amount:g} AV still in transit at teardown (undrained run?)",
                ))

        if self.causal.stale_races:
            report.warnings.append(Violation(
                rule="hb.stale-belief-race",
                time=now,
                severity="warning",
                detail=(
                    f"{self.causal.stale_races} selection(s) concurrent with an"
                    " invalidating grant (tolerated by design; high rates mean"
                    " belief refresh lags)"
                ),
            ))
        if self.causal.belief_lags:
            report.warnings.append(Violation(
                rule="hb.belief-lag",
                time=now,
                severity="warning",
                detail=(
                    f"{self.causal.belief_lags} selection(s) causally after an"
                    " invalidating grant yet acting on the stale level"
                ),
            ))
        report.hb_samples = list(self.causal.samples)

        backlog = 0
        if self.system is not None:
            for site in self.system.sites.values():
                backlog += site.accelerator.owed_pairs

        report.counters.update({
            "events": self.events,
            "conservation_checks": self.conservation.checks,
            "holds_opened": self.holds.opened,
            "holds_closed": self.holds.closed,
            "stale_belief_races": self.causal.stale_races,
            "belief_lags": self.causal.belief_lags,
            "deadlocks": self.locks.deadlocks,
            "unsynced_balances": backlog,
            "leases_opened": self.leases.opened,
            "leases_discharged": self.leases.discharged,
            "leases_reverted": self.leases.reverted,
            "lease_covered_drops": self.lease_covered_drops,
            "rel_covered_drops": self.rel_covered_drops,
        })
        if self.overload.events:
            # Only runs with the overload layer attached report these:
            # adding keys unconditionally would perturb the rendered
            # report (and thus the committed digests) of seed runs.
            report.counters.update({
                "overload_sheds": self.overload.sheds,
                "overload_demotions": self.overload.demotions,
                "overload_promotions": self.overload.promotions,
                "overload_transitions": self.overload.transitions,
                "overload_trips": self.overload.trips,
            })
        return report

    def _drift_audit(self, now: float) -> None:
        """Cross-check the incremental table sums against ground truth.

        A mismatch means an AV mutation bypassed the event stream — an
        instrumentation gap, reported so it cannot silently rot.
        """
        if self.system is None:
            return
        actual: Dict[str, float] = {}
        for site in self.system.sites.values():
            for item, volume in site.accelerator.av_table.items():
                actual[item] = actual.get(item, 0.0) + volume
        tables = self.conservation.column(TABLES)
        for item in sorted(set(tables) | set(actual)):
            tracked = tables.get(item, 0.0)
            real = actual.get(item, 0.0)
            if abs(tracked - real) > self.EPS:
                self.report.violations.append(Violation(
                    rule="sanitizer.drift",
                    item=item,
                    time=now,
                    detail=(
                        f"tracked table sum {tracked:g} != actual {real:g}"
                        " — an AV mutation bypassed the event stream"
                    ),
                ))

    def _headroom_audit(self, now: float) -> None:
        """Headroom must never exceed the ledger's ground-truth stock."""
        if self.system is None:
            return
        ledger = self.system.collector.ledger
        headrooms = self.conservation.column(HEADROOM)
        for item in sorted(self._defined):
            if not self._defined[item]:
                continue
            bound = ledger.true_value(item) if item in ledger.items() else None
            if bound is None:
                continue
            headroom = headrooms.get(item, 0.0)
            if headroom > bound + self.EPS:
                self.report.violations.append(Violation(
                    rule="av.headroom",
                    item=item,
                    time=now,
                    detail=(
                        f"headroom {headroom:g} exceeds ground-truth stock"
                        f" {bound:g}"
                    ),
                ))
