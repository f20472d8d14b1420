"""The runtime protocol sanitizer.

Opt-in (``SystemConfig.sanitize=True`` or ``python -m repro check``): a
:class:`ProtocolSanitizer` subscribes to a built system's one event
stream, the hub's :meth:`~repro.obs.hub.Observability.emit` bus, which
carries the AV tables' ``av.*``, the lock managers' ``lock.*``, the
network's ``msg.*`` and the protocols' policy events. It audits every
event against the paper's invariants (see :mod:`repro.analysis.invariants`
and :mod:`repro.analysis.hb`).  No protocol code changes behaviour when
the sanitizer is absent; each emit site costs one subscriber-list check.

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
    AVConservation,
    HoldRegistry,
    LeaseAudit,
    LockAudit,
    OverloadAudit,
    SanitizerReport,
    Violation,
)


class ProtocolSanitizer:
    """Attaches to a :class:`~repro.cluster.system.DistributedSystem`."""

    EPS = 1e-6

    def __init__(self, max_hb_samples: int = 10) -> None:
        self.report = SanitizerReport()
        self.conservation = AVConservation(self.report)
        self.holds = HoldRegistry(self.report)
        self.locks = LockAudit(self.report)
        self.leases = LeaseAudit(self.report)
        self.overload = OverloadAudit(self.report)
        self.causal = CausalOrder(max_samples=max_hb_samples)
        #: drops of leased transfers (reverted, not lost) and of
        #: reliable-session messages (retransmitted) — counted non-events
        self.lease_covered_drops = 0
        self.rel_covered_drops = 0
        self.events = 0
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
        #: event kind -> handler(kind, now, fields); every other kind is
        #: counted and otherwise ignored
        self._handlers = {
            "av.define": self._av_define,
            "av.undefine": self._av_undefine,
            "av.add": self._av_add,
            "av.take": self._av_take,
            "av.hold.open": self._hold_open,
            "av.hold.add": self._hold_add,
            "av.hold.consume": self._hold_consume,
            "av.hold.release": self._hold_release,
            "av.hold.reclose": self._hold_reclose,
            "av.mint": self._av_mint,
            "av.spend": self._av_spend,
            "av.select": self._av_select,
            "av.lease.open": self._lease_open,
            "av.lease.discharge": self._lease_resolve,
            "av.lease.revert": self._lease_resolve,
            "av.lease.conflict": self._lease_conflict,
            "ovl.shed": self._ovl_shed,
            "ovl.transition": self._ovl_transition,
            "ovl.demote": self._ovl_demote,
            "ovl.promote": self._ovl_promote,
            "ovl.trip": self._ovl_trip,
            **dict.fromkeys(("lock.grant", "lock.wait", "lock.release"), self._lock),
            **dict.fromkeys(("msg.send", "msg.recv", "msg.drop"), self._message),
        }

    # ------------------------------------------------------------- #
    # wiring
    # ------------------------------------------------------------- #

    def attach(self, system) -> "ProtocolSanitizer":
        """Subscribe to the system's event stream and fold in the
        bootstrap state."""
        self.system = system
        for name in sorted(system.sites):
            table = system.sites[name].accelerator.av_table
            for item, volume in sorted(table.items()):
                self.conservation.baseline(item, volume)
                self._defined.setdefault(item, set()).add(name)
        system.obs.event_subscribers.append(self._on_emit)
        return self

    def _on_emit(self, kind: str, now: float, fields: dict) -> None:
        """The one subscriber: count the event, then audit it by kind."""
        self.events += 1
        handler = self._handlers.get(kind)
        if handler is not None:
            handler(kind, now, fields)

    # ------------------------------------------------------------- #
    # AV table and holds (av.define/undefine/add/take, av.hold.*)
    # ------------------------------------------------------------- #

    def _av_add(self, kind: str, now: float, f: dict) -> None:
        self.conservation.table_delta(f["item"], f["amount"], f["site"], now)

    def _av_take(self, kind: str, now: float, f: dict) -> None:
        self.conservation.table_delta(f["item"], -f["amount"], f["site"], now)

    def _av_define(self, kind: str, now: float, f: dict) -> None:
        # New headroom first, then the table entry: the sum never
        # transiently exceeds the bound.
        item, amount, site = f["item"], f["amount"], f["site"]
        self.conservation.headroom_delta(item, amount, site, now)
        self.conservation.table_delta(item, amount, site, now)
        self._defined.setdefault(item, set()).add(site)

    def _av_undefine(self, kind: str, now: float, f: dict) -> None:
        item, amount, site = f["item"], f["amount"], f["site"]
        self.conservation.table_delta(item, -amount, site, now)
        self.conservation.headroom_delta(item, -amount, site, now)
        defined = self._defined.get(item)
        if defined is not None:
            defined.discard(site)
            if not defined:
                self._end_epoch(item, now)

    def _hold_open(self, kind: str, now: float, f: dict) -> None:
        self.holds.on_open(f["site"], f["hold"], now)

    def _hold_add(self, kind: str, now: float, f: dict) -> None:
        self.conservation.holds_delta(f["item"], f["amount"], f["site"], now)

    def _hold_consume(self, kind: str, now: float, f: dict) -> None:
        # The full held volume leaves the holds account and the needed
        # part leaves headroom; the excess re-enters the table via a
        # separate av.add right after.
        item, site, hold = f["item"], f["site"], f["hold"]
        self.conservation.holds_delta(item, -hold.amount, site, now)
        self.conservation.headroom_delta(item, -f["amount"], site, now)
        self.holds.on_close(site, hold, now)

    def _hold_release(self, kind: str, now: float, f: dict) -> None:
        self.conservation.holds_delta(f["item"], -f["amount"], f["site"], now)
        self.holds.on_close(f["site"], f["hold"], now)

    def _hold_reclose(self, kind: str, now: float, f: dict) -> None:
        self.holds.on_reclose(f["site"], f["hold"], now)

    def _end_epoch(self, item: str, now: float) -> None:
        """No site defines ``item`` any more: close its AV epoch.

        Residual headroom (volume conservatively lost in transit during
        the epoch) must not leak into a future re-definition of the
        item, so the accounts reset to zero.  A *negative* residual
        would mean more AV existed than headroom — report it.
        """
        cons = self.conservation
        residual = cons.headroom.get(item, 0.0)
        if residual < -self.EPS:
            self.report.violations.append(Violation(
                rule="av.conservation",
                item=item,
                time=now,
                detail=f"negative residual headroom {residual:g} at undefinition",
            ))
        cons.headroom[item] = 0.0
        cons.av_sum[item] = 0.0

    # ------------------------------------------------------------- #
    # protocol policy (av.mint/spend/select, av.lease.*, ovl.*)
    # ------------------------------------------------------------- #

    def _av_mint(self, kind: str, now: float, f: dict) -> None:
        self.conservation.headroom_delta(f["item"], f["amount"], f["site"], now)

    def _av_spend(self, kind: str, now: float, f: dict) -> None:
        self.conservation.headroom_delta(f["item"], -f["amount"], f["site"], now)

    def _av_select(self, kind: str, now: float, f: dict) -> None:
        self.causal.on_select(
            f["site"], f["item"], f["target"], f.get("believed"), now,
            trace=f.get("trace"), span=f.get("span"),
        )

    def _lease_open(self, kind: str, now: float, f: dict) -> None:
        self.leases.on_open(
            f["site"], f["lease"], f["item"], f["amount"], f["holder"], now
        )

    def _lease_resolve(self, kind: str, now: float, f: dict) -> None:
        # kind is av.lease.discharge or av.lease.revert
        self.leases.on_resolve(f["site"], f["lease"], kind[9:], now)

    def _lease_conflict(self, kind: str, now: float, f: dict) -> None:
        self.leases.on_conflict(f["site"], f["holder"], f["lease"], now)

    def _ovl_shed(self, kind: str, now: float, f: dict) -> None:
        self.overload.on_shed(f["site"], f["retry_after"], now)

    def _ovl_transition(self, kind: str, now: float, f: dict) -> None:
        self.overload.on_transition(f["site"], f["src"], f["dst"], now)

    def _ovl_demote(self, kind: str, now: float, f: dict) -> None:
        self.overload.on_demote(f["site"], f["item"], now)

    def _ovl_promote(self, kind: str, now: float, f: dict) -> None:
        self.overload.on_promote(f["site"], f["item"], now)

    def _ovl_trip(self, kind: str, now: float, f: dict) -> None:
        self.overload.on_trip(f["site"], now)

    # ------------------------------------------------------------- #
    # locks and messages (lock.*, msg.*)
    # ------------------------------------------------------------- #

    def _lock(self, kind: str, now: float, f: dict) -> None:
        self.locks.on_event(
            f["site"], kind[5:], f["item"], f["owner"], f["span_id"],
            f["holders"], f["queue"], now,
        )

    def _message(self, kind: str, now: float, f: dict) -> None:
        event, msg = kind[4:], f["msg"]
        if event == "send":
            self.causal.on_send(msg.src, msg.msg_id)
        elif event == "recv":
            self.causal.on_recv(msg.dst, msg.msg_id)
        else:
            self.causal.on_drop(msg.msg_id)

        kind = msg.kind
        # The hierarchical pool kinds (leaf→aggregator ask, aggregator→
        # parent refill) move AV exactly like a peer grant, so the same
        # request/reply transit accounting covers every level.
        if kind in ("av.request", "av.pool.request", "av.pool.refill"):
            if event == "send":
                self._av_requests[msg.msg_id] = msg.payload["item"]
            elif event == "drop":
                self._av_requests.pop(msg.msg_id, None)
        elif kind in (
            "av.request.reply",
            "av.pool.request.reply",
            "av.pool.refill.reply",
        ):
            self._track_grant(event, now, msg)
        elif kind == "av.push":
            self._track_push(event, now, msg)
        elif kind == "prop.push":
            self._track_prop(event, now, msg)

    def _track_grant(self, event: str, now: float, msg) -> None:
        if event == "send":
            item = self._av_requests.pop(msg.reply_to, None)
            if item is None:
                return
            granted = msg.payload.get("granted", 0.0)
            self.causal.on_grant(
                msg.src, item, msg.payload.get("av_after", 0.0), now, msg.msg_id
            )
            if granted > 0:
                self._grants[msg.msg_id] = (item, granted)
                self.conservation.transit_delta(item, granted, now)
            return
        entry = self._grants.pop(msg.msg_id, None)
        if entry is None:
            return
        item, granted = entry
        self.conservation.transit_delta(item, -granted, now)
        if event == "drop":
            if msg.payload.get("lease") is not None:
                # The grantor's lease reverts this volume; counted, not
                # warned — the chaos harness asserts no warning fires.
                self.lease_covered_drops += 1
                return
            # Conservative loss: the granted volume exists nowhere now.
            self.report.warnings.append(Violation(
                rule="av.grant-lost",
                item=item,
                site=msg.dst,
                msg_id=msg.msg_id,
                time=now,
                severity="warning",
                detail=f"grant of {granted:g} dropped in transit to {msg.dst}",
            ))

    def _track_push(self, event: str, now: float, msg) -> None:
        if event == "send":
            item, amount = msg.payload["item"], msg.payload["amount"]
            if amount > 0:
                self._pushes[msg.msg_id] = (item, amount)
                self.conservation.transit_delta(item, amount, now)
            return
        entry = self._pushes.pop(msg.msg_id, None)
        if entry is None:
            return
        item, amount = entry
        self.conservation.transit_delta(item, -amount, now)
        if event == "drop":
            if msg.payload.get("lease") is not None:
                self.lease_covered_drops += 1
                return
            self.report.warnings.append(Violation(
                rule="av.push-lost",
                item=item,
                site=msg.dst,
                msg_id=msg.msg_id,
                time=now,
                severity="warning",
                detail=f"rebalancer push of {amount:g} dropped in transit to {msg.dst}",
            ))

    def _track_prop(self, event: str, now: float, msg) -> None:
        if event == "send":
            ctx = msg.payload.get("_obs")
            self._props[msg.msg_id] = (
                msg.payload["item"], msg.payload["delta"], msg.dst, ctx
            )
            return
        entry = self._props.pop(msg.msg_id, None)
        if entry is None or event == "recv":
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

        for item in sorted(self.conservation.in_flight):
            amount = self.conservation.in_flight[item]
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
                backlog += len(site.accelerator.owed)

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
        for item in sorted(set(self.conservation.av_sum) | set(actual)):
            tracked = self.conservation.av_sum.get(item, 0.0)
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
        for item in sorted(self._defined):
            if not self._defined[item]:
                continue
            bound = ledger.true_value(item) if item in ledger.items() else None
            if bound is None:
                continue
            headroom = self.conservation.headroom.get(item, 0.0)
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
