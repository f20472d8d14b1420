"""Invariant bookkeeping for the runtime protocol sanitizer.

Three independent auditors, each fed by the sanitizer's hooks:

* :class:`AVConservation` — the paper's central safety property.  Per
  item, the allowable volume anywhere in the system (site tables, open
  holds, grants/pushes in transit) may never exceed the *headroom*: the
  bootstrap allocation plus every mint (stock increase, §3.3) minus
  every spend (committed decrement) and undefine.  All hooks notify in
  an order where transients only ever *lower* the left-hand side, so a
  ``<=`` check never false-positives mid-operation.
* :class:`HoldRegistry` — hold lifecycle soundness: every hold opened is
  consumed or released exactly once; anything still open at teardown is
  a leak, any operation on a closed hold is a double-close.
* :class:`LeaseAudit` — AV grant-lease lifecycle (the robustness
  layer's replacement for conservative in-transit loss): every lease
  opened resolves exactly once, as a discharge (holder acked) or a
  revert (transfer definitively lost, volume restored). A second
  resolution or an ack for a reverted lease means volume exists twice;
  a lease still open at teardown is an undrained run.
* :class:`LockAudit` — rebuilds the cross-site wait-for graph from lock
  events, detects cycles (deadlock) the moment the closing edge appears,
  and checks that each transaction token acquires site locks in the
  canonical ascending site order (the total-order rule Immediate Update
  relies on for deadlock freedom).
* :class:`OverloadAudit` — lifecycle soundness of the graceful-
  degradation layer (``ovl.*`` events): every state transition must be
  a legal edge of the degradation ring, every shed must carry a
  positive retry-after hint, and demotion/promotion must alternate per
  (site, item) — a double demotion or an unowed promotion means the
  controller's ledger of owed re-promotions is corrupt.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple


@dataclass(frozen=True)
class Violation:
    """One structured finding. ``severity`` is ``"violation"`` (the run
    is unsound) or ``"warning"`` (suspicious but tolerated by design)."""

    rule: str
    detail: str
    item: Optional[str] = None
    site: Optional[str] = None
    span_id: Optional[int] = None
    trace_id: Optional[str] = None
    msg_id: Optional[int] = None
    time: float = 0.0
    severity: str = "violation"

    def render(self) -> str:
        where = []
        if self.item is not None:
            where.append(f"item={self.item}")
        if self.site is not None:
            where.append(f"site={self.site}")
        if self.span_id is not None:
            where.append(f"span={self.span_id}")
        if self.trace_id:
            where.append(f"trace={self.trace_id}")
        if self.msg_id is not None:
            where.append(f"msg={self.msg_id}")
        loc = f" [{' '.join(where)}]" if where else ""
        return f"{self.severity}: {self.rule} t={self.time:g}{loc}: {self.detail}"


@dataclass
class SanitizerReport:
    """Everything a sanitized run produced."""

    violations: List[Violation] = field(default_factory=list)
    warnings: List[Violation] = field(default_factory=list)
    counters: Dict[str, int] = field(default_factory=dict)
    hb_samples: List[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def by_rule(self, rule: str) -> List[Violation]:
        return [v for v in self.violations + self.warnings if v.rule == rule]

    def render(self) -> str:
        lines = [
            "protocol sanitizer report",
            f"  events checked : {self.counters.get('events', 0)}",
            f"  violations     : {len(self.violations)}",
            f"  warnings       : {len(self.warnings)}",
        ]
        for key in sorted(self.counters):
            if key != "events":
                lines.append(f"  {key:<15}: {self.counters[key]}")
        for v in self.violations:
            lines.append("  " + v.render())
        for w in self.warnings:
            lines.append("  " + w.render())
        return "\n".join(lines)


#: an item's conservation accounts, in the order the invariant sums them
TABLES, HOLDS, IN_FLIGHT, HEADROOM = range(4)


def _none() -> int:
    return 0


class _Accounts(dict):
    """item -> ``[tables, holds, in_flight, headroom]``, zeroed on first use."""

    def __missing__(self, item: str) -> List[float]:
        acct = self[item] = [0.0, 0.0, 0.0, 0.0]
        return acct


class AVConservation:
    """Incremental per-item conservation accounts (O(1) per event).

    An item's account holds Σ AV across site tables, Σ open-hold volume,
    the granted/pushed volume in transit, and its headroom: allocation
    + mints − spends − undefines. The invariant is
    ``tables + holds + in_flight <= headroom``, the left-hand side
    summed in that order. :meth:`fold` moves one account and checks the
    item in the same step; the sanitizer inlines that fold for its
    hottest event kinds.
    """

    EPS = 1e-6

    def __init__(self, report: SanitizerReport) -> None:
        self.report = report
        self.accounts: Dict[str, List[float]] = _Accounts()
        #: checks made by :meth:`fold`
        self._checks = 0
        #: how many checks a folder that inlines :meth:`fold` has made
        #: (the sanitizer's closures count their own)
        self.inline_checks: Callable[[], int] = _none

    @property
    def checks(self) -> int:
        """Conservation checks made so far: one per fold."""
        return self._checks + self.inline_checks()

    def baseline(self, item: str, volume: float) -> None:
        """Fold one site's bootstrap allocation into the accounts."""
        acct = self.accounts[item]
        acct[TABLES] += volume
        acct[HEADROOM] += volume

    def fold(self, item: str, account: int, delta: float,
             site: Optional[str], now: float) -> None:
        """Move ``item``'s ``account`` by ``delta``, then check the item."""
        acct = self.accounts[item]
        acct[account] += delta
        self._checks += 1
        if acct[TABLES] + acct[HOLDS] + acct[IN_FLIGHT] > acct[HEADROOM] + self.EPS:
            self.exceeded(item, site, now)

    def exceeded(self, item: str, site: Optional[str], now: float) -> None:
        """Report ``item``'s AV in the system above its headroom."""
        tables, holds, in_flight, headroom = self.accounts[item]
        self.report.violations.append(Violation(
            rule="av.conservation",
            item=item,
            site=site,
            time=now,
            detail=(
                f"AV in system {tables + holds + in_flight:g} exceeds"
                f" headroom {headroom:g} (tables {tables:g}"
                f" + holds {holds:g} + in-flight {in_flight:g})"
            ),
        ))

    def column(self, account: int) -> Dict[str, float]:
        """One account of every item (for the end-of-run audits)."""
        return {item: acct[account] for item, acct in self.accounts.items()}


class HoldRegistry:
    """Tracks every hold from open to its single close."""

    def __init__(self, report: SanitizerReport) -> None:
        self.report = report
        #: (site, hold_id) -> (item, ctx, opened_at)
        self.live: Dict[Tuple[str, int], tuple] = {}
        self.opened = 0
        self.closed = 0

    @staticmethod
    def _ctx(hold) -> Tuple[Optional[str], Optional[int]]:
        return hold.ctx if hold.ctx is not None else (None, None)

    def on_open(self, site: str, hold, now: float) -> None:
        self.opened += 1
        self.live[(site, hold.hold_id)] = (hold.item, hold.ctx, now)

    def on_close(self, site: str, hold, now: float) -> None:
        self.closed += 1
        self.live.pop((site, hold.hold_id), None)

    def on_reclose(self, site: str, hold, now: float) -> None:
        trace, span = self._ctx(hold)
        self.report.violations.append(Violation(
            rule="hold.double-close",
            item=hold.item,
            site=site,
            trace_id=trace,
            span_id=span,
            time=now,
            detail=f"operation on already-closed hold #{hold.hold_id}",
        ))

    def finish(self, now: float) -> None:
        for (site, hold_id), (item, ctx, opened_at) in sorted(self.live.items()):
            trace, span = ctx if ctx is not None else (None, None)
            self.report.violations.append(Violation(
                rule="hold.leak",
                item=item,
                site=site,
                trace_id=trace,
                span_id=span,
                time=now,
                detail=(
                    f"hold #{hold_id} opened at t={opened_at:g}"
                    " never consumed or released"
                ),
            ))


class LeaseAudit:
    """Structural audit of the AV grant-lease lifecycle.

    Fed from the ``av.lease.*`` obs events the
    :class:`~repro.core.leases.LeaseTable` emits. Lease ids are local to
    their grantor, so the audit keys on ``(grantor, lease_id)``.
    """

    def __init__(self, report: SanitizerReport) -> None:
        self.report = report
        #: (grantor, lease_id) -> (item, amount, holder, opened_at)
        self.live: Dict[Tuple[str, int], tuple] = {}
        #: how each closed lease resolved: "discharge" | "revert"
        self.resolved: Dict[Tuple[str, int], str] = {}
        self.opened = 0
        self.discharged = 0
        self.reverted = 0

    def on_open(self, grantor: str, lease_id: int, item: str,
                amount: float, holder: str, now: float) -> None:
        key = (grantor, lease_id)
        if key in self.live or key in self.resolved:
            self.report.violations.append(Violation(
                rule="lease.reopen",
                item=item,
                site=grantor,
                time=now,
                detail=f"lease #{lease_id} opened twice",
            ))
            return
        self.opened += 1
        self.live[key] = (item, amount, holder, now)

    def on_resolve(self, grantor: str, lease_id: int, outcome: str,
                   now: float) -> None:
        key = (grantor, lease_id)
        entry = self.live.pop(key, None)
        if entry is None:
            prior = self.resolved.get(key, "never opened")
            self.report.violations.append(Violation(
                rule="lease.double-resolve",
                site=grantor,
                time=now,
                detail=(
                    f"lease #{lease_id} resolved as {outcome}"
                    f" but is not open (prior: {prior})"
                ),
            ))
            return
        self.resolved[key] = outcome
        if outcome == "discharge":
            self.discharged += 1
        else:
            self.reverted += 1

    def on_conflict(self, grantor: str, holder: str, lease_id: int,
                    now: float) -> None:
        self.report.violations.append(Violation(
            rule="lease.conflict",
            site=grantor,
            time=now,
            detail=(
                f"ack from {holder} for already-reverted lease"
                f" #{lease_id} — the leased volume now exists twice"
            ),
        ))

    def finish(self, now: float) -> None:
        for (grantor, lease_id), (item, amount, holder, opened_at) in sorted(
            self.live.items()
        ):
            self.report.warnings.append(Violation(
                rule="lease.unresolved",
                item=item,
                site=grantor,
                time=now,
                severity="warning",
                detail=(
                    f"lease #{lease_id} of {amount:g} to {holder} opened"
                    f" t={opened_at:g} unresolved at teardown"
                    " (undrained run?)"
                ),
            ))


class OverloadAudit:
    """Structural audit of the overload layer's lifecycle events.

    Fed from the ``ovl.*`` obs events the
    :class:`~repro.core.overload.OverloadController` emits. The legal
    transition set is imported from the controller module so the audit
    can never drift from the state machine it checks.
    """

    def __init__(self, report: SanitizerReport) -> None:
        from repro.core.overload import ALLOWED_TRANSITIONS

        self.report = report
        self.legal = {(a.value, b.value) for a, b in ALLOWED_TRANSITIONS}
        #: (site, item) pairs currently demoted (awaiting re-promotion)
        self.demoted: set = set()
        #: last broadcast state per site
        self.last_state: Dict[str, str] = {}
        self.sheds = 0
        self.demotions = 0
        self.promotions = 0
        self.transitions = 0
        self.trips = 0
        self.events = 0

    def on_shed(self, site: str, retry_after: float, now: float) -> None:
        self.events += 1
        self.sheds += 1
        if retry_after <= 0:
            self.report.violations.append(Violation(
                rule="overload.shed-no-retry",
                site=site,
                time=now,
                detail=(
                    f"shed with retry_after={retry_after:g} — callers"
                    " cannot back off without a positive hint"
                ),
            ))

    def on_transition(self, site: str, src: str, dst: str, now: float) -> None:
        self.events += 1
        self.transitions += 1
        self.last_state[site] = dst
        if (src, dst) not in self.legal:
            self.report.violations.append(Violation(
                rule="overload.illegal-transition",
                site=site,
                time=now,
                detail=(
                    f"degradation edge {src} -> {dst} is outside the"
                    " allowed ring"
                ),
            ))

    def on_demote(self, site: str, item: str, now: float) -> None:
        self.events += 1
        key = (site, item)
        if key in self.demoted:
            self.report.violations.append(Violation(
                rule="overload.demote-twice",
                item=item,
                site=site,
                time=now,
                detail=(
                    "item demoted again without an intervening promotion"
                    " — the AV split would be installed twice"
                ),
            ))
            return
        self.demoted.add(key)
        self.demotions += 1

    def on_promote(self, site: str, item: str, now: float) -> None:
        self.events += 1
        key = (site, item)
        if key not in self.demoted:
            self.report.violations.append(Violation(
                rule="overload.promote-unowed",
                item=item,
                site=site,
                time=now,
                detail="promotion of an item this site never demoted",
            ))
            return
        self.demoted.discard(key)
        self.promotions += 1

    def on_trip(self, site: str, now: float) -> None:
        self.events += 1
        self.trips += 1

    def finish(self, now: float) -> None:
        for site, item in sorted(self.demoted):
            self.report.warnings.append(Violation(
                rule="overload.demotion-unreverted",
                item=item,
                site=site,
                time=now,
                severity="warning",
                detail=(
                    "item still demoted at teardown — the owed"
                    " re-promotion never ran (undrained run?)"
                ),
            ))


class LockAudit:
    """Wait-for graph + canonical-order audit over lock events.

    Owner tokens (``imm:…``, ``cls:…``, ``read:…``) are globally unique,
    so edges from different sites' managers compose into one graph.
    """

    def __init__(self, report: SanitizerReport) -> None:
        self.report = report
        #: waiting owner -> set of owners it waits for (with provenance)
        self.wait_for: Dict[str, set] = {}
        #: where each waiting edge set came from: owner -> (site, item, span)
        self._wait_site: Dict[str, tuple] = {}
        #: per-owner ordered list of sites where locks were requested
        self.order_log: Dict[str, List[str]] = {}
        self.deadlocks = 0

    # ------------------------------------------------------------- #
    # event feed
    # ------------------------------------------------------------- #

    def on_event(self, site: str, op: str, item: str, owner: str,
                 span_id: Optional[int], holders: Dict, queue: List,
                 now: float) -> None:
        if op in ("wait", "grant"):
            self._check_order(site, item, owner, span_id, now)
        if op == "wait":
            # The new waiter blocks on every current holder and on every
            # earlier queued request (FIFO: they will be granted first).
            blockers = set(holders)
            for queued_owner, _mode in queue:
                if queued_owner == owner:
                    break
                blockers.add(queued_owner)
            blockers.discard(owner)
            self.wait_for[owner] = blockers
            self._wait_site[owner] = (site, item, span_id)
            self._detect_cycle(owner, now)
        elif op in ("grant", "release"):
            self.wait_for.pop(owner, None)
            self._wait_site.pop(owner, None)

    # ------------------------------------------------------------- #
    # canonical lock order
    # ------------------------------------------------------------- #

    def _check_order(self, site: str, item: str, owner: str,
                     span_id: Optional[int], now: float) -> None:
        log = self.order_log.setdefault(owner, [])
        if site in log:
            return  # reentrant acquire at a site already in the sequence
        if log and site < log[-1]:
            self.report.violations.append(Violation(
                rule="lock.order",
                item=item,
                site=site,
                span_id=span_id,
                time=now,
                detail=(
                    f"token {owner!r} requested {site} after {log[-1]}"
                    " — canonical ascending site order violated"
                ),
            ))
        log.append(site)

    # ------------------------------------------------------------- #
    # deadlock detection
    # ------------------------------------------------------------- #

    def _detect_cycle(self, start: str, now: float) -> None:
        # DFS from the owner whose new edges might close a cycle, each
        # owner's blockers in sorted order. An owner that waits for
        # nothing closes no cycle, so the search does not enter it.
        # Until a cycle is reported, a new one runs through ``start``.
        wait_for = self.wait_for
        if not self.deadlocks and start not in set().union(*wait_for.values()):
            return
        path: List[str] = []
        seen: set = set()

        def visit(owner: str) -> Optional[List[str]]:
            seen.add(owner)
            path.append(owner)
            for blocker in sorted(wait_for[owner]):
                if blocker in path:
                    return path[path.index(blocker):]
                if blocker in wait_for and blocker not in seen:
                    cycle = visit(blocker)
                    if cycle is not None:
                        return cycle
            path.pop()
            return None

        cycle = visit(start)
        if cycle is None:
            return
        self.deadlocks += 1
        site, item, span_id = self._wait_site.get(start, (None, None, None))
        self.report.violations.append(Violation(
            rule="lock.deadlock",
            item=item,
            site=site,
            span_id=span_id,
            time=now,
            detail="wait-for cycle: " + " -> ".join(cycle + [cycle[0]]),
        ))
