"""One end-state checker: what must be true of a finished run.

The runtime sanitizer audits every event as it happens; :func:`end_state`
judges the state a run ends in, with its own arithmetic over the live
tables, stores and update results, so a bug in the incremental
bookkeeping cannot hide a bug in the protocol (or the other way round).
It is the one judge every harness shares:
:meth:`~repro.cluster.system.DistributedSystem.check_invariants` raises
its first finding, and the chaos harness and the fuzzer report them all.

The list is the application invariants of Just-Right Consistency — stock
never negative, AV conserved, replicas equal to the committed deltas at
quiescence, interest scope — plus the overload layer's rest state. Each
finding is a :class:`~repro.analysis.invariants.Violation` per item and
site, under one of these rules:

* ``oracle.conservation`` — ground-truth stock ≥ 0, no site holds
  negative AV, Σ AV ≤ stock; at quiescence with the sanitizer attached,
  Σ tables + outstanding leases ≤ the headroom it tracked.
* ``oracle.av-leak`` — at quiescence with the reliability layer on, that
  sum is also ≥ the headroom: the layer exists so no volume vanishes.
* ``oracle.settle`` — at quiescence, no AV in transit or held.
* ``oracle.convergence`` — the item's replicas agree on its class, a
  non-regular item's replicas are identical, and at quiescence every
  replica equals the ledger.
* ``oracle.spec`` — the ledger equals a reference execution: initial
  stock plus every committed result's delta, applied once.
* ``oracle.interest-scope`` — no AV entry or store record outside the
  holding site's interest set.
* ``oracle.overload-*`` — at quiescence with the overload layer on:
  every controller back at NORMAL (``-state``) with nothing demoted
  (``-demoted``), inflight and sync backlog within budget
  (``-admission``, ``-backlog``), and every shed a ``SHED`` result with
  a retry hint (``-shed``).

The checks that hold mid-run always run; the others need ``quiescent``.
Strictness (the leak check) follows ``config.reliability``.
"""

from __future__ import annotations

from typing import Dict, List

from repro.analysis.invariants import Violation
from repro.core.types import UpdateOutcome

EPS = 1e-6

#: sanitizer warnings that mean volume or state was lost — a harness
#: running with the reliability layer on fails on any of them as well
LOSS_RULES = ("av.grant-lost", "av.push-lost", "net.in-flight", "lease.unresolved")


def end_state(system, quiescent: bool) -> List[Violation]:
    """Every end-state finding for ``system``, in a stable order.

    The first finding is the one ``check_invariants`` raises, so the
    per-item stock and class checks come first, in ledger order.
    """
    now = float(system.env.now)
    findings: List[Violation] = []

    def add(rule: str, detail: str, item=None, site=None) -> None:
        findings.append(
            Violation(rule=rule, item=item, site=site, time=now, detail=detail)
        )

    # AV entries and store records outside the holder's interest set,
    # reported under oracle.interest-scope after the per-item checks.
    # Every other item's AV holders are among its interest set, which
    # lists sites in site order, so only the strays need a scan of every
    # site below.
    topology = system.config.topology
    out_of_scope = []
    strays = set()
    for name in sorted(system.sites):
        site = system.sites[name]
        interest = set(topology.interest_of(name))
        for item, _volume in sorted(site.av_table.items()):
            if item not in interest:
                strays.add(item)
                out_of_scope.append(
                    ("AV entry outside the site's interest set", item, name)
                )
        for item in sorted(site.store.item_ids()):
            if item not in interest:
                out_of_scope.append(
                    ("store record outside the site's interest set",
                     item, name)
                )

    ledger = system.collector.ledger
    sites = list(system.sites.values())
    for item in ledger.items():
        truth = ledger.true_value(item)
        if truth < -EPS:
            add("oracle.conservation",
                f"ground-truth value of {item!r} is negative: {truth}", item)
        # Class is AV-entry existence (the checking function's source of
        # truth, which dynamic reclassification may move off the static
        # catalogue), and the item's interest set must agree on it.
        replicas = system.interested_sites(item)
        definedness = {s.av_table.defined(item) for s in replicas}
        if len(definedness) != 1:
            add("oracle.convergence",
                f"sites disagree on whether {item!r} is regular", item)
            continue
        candidates = sites if item in strays else replicas
        holders = [s for s in candidates if s.av_table.defined(item)]
        for site in holders:
            av = site.av_table.get(item)
            if av < -EPS:
                add("oracle.conservation",
                    f"{site.name} holds negative AV for {item!r}: {av}",
                    item, site.name)
        if definedness.pop():
            total_av = sum(s.av_table.get(item) for s in holders)
            if total_av > truth + EPS:
                add("oracle.conservation",
                    f"AV total {total_av} exceeds true value {truth}"
                    f" for {item!r}", item)
        else:
            # Immediate Update keeps a non-regular item's replicas
            # identical at every step.
            values = {s.store.value(item) for s in replicas}
            if len(values) != 1:
                add("oracle.convergence",
                    f"non-regular item {item!r} diverged: {values}", item)

    if quiescent:
        for item in ledger.items():
            truth = ledger.true_value(item)
            for site in system.interested_sites(item):
                replica = site.store.value(item)
                if abs(replica - truth) > EPS:
                    add("oracle.convergence",
                        f"replica {site.name} value {replica} != ledger"
                        f" {truth} for {item!r} at quiescence",
                        item, site.name)

    # Reference execution: commutativity makes order irrelevant, so one
    # pass over the committed results suffices.
    expected: Dict[str, float] = {
        product.item: float(product.initial_stock)
        for product in system.catalog
    }
    committed = UpdateOutcome.COMMITTED
    for outcome, item, delta in system.collector.results.columns(
        "outcome", "item", "delta"
    ):
        if outcome is committed:
            expected[item] += delta
    for item in sorted(expected):
        have = ledger.true_value(item)
        if abs(have - expected[item]) > EPS:
            add("oracle.spec",
                f"ledger value {have:g} != reference execution"
                f" {expected[item]:g}", item)

    for detail, item, name in out_of_scope:
        add("oracle.interest-scope", detail, item, name)

    if quiescent:
        if system.sanitizer is not None:
            _settled_conservation(
                system, strict=system.config.reliability is not None, add=add
            )
        _overload_rest_state(system, add)
    return findings


def _settled_conservation(system, strict: bool, add) -> None:
    """Exact AV accounting, recomputed from the live tables and lease
    registries against the headroom the sanitizer tracked.

    Without the reliability layer, conservative in-transit loss is legal
    and only the ``<=`` bound holds.
    """
    accounts = system.sanitizer.conservation.accounts
    sites = [system.sites[name] for name in sorted(system.sites)]
    for item in sorted(accounts):
        _tables, held, in_flight, bound = accounts[item]
        if abs(in_flight) > EPS:
            add("oracle.settle",
                f"{in_flight:g} AV still in transit at settle", item)
        if abs(held) > EPS:
            add("oracle.settle", f"{held:g} AV still held at settle", item)

        tables = sum(
            site.av_table.get(item)
            for site in sites
            if site.av_table.defined(item)
        )
        leased = sum(
            site.accelerator.leases.outstanding(item)
            for site in sites
            if site.accelerator.leases is not None
        )
        total = tables + leased
        if total > bound + EPS:
            add("oracle.conservation",
                f"settled AV {total:g} exceeds headroom {bound:g}"
                f" (tables {tables:g} + leased {leased:g})", item)
        elif strict and total < bound - EPS:
            add("oracle.av-leak",
                f"settled AV {total:g} below headroom {bound:g}"
                " with the robustness layer on — volume vanished", item)


def _overload_rest_state(system, add) -> None:
    """Degradation ring settled, budgets respected, sheds observable.

    No findings when the overload layer is not attached.
    """
    from repro.core.overload import DegradationState

    controllers = [
        (name, system.sites[name].accelerator.overload)
        for name in sorted(system.sites)
        if system.sites[name].accelerator.overload is not None
    ]
    if not controllers:
        return
    total_shed = 0
    for name, ovl in controllers:
        total_shed += ovl.shed
        params = ovl.params
        if ovl.state is not DegradationState.NORMAL:
            add("oracle.overload-state",
                f"controller ended {ovl.state.value}, not normal", site=name)
        if ovl.demoted_items:
            add("oracle.overload-demoted",
                f"items never re-promoted: {sorted(ovl.demoted_items)}",
                site=name)
        if ovl.peak_inflight > params.inflight_budget:
            add("oracle.overload-admission",
                f"peak inflight {ovl.peak_inflight} exceeded budget"
                f" {params.inflight_budget}", site=name)
        if ovl.peak_backlog > 2 * params.backlog_budget:
            add("oracle.overload-backlog",
                f"peak backlog {ovl.peak_backlog} ran away"
                f" (budget {params.backlog_budget})", site=name)

    shed = 0
    unhinted = None  # the item of the first SHED result with no hint
    for outcome, retry_after, item in system.collector.results.columns(
        "outcome", "retry_after", "item"
    ):
        if outcome is UpdateOutcome.SHED:
            shed += 1
            if retry_after <= 0 and unhinted is None:
                unhinted = item
    if shed != total_shed:
        add("oracle.overload-shed",
            f"controllers shed {total_shed} requests but only"
            f" {shed} surfaced as SHED results")
    audit = system.sanitizer.overload if system.sanitizer is not None else None
    if audit is not None and audit.sheds != total_shed:
        add("oracle.overload-shed",
            f"sanitizer observed {audit.sheds} shed events but"
            f" controllers count {total_shed}")
    if unhinted is not None:
        add("oracle.overload-shed",
            "shed result carries no positive retry-after hint", unhinted)
