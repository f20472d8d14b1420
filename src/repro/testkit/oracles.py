"""End-state oracles: what must be true of a *finished* fuzz run.

The runtime sanitizer audits every event as it happens; these oracles
judge the quiescent end state with independent arithmetic, so a bug in
the incremental bookkeeping cannot hide a bug in the protocol (or vice
versa). Three oracles, each reported as structured
:class:`~repro.analysis.invariants.Violation` findings under an
``oracle.*`` rule:

* **convergence** — the system's own quiescent invariant check: byte
  identical replicas that equal the ground-truth ledger.
* **conservation at settle** — recomputed from the *live* AV tables and
  lease registries (not the sanitizer's running sums): per item,
  ``Σ tables + outstanding leases`` must equal the headroom account
  exactly when the robustness layer is on (nothing may be in flight or
  held at settle); without it, conservative in-transit loss is legal
  and only the ``<=`` bound holds.
* **sequential spec** — an in-process single-site reference executor:
  starting from the catalogue's initial stock, apply every committed
  delta exactly once. Final replicas and the metrics ledger must both
  match (commutativity makes order irrelevant, so one pass suffices).
* **overload rest state** — when the overload layer is attached, every
  controller must have settled back at NORMAL with nothing demoted,
  admission must never have let inflight exceed its budget, and every
  shed the controllers count must have surfaced as an observable
  ``SHED`` result (a silently dropped request is a lost update).
"""

from __future__ import annotations

from typing import List

from repro.analysis.invariants import Violation
from repro.core.types import UpdateOutcome

EPS = 1e-6


# ----------------------------------------------------------------- #
# convergence
# ----------------------------------------------------------------- #

def convergence_findings(system) -> List[Violation]:
    """Replica convergence + ledger agreement at quiescence."""
    from repro.cluster.system import InvariantViolation

    try:
        system.check_invariants(quiescent=True)
    except InvariantViolation as exc:
        return [Violation(
            rule="oracle.convergence",
            time=float(system.env.now),
            detail=str(exc),
        )]
    return []


# ----------------------------------------------------------------- #
# conservation at settle
# ----------------------------------------------------------------- #

def conservation_findings(system, strict: bool) -> List[Violation]:
    """Exact AV accounting, recomputed from live tables at settle."""
    sanitizer = system.sanitizer
    if sanitizer is None:
        raise ValueError("conservation oracle needs a sanitized system")
    conservation = sanitizer.conservation
    now = float(system.env.now)
    sites = [system.sites[name] for name in sorted(system.sites)]
    findings: List[Violation] = []

    items = sorted(set(conservation.headroom) | set(conservation.av_sum))
    for item in items:
        in_flight = conservation.in_flight.get(item, 0.0)
        if abs(in_flight) > EPS:
            findings.append(Violation(
                rule="oracle.settle", item=item, time=now,
                detail=f"{in_flight:g} AV still in transit at settle",
            ))
        held = conservation.holds_sum.get(item, 0.0)
        if abs(held) > EPS:
            findings.append(Violation(
                rule="oracle.settle", item=item, time=now,
                detail=f"{held:g} AV still held at settle",
            ))

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
        bound = conservation.headroom.get(item, 0.0)
        if total > bound + EPS:
            findings.append(Violation(
                rule="oracle.conservation", item=item, time=now,
                detail=(
                    f"settled AV {total:g} exceeds headroom {bound:g}"
                    f" (tables {tables:g} + leased {leased:g})"
                ),
            ))
        elif strict and total < bound - EPS:
            findings.append(Violation(
                rule="oracle.av-leak", item=item, time=now,
                detail=(
                    f"settled AV {total:g} below headroom {bound:g}"
                    " with the robustness layer on — volume vanished"
                ),
            ))
    return findings


# ----------------------------------------------------------------- #
# sequential spec
# ----------------------------------------------------------------- #

def sequential_spec_findings(system, results) -> List[Violation]:
    """Reference executor: committed deltas applied once, in one pass."""
    now = float(system.env.now)
    expected = {
        product.item: float(product.initial_stock)
        for product in system.catalog
    }
    for result in results:
        if result.outcome is UpdateOutcome.COMMITTED:
            expected[result.request.item] += result.request.delta

    findings: List[Violation] = []
    ledger = system.collector.ledger
    for item in sorted(expected):
        want = expected[item]
        have = ledger.true_value(item)
        if abs(have - want) > EPS:
            findings.append(Violation(
                rule="oracle.spec", item=item, time=now,
                detail=(
                    f"ledger value {have:g} != reference execution {want:g}"
                ),
            ))
        # Only the item's replicas hold a value to compare (under a
        # topology the interest set; the whole cluster without one).
        for name in sorted(s.name for s in system.interested_sites(item)):
            got = system.sites[name].store.value(item)
            if abs(got - want) > EPS:
                findings.append(Violation(
                    rule="oracle.spec", item=item, site=name, time=now,
                    detail=(
                        f"replica value {got:g} != reference execution"
                        f" {want:g}"
                    ),
                ))
    return findings


# ----------------------------------------------------------------- #
# interest scope (multi-level pools)
# ----------------------------------------------------------------- #

def interest_scope_findings(system) -> List[Violation]:
    """Partial-replication hygiene over every level of the supply tree.

    Every AV entry — leaf tables *and* aggregator pools — must name an
    item inside the holding site's interest set and carry a
    non-negative level, and every store record must stay inside the
    slice. A stray entry means some protocol path (grant, push, catalog
    reconcile, rejoin) leaked an item across an interest boundary. In
    the paper layout every slice is the whole catalogue.
    """
    topology = system.config.topology
    now = float(system.env.now)
    findings: List[Violation] = []
    for name in sorted(system.sites):
        site = system.sites[name]
        interest = set(topology.interest_of(name))
        for item, volume in sorted(site.av_table.items()):
            if item not in interest:
                findings.append(Violation(
                    rule="oracle.interest-scope", item=item, site=name,
                    time=now,
                    detail="AV entry outside the site's interest set",
                ))
            if volume < -EPS:
                findings.append(Violation(
                    rule="oracle.interest-scope", item=item, site=name,
                    time=now,
                    detail=f"negative pooled AV {volume:g}",
                ))
        for item in sorted(site.store.item_ids()):
            if item not in interest:
                findings.append(Violation(
                    rule="oracle.interest-scope", item=item, site=name,
                    time=now,
                    detail="store record outside the site's interest set",
                ))
    return findings


# ----------------------------------------------------------------- #
# overload rest state
# ----------------------------------------------------------------- #

def overload_findings(system) -> List[Violation]:
    """Degradation ring settled, sheds observable, budgets respected.

    No-op (empty list) when the overload layer is not attached.
    """
    from repro.core.overload import DegradationState

    controllers = [
        (name, system.sites[name].accelerator.overload)
        for name in sorted(system.sites)
    ]
    controllers = [(n, o) for n, o in controllers if o is not None]
    if not controllers:
        return []

    now = float(system.env.now)
    findings: List[Violation] = []
    total_shed = 0
    for name, ovl in controllers:
        total_shed += ovl.shed
        if ovl.state is not DegradationState.NORMAL:
            findings.append(Violation(
                rule="oracle.overload-state", site=name, time=now,
                detail=f"controller ended {ovl.state.value}, not normal",
            ))
        if ovl.demoted_items:
            findings.append(Violation(
                rule="oracle.overload-demoted", site=name, time=now,
                detail=(
                    "items never re-promoted:"
                    f" {sorted(ovl.demoted_items)}"
                ),
            ))
        if ovl.peak_inflight > ovl.params.inflight_budget:
            findings.append(Violation(
                rule="oracle.overload-admission", site=name, time=now,
                detail=(
                    f"peak inflight {ovl.peak_inflight} exceeded budget"
                    f" {ovl.params.inflight_budget}"
                ),
            ))

    shed_seen = sum(
        1 for r in system.collector.results
        if r.outcome is UpdateOutcome.SHED
    )
    if shed_seen != total_shed:
        findings.append(Violation(
            rule="oracle.overload-shed", time=now,
            detail=(
                f"controllers shed {total_shed} requests but only"
                f" {shed_seen} surfaced as SHED results"
            ),
        ))
    for r in system.collector.results:
        if r.outcome is UpdateOutcome.SHED and r.retry_after <= 0:
            findings.append(Violation(
                rule="oracle.overload-shed",
                item=r.request.item, time=now,
                detail="shed result carries no positive retry-after hint",
            ))
            break
    return findings


# ----------------------------------------------------------------- #
# combined
# ----------------------------------------------------------------- #

def end_state_findings(system, results, strict: bool) -> List[Violation]:
    """All the oracles over one quiesced system, in a stable order."""
    return (
        convergence_findings(system)
        + conservation_findings(system, strict=strict)
        + sequential_spec_findings(system, results)
        + interest_scope_findings(system)
        + overload_findings(system)
    )
