"""Execute one fuzz case to quiescence and judge the end state.

The run shape is the chaos harness's — drive the workload through the
fault window, then :func:`~repro.workload.driver.heal_and_settle` —
with the case's perturbation vector installed in the kernel hooks
before the first event fires. The outcome bundles the sanitizer report,
the :func:`~repro.analysis.end_state.end_state` findings, and the
determinism surface
(update tags, replicas, counters) whose canonical digest is what
``--replay`` compares byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.analysis.end_state import LOSS_RULES, end_state
from repro.analysis.invariants import Violation
from repro.cluster import DistributedSystem, Topology, paper_config
from repro.core.overload import OverloadParams
from repro.core.sync import SyncScheduler
from repro.net.reliable import ReliabilityParams
from repro.perf.tasks import canonical_json, digest
from repro.testkit.perturb import Perturbation
from repro.testkit.schedule import FuzzCase
from repro.workload.driver import heal_and_settle, run_open, split_by_site
from repro.workload.generators import WorkloadEvent

#: overload layer attached to surge cases — budgets tight enough that
#: an open-loop burst actually exercises admission and the state ring
SURGE_PARAMS = OverloadParams(
    inflight_budget=4,
    backlog_budget=24,
    lock_wait_budget=4,
    recover_hold=10.0,
)


@dataclass
class CaseOutcome:
    """Everything one executed case produced."""

    case: FuzzCase
    #: sanitizer violations + end-state findings (+ loss warnings when the
    #: robustness layer is on) — any entry means the case failed
    findings: List[Violation]
    #: tolerated sanitizer warnings not promoted to findings
    warnings: int
    counters: Dict[str, int] = field(default_factory=dict)
    update_tags: List[str] = field(default_factory=list)
    replicas: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: messages sent per message kind — a census of the protocol paths
    #: the case reached, outside the determinism surface (so a repro
    #: artifact's digest does not depend on it)
    sent_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.findings

    @property
    def fingerprint(self) -> List[tuple]:
        """Sorted unique ``(rule, item)`` pairs over all findings.

        Conservation fires on *every* failing check and its details
        carry times and amounts, so raw findings are neither
        deduplicated nor stable under shrinking — this projection is
        both, which is what makes it a valid shrink-preservation and
        replay-identity target.
        """
        return sorted({(v.rule, v.item or "") for v in self.findings})

    @property
    def rules(self) -> List[str]:
        """Sorted unique finding rules — the *bug class* signature.

        This is the shrink-preservation target: a minimal case must
        exhibit the same kinds of violation, but may do so on fewer
        items than the original (shrinking away ops naturally narrows
        the blast radius without changing what went wrong).
        """
        return sorted({v.rule for v in self.findings})

    def canonical(self) -> str:
        """Canonical JSON of the full determinism surface."""
        return canonical_json({
            "case": self.case.to_dict(),
            "fingerprint": [list(pair) for pair in self.fingerprint],
            "findings": [
                [v.rule, v.item, v.site, v.time, v.detail]
                for v in self.findings
            ],
            "warnings": self.warnings,
            "update_tags": self.update_tags,
            "replicas": self.replicas,
            "counters": self.counters,
        })

    def digest(self) -> str:
        return digest(self.canonical())

    def payload(self) -> Dict[str, Any]:
        """Sweep-task fingerprint: picklable, canonically serialisable."""
        return {
            "ok": self.ok,
            "fingerprint": [list(pair) for pair in self.fingerprint],
            "digest": self.digest(),
            "findings": [v.render() for v in self.findings],
            "update_tags": self.update_tags,
            "replicas": self.replicas,
            "counters": self.counters,
            "case": self.case.to_dict(),
            "sent_kinds": self.sent_kinds,
        }

    def render(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"fuzz case: {status}"
            f" ({len(self.case.ops)} ops, {len(self.case.faults)} faults,"
            f" latency±{self.case.latency_amp:g}"
            f" timer±{self.case.timer_amp:g},"
            f" {len(self.findings)} findings)",
        ]
        lines += ["  " + v.render() for v in self.findings]
        return "\n".join(lines)


def _validate(case: FuzzCase, config) -> None:
    sites = set(config.site_names)
    for site, item, _delta in case.ops:
        if site not in sites:
            raise ValueError(f"op references unknown site {site!r}")


def run_case(case: FuzzCase) -> CaseOutcome:
    """Run one case end to end; pure function of the case."""
    config = paper_config(
        n_items=case.n_items,
        n_retailers=case.n_retailers,
        initial_stock=case.initial_stock,
        seed=case.seed,
        request_timeout=8.0,
        observe=True,
        sanitize=True,
        reliability=ReliabilityParams() if case.reliability else None,
        inject=case.inject,
        overload=SURGE_PARAMS if case.overload else None,
        topology=(
            Topology.parse(case.topology, case.item_names)
            if case.topology else None
        ),
    )
    _validate(case, config)
    system = DistributedSystem.build(config)
    sent_kinds: Dict[str, int] = {}

    def count_sent(now, site, msg) -> None:
        sent_kinds[msg.kind] = sent_kinds.get(msg.kind, 0) + 1

    system.obs.subscribe("msg.send", count_sent)
    Perturbation(
        case.perturb_seed, case.latency_amp, case.timer_amp
    ).install(system)

    events = [WorkloadEvent(site, item, delta) for site, item, delta in case.ops]
    per_site = split_by_site(events)

    schedulers = [
        SyncScheduler(
            system.sites[name].accelerator, interval=case.sync_interval
        )
        for name in sorted(system.sites)
    ]
    for scheduler in schedulers:
        scheduler.start()

    faults = system.network.faults

    def on_recover(name: str) -> None:
        # The shrinker may orphan a recover step from its crash —
        # restarting a site that never went down must be a no-op.
        if faults.is_crashed(name):
            system.sites[name].restart()

    case.fault_schedule().install(system.env, faults, on_recover=on_recover)

    # Phase 1: drive the workload through the fault window. Surge cases
    # issue open-loop: bounding concurrency is the system's job.
    results = run_open(
        system, per_site, interarrival=case.interarrival, until=case.horizon,
        open_loop=case.overload,
    )

    # Phase 2: heal, settle, drain; then judge the end state.
    heal_and_settle(system, schedulers, case.settle)
    report = system.sanitizer.finish()
    oracle_findings = end_state(system, quiescent=True)
    findings = list(report.violations) + oracle_findings
    if case.reliability:
        findings += [w for w in report.warnings if w.rule in LOSS_RULES]

    counters = dict(report.counters)
    counters["events_processed"] = system.env.events_processed
    counters["updates_issued"] = len(events)
    counters["updates_completed"] = len(results)
    counters["oracle_findings"] = len(oracle_findings)

    item_ids = sorted(system.collector.ledger.items())
    # With partial replication a site's store holds only its interest
    # slice; the fingerprint records exactly what each site replicates
    # (the flat path keeps the original all-sites × all-items shape).
    replicas = {
        name: {
            item: system.sites[name].store.value(item)
            for item in item_ids
            if system.sites[name].accelerator.serves_item(item)
        }
        for name in sorted(system.sites)
    }
    from repro.perf.tasks import _update_tags

    return CaseOutcome(
        case=case,
        findings=findings,
        warnings=len(report.warnings) - (
            len([w for w in report.warnings if w.rule in LOSS_RULES])
            if case.reliability else 0
        ),
        counters=counters,
        update_tags=_update_tags(results),
        replicas=replicas,
        sent_kinds=dict(sorted(sent_kinds.items())),
    )
