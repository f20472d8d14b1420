"""Execute one fuzz case to quiescence and judge the end state.

The run is :func:`~repro.experiments.chaos.run_faulted`, the harness the
chaos suite runs its scenarios through, with the case's perturbation
vector installed in the kernel hooks before the first event fires. The
outcome bundles the sanitizer report, the
:func:`~repro.analysis.end_state.end_state` findings, and the
determinism surface
(update tags, replicas, counters) whose canonical digest is what
``--replay`` compares byte-for-byte.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.analysis.invariants import Violation
from repro.cluster import Topology, paper_config
from repro.core.overload import OverloadParams
from repro.experiments.chaos import run_faulted
from repro.net.reliable import ReliabilityParams
from repro.perf.tasks import _update_tags, canonical_json, digest
from repro.testkit.perturb import Perturbation
from repro.testkit.schedule import FuzzCase
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
    sites = set(config.site_names)
    for site, _item, _delta in case.ops:
        if site not in sites:
            raise ValueError(f"op references unknown site {site!r}")
    events = [WorkloadEvent(site, item, delta) for site, item, delta in case.ops]
    perturbation = (
        Perturbation(case.perturb_seed, case.latency_amp, case.timer_amp)
        if case.latency_amp or case.timer_amp else None
    )
    # Surge cases issue open-loop: bounding concurrency is the system's job.
    run = run_faulted(
        config, lambda: events, case.fault_schedule(),
        interarrival=case.interarrival, horizon=case.horizon,
        sync_interval=case.sync_interval, open_loop=case.overload,
        perturbation=perturbation, settle=case.settle,
    )

    system, report = run.system, run.report
    counters = dict(report.counters)
    counters["events_processed"] = run.events_processed
    counters["updates_issued"] = run.updates_issued
    counters["updates_completed"] = run.updates_completed
    counters["oracle_findings"] = len(run.findings)

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
    return CaseOutcome(
        case=case,
        findings=[*report.violations, *run.findings, *run.loss_warnings],
        warnings=len(report.warnings) - len(run.loss_warnings),
        counters=counters,
        update_tags=_update_tags(run.results),
        replicas=replicas,
        sent_kinds=dict(sorted(system.network.stats.by_kind.items())),
    )
