"""Shared experiment running machinery.

:func:`run_counted` drives one workload trace through any system
(proposal, centralized, escrow, ...) with the closed-loop discipline the
paper's Fig. 6 implies, sampling total and per-site correspondence
counts at update-count checkpoints.

:func:`run_paired` is the paper's §4 evaluation: the proposal and the
centralized baseline replay one frozen trace. Fig. 6 reads the run's
totals, Table 1 its per-site columns, the scale experiment the same
totals on an N-site topology — all three are one :class:`PairedResult`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.baselines.centralized import CentralizedSystem
from repro.cluster import DistributedSystem, SystemConfig
from repro.core.assurance import AssuranceReport, assurance_report
from repro.core.types import UPDATE_TAGS, UpdateKind, UpdateOutcome
from repro.metrics.collector import ResultLog
from repro.metrics.report import text_table
from repro.obs.snapshot import TelemetrySnapshot
from repro.workload.driver import run_closed
from repro.workload.trace import WorkloadTrace


@dataclass(frozen=True)
class Checkpoint:
    """System state sampled after ``updates`` updates completed."""

    updates: int
    total_correspondences: float
    per_site: Dict[str, float]


@dataclass
class CountedRun:
    """Everything :func:`run_counted` measures."""

    label: str
    checkpoints: List[Checkpoint] = field(default_factory=list)
    results: ResultLog = field(default_factory=ResultLog)

    def final(self) -> Checkpoint:
        if not self.checkpoints:
            raise ValueError(f"run {self.label!r} sampled no checkpoints")
        return self.checkpoints[-1]


def correspondence_reduction(proposal: float, conventional: float) -> float:
    """Fractional saving of the proposal's correspondences vs the
    conventional total — the paper's "decreases the correspondences by
    75%". A zero conventional total saves nothing (0.0)."""
    if conventional == 0:
        return 0.0
    return 1.0 - proposal / conventional


def checkpoint_schedule(n_updates: int, every: int) -> List[int]:
    """Multiples of ``every`` up to and always including ``n_updates``."""
    if n_updates <= 0 or every <= 0:
        raise ValueError("n_updates and every must be positive")
    points = list(range(every, n_updates + 1, every))
    if not points or points[-1] != n_updates:
        points.append(n_updates)
    return points


def run_counted(
    system,
    trace: WorkloadTrace,
    label: str,
    checkpoints: Optional[Sequence[int]] = None,
    site_names: Optional[Sequence[str]] = None,
) -> CountedRun:
    """Drive ``trace`` through ``system`` sampling correspondence growth.

    Parameters
    ----------
    system:
        Anything with the driving surface (``env``/``update``/``run``/
        ``stats``): :class:`DistributedSystem`, :class:`CentralizedSystem`.
    trace:
        The frozen workload (use the *same* trace across systems).
    checkpoints:
        Update counts to sample at; defaults to every 10% of the trace.
    site_names:
        Sites to report per-site counts for; defaults to all update
        origins found in the trace.
    """
    n = len(trace)
    if checkpoints is None:
        checkpoints = checkpoint_schedule(n, max(1, n // 10))
    pending = sorted(set(checkpoints))
    if pending and pending[-1] > n:
        raise ValueError(f"checkpoint {pending[-1]} beyond trace length {n}")
    if site_names is None:
        site_names = sorted({e.site for e in trace})

    run = CountedRun(label=label)
    marks = set(pending)

    def on_complete(i: int, event, result) -> None:
        done = i + 1
        if done in marks:
            run.checkpoints.append(
                Checkpoint(
                    updates=done,
                    total_correspondences=system.stats.correspondences_for_tags(
                        UPDATE_TAGS
                    ),
                    per_site={
                        s: system.stats.correspondences_for_site_tags(
                            s, UPDATE_TAGS
                        )
                        for s in site_names
                    },
                )
            )

    run.results = run_closed(system, trace, on_complete=on_complete)
    return run


@dataclass
class PairedResult:
    """Both systems' counted runs over one trace, plus the fingerprint."""

    proposal: CountedRun
    conventional: CountedRun
    config: SystemConfig
    n_updates: int
    #: heading of :meth:`render`
    title: str = ""
    #: render Table 1's per-site columns instead of Fig. 6's totals
    per_site: bool = False
    #: the proposal run's observability hub when ``config.observe``
    obs: Optional[object] = None
    #: final replica values per site (proposal run) — the determinism
    #: fingerprint the sharded sweep runner compares byte-for-byte; with
    #: partial replication each site's dict covers its interest slice
    replicas: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: sanitizer counts when ``config.sanitize`` (else both -1)
    violations: int = -1
    warnings: int = -1
    #: kernel events processed by both engines (throughput metric)
    events_processed: int = 0
    #: full telemetry snapshot of the proposal run (events, metric
    #: registry, per-site end state) — see :mod:`repro.obs.snapshot`
    telemetry: Dict[str, object] = field(default_factory=dict)

    @property
    def seed(self) -> int:
        return self.config.seed

    @property
    def site_names(self) -> List[str]:
        return self.config.site_names

    @property
    def retailers(self) -> List[str]:
        return self.config.retailers

    @property
    def reduction(self) -> float:
        """Fractional saving vs conventional (paper: ≈0.75)."""
        return correspondence_reduction(
            self.proposal.final().total_correspondences,
            self.conventional.final().total_correspondences,
        )

    @property
    def local_ratio(self) -> float:
        """Fraction of proposal updates completed without communication."""
        results = self.proposal.results
        if not results:
            return 0.0
        return sum(results.column("local_only")) / len(results)

    @property
    def committed_ratio(self) -> float:
        """Fraction of proposal updates that committed."""
        results = self.proposal.results
        if not results:
            return 0.0
        committed = UpdateOutcome.COMMITTED
        return sum(
            outcome is committed for outcome in results.column("outcome")
        ) / len(results)

    def assurance(self) -> AssuranceReport:
        """The paper's assurance claim, quantified on the final checkpoint."""
        final = self.proposal.final()
        delay_total = delay_local = delay_committed = 0
        for kind, local_only, outcome in self.proposal.results.columns(
            "kind", "local_only", "outcome"
        ):
            if kind is UpdateKind.DELAY:
                delay_total += 1
                delay_local += local_only
                delay_committed += outcome is UpdateOutcome.COMMITTED
        return assurance_report(
            retailer_correspondences={
                s: final.per_site[s] for s in self.retailers
            },
            delay_total=delay_total,
            delay_local=delay_local,
            delay_committed=delay_committed,
        )

    def per_site_growth(self, site: str) -> float:
        """Late-half correspondences per update at ``site`` (proposal).

        "Increases very slowly" ⇒ this stays well below the conventional
        per-site slope.
        """
        cps = self.proposal.checkpoints
        if len(cps) < 2:
            raise ValueError("need at least two checkpoints")
        mid = cps[len(cps) // 2]
        last = cps[-1]
        du = last.updates - mid.updates
        if du == 0:
            return 0.0
        return (last.per_site[site] - mid.per_site[site]) / du

    def render(self) -> str:
        """One aligned row per checkpoint, then the headline numbers."""
        # run_paired samples both runs at the same update counts.
        pairs = list(zip(self.proposal.checkpoints, self.conventional.checkpoints))
        if self.per_site:
            sites = self.site_names
            headers = [f"{s} (prop)" for s in sites] + [
                f"{s} (conv)" for s in sites
            ]
            rows = [
                [p.updates]
                + [p.per_site[s] for s in sites]
                + [c.per_site[s] for s in sites]
                for p, c in pairs
            ]
            summary = f"\n{self.assurance()}"
        else:
            headers = ["proposal", "conventional"]
            rows = [
                [p.updates, p.total_correspondences, c.total_correspondences]
                for p, c in pairs
            ]
            summary = (
                f"\nreduction vs conventional: {self.reduction:.1%}"
                f" (paper: ~75%)\nlocal completion: {self.local_ratio:.1%}"
            )
            if self.violations >= 0:
                summary += (
                    f"\nsanitizer: {self.violations} violation(s),"
                    f" {self.warnings} warning(s)"
                )
        return text_table(["updates"] + headers, rows, title=self.title) + summary


def run_paired(
    config: SystemConfig,
    trace: WorkloadTrace,
    checkpoints: Sequence[int],
    title: str = "",
    per_site: bool = False,
) -> PairedResult:
    """Replay ``trace`` through the proposal, then the centralized baseline.

    Both systems are built from the same ``config`` and see identical
    updates, so the comparison is paired at every checkpoint. The
    proposal run's whole-system invariants (and, with
    ``config.sanitize``, the sanitizer's end-of-run audit) are checked
    here, once, for every experiment built on the pair.
    """
    sites = config.site_names
    proposal_system = DistributedSystem.build(config)
    proposal = run_counted(proposal_system, trace, "proposal", checkpoints, sites)
    proposal_system.check_invariants()
    violations = warnings = -1
    if config.sanitize:
        report = proposal_system.sanitizer.finish()
        violations = len(report.violations)
        warnings = len(report.warnings)

    conventional_system = CentralizedSystem(config)
    conventional = run_counted(
        conventional_system, trace, "conventional", checkpoints, sites
    )
    # Both engines replay the trace; the kernel-event total counts both
    # (the throughput a sweep task actually sustained).
    conventional_events = conventional_system.env.events_processed
    return PairedResult(
        proposal=proposal,
        conventional=conventional,
        config=config,
        n_updates=len(trace),
        title=title,
        per_site=per_site,
        obs=proposal_system.obs if config.observe else None,
        replicas={
            name: site.store.as_dict()
            for name, site in proposal_system.sites.items()
        },
        violations=violations,
        warnings=warnings,
        events_processed=(
            proposal_system.env.events_processed + conventional_events
        ),
        telemetry=TelemetrySnapshot.capture(
            proposal_system, extra_events=conventional_events
        ).to_dict(),
    )
