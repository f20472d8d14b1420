"""Chaos harness: the system must *converge* under faults, not just survive.

Each scenario drives the §4 workload while a declarative
:class:`~repro.net.faults.FaultSchedule` injects crashes, partitions,
message loss and link flapping — with the robustness layer on (reliable
propagation, AV grant leases, crash-recovery rejoin) and the runtime
sanitizer attached. After the schedule's fault window the harness heals
everything, restarts any site still down, drains the simulation to
quiescence, and then demands the strong post-conditions the paper's
availability story implies but the seed reproduction could not meet:

* **zero sanitizer violations** (AV conservation, hold/lease lifecycle,
  lock order, no ``prop.lost``);
* **zero loss signals** — no conservative in-transit AV loss warnings
  (``av.grant-lost``/``av.push-lost``), nothing still in flight, no
  unresolved lease;
* **a clean end state** (:func:`~repro.analysis.end_state.end_state`):
  replicas identical and equal to the ground-truth ledger, AV conserved
  exactly, and — with the overload layer on — every controller at rest.

A scenario only picks the config, the trace and the schedule; the run
is :func:`run_faulted`, which the fuzzer's cases run through too.

Run it via ``python -m repro chaos [--small]``; CI treats any failing
scenario as a build failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.analysis.end_state import LOSS_RULES, end_state
from repro.analysis.invariants import SanitizerReport, Violation
from repro.cluster import DistributedSystem, paper_config
from repro.cluster.config import SystemConfig
from repro.core.overload import OverloadParams
from repro.core.sync import SyncScheduler
from repro.metrics.collector import ResultLog
from repro.net.faults import FaultSchedule
from repro.net.reliable import ReliabilityParams
from repro.obs.snapshot import TelemetrySnapshot
from repro.sim.rng import RngRegistry
from repro.workload.driver import heal_and_settle, run_open, split_by_site
from repro.workload.generators import FlashSaleWorkload, WorkloadEvent
from repro.workload.trace import WorkloadTrace

from repro.experiments.fig6 import make_paper_trace


@dataclass(frozen=True)
class ChaosScenario:
    """A named fault schedule over the standard chaos run shape.

    The default shape is the §4 paper trace under lock-step per-site
    arrivals; a scenario may override any part of it — the surge
    scenarios swap in a flash-sale trace, open-loop arrivals and the
    overload layer, then add the scenario's own demands on top of the
    standard end-state post-conditions.
    """

    name: str
    #: builds the schedule for a concrete config (site names, windows)
    build: Callable[[SystemConfig], FaultSchedule]
    #: extra ``paper_config`` keyword overrides (e.g. the overload layer)
    config_overrides: Optional[Dict[str, object]] = None
    #: arrival spacing per site; None keeps the caller's
    interarrival: Optional[float] = None
    #: end of the driven (faulty) phase
    horizon: float = 260.0
    sync_interval: float = 30.0
    #: replaces :func:`make_paper_trace`: ``(n_updates, seed, config)``
    trace_factory: Optional[
        Callable[[int, int, SystemConfig], WorkloadTrace]
    ] = None
    #: the scenario's own end-state demands, run after the drain:
    #: ``system`` → failure strings, folded into :attr:`FaultedRun.ok`
    extra_checks: Optional[Callable[[DistributedSystem], List[str]]] = None
    #: issue updates at the arrival rate instead of lock-step per site
    open_loop: bool = False


@dataclass
class FaultedRun:
    """One faulted run, driven to quiescence and judged (:func:`run_faulted`)."""

    system: DistributedSystem
    #: update results, in completion order: a live view of the
    #: collector's log, so it counts what completes after the drive too
    results: ResultLog
    updates_issued: int
    report: SanitizerReport
    #: end-state findings (see repro.analysis.end_state)
    findings: List[Violation]
    #: the sanitizer's loss signals (``LOSS_RULES``); empty without the
    #: robustness layer, where conservative in-transit loss is legal
    loss_warnings: List[Violation]
    #: full telemetry snapshot of the end state (see repro.obs.snapshot)
    telemetry: Dict[str, object]
    #: the chaos scenario's name, when a scenario ran
    scenario: str = ""
    #: scenario-specific end-state failures (see ChaosScenario.extra_checks)
    extra_failures: List[str] = field(default_factory=list)

    @property
    def obs(self):
        """The run's observability hub: span store, registry, series."""
        return self.system.obs

    @property
    def events_processed(self) -> int:
        return self.system.env.events_processed

    @property
    def updates_completed(self) -> int:
        return len(self.results)

    @property
    def converged(self) -> bool:
        """The end state is clean: replicas on the ledger, AV conserved."""
        return not self.findings

    @property
    def ok(self) -> bool:
        return (
            self.report.ok
            and self.converged
            and not self.loss_warnings
            and not self.extra_failures
        )

    def render(self) -> str:
        counters = self.report.counters
        status = "PASS" if self.ok else "FAIL"
        lines = [
            f"chaos {self.scenario}: {status}"
            f" ({self.updates_completed}/{self.updates_issued} updates,"
            f" {len(self.report.violations)} violations,"
            f" {len(self.loss_warnings)} loss warnings,"
            f" replicas {'converged' if self.converged else 'DIVERGED'})",
            f"  leases opened={counters.get('leases_opened', 0)}"
            f" discharged={counters.get('leases_discharged', 0)}"
            f" reverted={counters.get('leases_reverted', 0)};"
            f" covered drops: lease={counters.get('lease_covered_drops', 0)}"
            f" rel={counters.get('rel_covered_drops', 0)}",
        ]
        for v in [*self.report.violations, *self.loss_warnings, *self.findings]:
            lines.append("  " + v.render())
        for msg in self.extra_failures:
            lines.append(f"  end-state: {msg}")
        return "\n".join(lines)


@dataclass
class ChaosReport:
    """All scenarios of one ``run_chaos`` invocation."""

    results: List[FaultedRun] = field(default_factory=list)
    n_updates: int = 0
    seed: int = 0

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def render(self) -> str:
        header = (
            f"chaos suite (n={self.n_updates}, seed={self.seed}):"
            f" {'PASS' if self.ok else 'FAIL'}"
            f" [{sum(r.ok for r in self.results)}/{len(self.results)} scenarios]"
        )
        return "\n".join([header] + [r.render() for r in self.results])


# -------------------------------------------------------------------- #
# scenarios
# -------------------------------------------------------------------- #

def _maker_crash(config: SystemConfig) -> FaultSchedule:
    return FaultSchedule().crash(60.0, config.maker).recover(150.0, config.maker)


def _retailer_crash(config: SystemConfig) -> FaultSchedule:
    victim = config.retailers[0]
    return FaultSchedule().crash(60.0, victim).recover(150.0, victim)


def _partition_loss(config: SystemConfig) -> FaultSchedule:
    # ISSUE 3's third mandatory schedule: maker partitioned away while
    # every link also drops 5% of messages. The heal phase (run shape,
    # not schedule) clears the loss rate before the drain.
    return (
        FaultSchedule()
        .drop(0.0, 0.05)
        .partition(80.0, [config.maker], list(config.retailers))
        .heal(200.0)
    )


def _crash_storm(config: SystemConfig) -> FaultSchedule:
    schedule = FaultSchedule().crash(50.0, config.maker).recover(140.0, config.maker)
    for offset, victim in enumerate(config.retailers):
        start = 80.0 + 30.0 * offset
        schedule.crash(start, victim).recover(start + 90.0, victim)
    return schedule


def _flaky_links(config: SystemConfig) -> FaultSchedule:
    first = config.retailers[0]
    schedule = FaultSchedule().flap(config.maker, first, 60.0, 240.0, 40.0)
    if len(config.retailers) > 1:
        schedule.link_drop(0.0, config.maker, config.retailers[1], 0.2)
        schedule.link_drop(260.0, config.maker, config.retailers[1], None)
    return schedule


def _no_faults(config: SystemConfig) -> FaultSchedule:
    # The overload scenario's adversary is the workload, not the network.
    return FaultSchedule()


def _overload_trace(
    n_updates: int, seed: int, config: SystemConfig
) -> WorkloadTrace:
    """Flash-sale surge hitting both consistency paths at once.

    The hot set pairs the first non-regular item (every decrement is a
    2PC — the coordination storm that strains the maker into demoting
    it) with the hottest regular item (a Delay storm against the AV
    budgets). The maker joins the burst rotation: demotion is
    maker-initiated, so the base site must feel the surge first-hand.
    """
    items = config.topology.items
    n_regular = round(config.n_items * config.regular_fraction)
    if n_regular < config.n_items:
        hot = [items[n_regular], items[0]]
    else:  # pragma: no cover - scenario always configures a mixed catalog
        hot = items[:2]
    cold = [i for i in items if i not in hot]
    generator = FlashSaleWorkload(
        maker=config.maker,
        retailers=[config.maker, *config.retailers],
        items=[*hot, *cold],
        rng=RngRegistry(seed).stream("workload.flashsale"),
        hot_items=len(hot),
        burst=max(1, n_updates // (len(config.retailers) + 1)),
    )
    return WorkloadTrace.capture(generator, n_updates)


def _overload_checks(system: DistributedSystem) -> List[str]:
    """The surge scenario's own demands: it must have bitten.

    Everything the overload layer promises at rest — controllers back at
    NORMAL, nothing left demoted, budgets respected, every shed an
    observable ``SHED`` result — is judged by ``end_state`` for every
    run; what only this scenario asks is that its budgets were tight
    enough to shed and to demote at all.
    """
    controllers = [site.accelerator.overload for site in system.sites.values()]
    failures: List[str] = []
    if not sum(ovl.shed for ovl in controllers):
        failures.append("surge never shed a single update (budgets too lax?)")
    if not sum(ovl.demotions for ovl in controllers):
        failures.append("surge never demoted the hot immediate item")
    return failures


#: budgets tight enough that a 40-update burst per site must shed; the
#: shortened recovery hold keeps the promote leg inside the settle window
_OVERLOAD_PARAMS = OverloadParams(
    inflight_budget=8,
    backlog_budget=32,
    lock_wait_budget=4,
    recover_hold=10.0,
)

_OVERLOAD_SCENARIO = ChaosScenario(
    "overload",
    _no_faults,
    config_overrides={
        "overload": _OVERLOAD_PARAMS,
        # A mixed catalog (the surge must stress both paths) with stock
        # deep enough that headroom, not solvency, is the story.
        "regular_fraction": 0.5,
        "initial_stock": 400.0,
    },
    interarrival=1.0, horizon=200.0, sync_interval=15.0,
    trace_factory=_overload_trace,
    extra_checks=_overload_checks,
    open_loop=True,
)


SMALL_SCENARIOS = (
    ChaosScenario("maker-crash", _maker_crash),
    ChaosScenario("retailer-crash", _retailer_crash),
    ChaosScenario("partition-loss", _partition_loss),
    _OVERLOAD_SCENARIO,
)

FULL_SCENARIOS = SMALL_SCENARIOS + (
    ChaosScenario("crash-storm", _crash_storm),
    ChaosScenario("flaky-links", _flaky_links),
)


# -------------------------------------------------------------------- #
# the run shape
# -------------------------------------------------------------------- #

def run_faulted(
    config: SystemConfig,
    events: Callable[[], Sequence[WorkloadEvent]],
    schedule: FaultSchedule,
    *,
    interarrival: float,
    horizon: float,
    sync_interval: float,
    open_loop: bool = False,
    perturbation=None,
    settle: float = 150.0,
) -> FaultedRun:
    """Drive one faulted run to quiescence and judge its end state.

    ``config`` must sanitize. ``perturbation`` (anything with
    ``install(system)``) is installed, and ``events`` called, after the
    build: the capture order decides which garbage cycles are still
    uncollected when the next run builds, and so a suite's peak memory.
    The workload runs per site until ``horizon`` under ``schedule``,
    then :func:`~repro.workload.driver.heal_and_settle` lets ``settle``
    pass and drains. The judges are the sanitizer, its loss signals
    (robustness layer on) and :func:`~repro.analysis.end_state.end_state`.
    """
    system = DistributedSystem.build(config)
    if perturbation is not None:
        perturbation.install(system)
    trace = events()

    schedulers = [
        SyncScheduler(system.sites[name].accelerator, interval=sync_interval)
        for name in sorted(system.sites)
    ]
    for scheduler in schedulers:
        scheduler.start()

    schedule.install(system)

    # Phase 1: drive the workload through the fault window.
    results = run_open(
        system, split_by_site(trace), interarrival=interarrival,
        until=horizon, open_loop=open_loop,
    )

    # Phase 2: heal the world, settle and drain; then judge.
    heal_and_settle(system, schedulers, settle)
    findings = end_state(system, quiescent=True)
    report = system.sanitizer.finish()
    loss = (
        [w for w in report.warnings if w.rule in LOSS_RULES]
        if config.reliability is not None else []
    )
    return FaultedRun(
        system=system,
        results=results,
        updates_issued=len(trace),
        report=report,
        findings=findings,
        loss_warnings=loss,
        telemetry=TelemetrySnapshot.capture(system).to_dict(),
    )


def run_chaos_scenario(
    scenario: ChaosScenario,
    n_updates: int = 120,
    seed: int = 0,
    n_items: int = 6,
    interarrival: float = 4.0,
) -> FaultedRun:
    """Run one scenario through :func:`run_faulted`.

    The config has the robustness layer on, plus the scenario's
    overrides; the trace, the arrival discipline and the run knobs are
    the scenario's where it sets them (see :class:`ChaosScenario`).
    """
    config = paper_config(
        n_items=n_items,
        seed=seed,
        request_timeout=8.0,
        observe=True,
        sanitize=True,
        reliability=ReliabilityParams(),
        **(scenario.config_overrides or {}),
    )

    def events() -> WorkloadTrace:
        if scenario.trace_factory is not None:
            return scenario.trace_factory(n_updates, seed, config)
        return make_paper_trace(
            n_updates, seed, n_items=n_items, n_retailers=config.n_retailers
        )

    run = run_faulted(
        config, events, scenario.build(config),
        interarrival=(
            interarrival if scenario.interarrival is None
            else scenario.interarrival
        ),
        horizon=scenario.horizon,
        sync_interval=scenario.sync_interval,
        open_loop=scenario.open_loop,
    )
    run.scenario = scenario.name
    if scenario.extra_checks is not None:
        run.extra_failures = list(scenario.extra_checks(run.system))
    return run


def run_chaos(
    small: bool = False,
    n_updates: Optional[int] = None,
    seed: int = 0,
    n_items: int = 6,
) -> ChaosReport:
    """Run the scenario suite; ``small`` is the CI smoke variant."""
    scenarios = SMALL_SCENARIOS if small else FULL_SCENARIOS
    updates = n_updates if n_updates is not None else (120 if small else 300)
    chaos = ChaosReport(n_updates=updates, seed=seed)
    for scenario in scenarios:
        chaos.results.append(run_chaos_scenario(
            scenario, n_updates=updates, seed=seed, n_items=n_items
        ))
    return chaos
