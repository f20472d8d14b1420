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

Run it via ``python -m repro chaos [--small]``; CI treats any failing
scenario as a build failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.end_state import LOSS_RULES, end_state
from repro.analysis.invariants import SanitizerReport, Violation
from repro.cluster import DistributedSystem, paper_config
from repro.cluster.config import SystemConfig
from repro.core.overload import OverloadParams
from repro.core.sync import SyncScheduler
from repro.net.faults import FaultSchedule
from repro.net.reliable import ReliabilityParams
from repro.sim.rng import RngRegistry
from repro.workload.driver import heal_and_settle, run_open, split_by_site
from repro.workload.generators import FlashSaleWorkload
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
    description: str = ""
    #: extra ``paper_config`` keyword overrides (e.g. the overload layer)
    config_overrides: Optional[Dict[str, object]] = None
    #: run-shape overrides: interarrival / horizon / settle / sync_interval
    run_overrides: Optional[Dict[str, float]] = None
    #: replaces :func:`make_paper_trace`: ``(n_updates, seed, config)``
    trace_factory: Optional[
        Callable[[int, int, SystemConfig], WorkloadTrace]
    ] = None
    #: the scenario's own end-state demands, run after the drain:
    #: ``system`` → failure strings, folded into :attr:`ChaosResult.ok`
    extra_checks: Optional[Callable[[DistributedSystem], List[str]]] = None
    #: issue updates at the arrival rate instead of lock-step per site
    open_loop: bool = False


@dataclass
class ChaosResult:
    """Outcome of one scenario."""

    scenario: str
    report: SanitizerReport
    loss_warnings: List[Violation]
    updates_issued: int
    updates_completed: int
    #: kernel events processed by the scenario's simulation
    events_processed: int = 0
    #: full telemetry snapshot of the end state (see repro.obs.snapshot)
    telemetry: Dict[str, object] = field(default_factory=dict)
    #: the run's observability hub (chaos always observes): its span
    #: store, registry and series, for export
    obs: Optional[object] = None
    #: end-state findings (see repro.analysis.end_state)
    findings: List[Violation] = field(default_factory=list)
    #: scenario-specific end-state failures (see ChaosScenario.extra_checks)
    extra_failures: List[str] = field(default_factory=list)

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

    results: List[ChaosResult] = field(default_factory=list)
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
    "flash-sale surge: open-loop bursts shed, degrade, demote, recover",
    config_overrides={
        "overload": _OVERLOAD_PARAMS,
        # A mixed catalog (the surge must stress both paths) with stock
        # deep enough that headroom, not solvency, is the story.
        "regular_fraction": 0.5,
        "initial_stock": 400.0,
    },
    run_overrides={"interarrival": 1.0, "horizon": 200.0, "sync_interval": 15.0},
    trace_factory=_overload_trace,
    extra_checks=_overload_checks,
    open_loop=True,
)


SMALL_SCENARIOS = (
    ChaosScenario("maker-crash", _maker_crash, "base site down mid-run"),
    ChaosScenario("retailer-crash", _retailer_crash, "replica down mid-run"),
    ChaosScenario(
        "partition-loss", _partition_loss, "maker isolated + 5% message loss"
    ),
    _OVERLOAD_SCENARIO,
)

FULL_SCENARIOS = SMALL_SCENARIOS + (
    ChaosScenario("crash-storm", _crash_storm, "overlapping crash windows"),
    ChaosScenario(
        "flaky-links", _flaky_links, "flapping maker link + 20% lossy link"
    ),
)


# -------------------------------------------------------------------- #
# the run shape
# -------------------------------------------------------------------- #

def run_chaos_scenario(
    scenario: ChaosScenario,
    n_updates: int = 120,
    seed: int = 0,
    n_items: int = 6,
    n_retailers: int = 2,
    interarrival: float = 4.0,
    horizon: float = 260.0,
    settle: float = 150.0,
    sync_interval: float = 30.0,
    reliability: Optional[ReliabilityParams] = None,
) -> ChaosResult:
    """Drive one scenario to quiescence and audit the end state.

    ``horizon`` bounds the driven (faulty) phase; the heal phase then
    removes every fault, restarts still-crashed sites through the full
    rejoin, lets ``settle`` sim-time pass, flushes all sync backlogs and
    drains the event queue before judging (see
    :func:`~repro.workload.driver.heal_and_settle`). A scenario may
    override the config, the trace, the arrival discipline and the run
    knobs (see :class:`ChaosScenario`).
    """
    run_cfg = dict(scenario.run_overrides) if scenario.run_overrides else {}
    interarrival = run_cfg.get("interarrival", interarrival)
    horizon = run_cfg.get("horizon", horizon)
    settle = run_cfg.get("settle", settle)
    sync_interval = run_cfg.get("sync_interval", sync_interval)
    overrides = dict(scenario.config_overrides) if scenario.config_overrides else {}
    config = paper_config(
        n_items=n_items,
        n_retailers=n_retailers,
        seed=seed,
        request_timeout=8.0,
        observe=True,
        sanitize=True,
        reliability=reliability if reliability is not None else ReliabilityParams(),
        **overrides,
    )
    system = DistributedSystem.build(config)
    faults = system.network.faults
    if scenario.trace_factory is not None:
        trace = scenario.trace_factory(n_updates, seed, config)
    else:
        trace = make_paper_trace(
            n_updates, seed, n_items=n_items, n_retailers=n_retailers
        )
    per_site = split_by_site(trace)

    completed = [0]

    def on_complete(_i, _event, _result):
        completed[0] += 1

    schedulers = [
        SyncScheduler(system.sites[name].accelerator, interval=sync_interval)
        for name in sorted(system.sites)
    ]
    for scheduler in schedulers:
        scheduler.start()

    scenario.build(config).install(
        system.env,
        faults,
        on_recover=lambda name: system.sites[name].restart(),
    )

    # Phase 1: drive the workload through the fault window.
    run_open(
        system, per_site, interarrival=interarrival,
        on_complete=on_complete, until=horizon,
        open_loop=scenario.open_loop,
    )

    # Phase 2: heal the world, settle and drain; then judge.
    heal_and_settle(system, schedulers, settle)
    findings = end_state(system, quiescent=True)

    from repro.obs.snapshot import TelemetrySnapshot

    report = system.sanitizer.finish()
    loss = [w for w in report.warnings if w.rule in LOSS_RULES]
    extra_failures: List[str] = []
    if scenario.extra_checks is not None:
        extra_failures = list(scenario.extra_checks(system))
    return ChaosResult(
        scenario=scenario.name,
        report=report,
        loss_warnings=loss,
        updates_issued=len(trace),
        updates_completed=completed[0],
        events_processed=system.env.events_processed,
        telemetry=TelemetrySnapshot.capture(system).to_dict(),
        obs=system.obs,
        findings=findings,
        extra_failures=extra_failures,
    )


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
        chaos.results.append(
            run_chaos_scenario(
                scenario, n_updates=updates, seed=seed, n_items=n_items
            )
        )
    return chaos
