"""System assembly: the paper's Fig. 2 model as one object.

:class:`DistributedSystem` wires the environment, network, sites
(maker + retailers), accelerators, catalogue, bootstrap and metrics into
a ready-to-run simulation, and exposes the invariant checks the property
tests rely on.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.cluster.bootstrap import bootstrap
from repro.cluster.catalog import ProductCatalog, make_catalog
from repro.cluster.config import SystemConfig
from repro.cluster.site import Site, SiteRole
from repro.core.accelerator import Accelerator
from repro.core.policies import DecidingPolicy
from repro.core.strategies import SelectionStrategy
from repro.db.storage import Store
from repro.metrics.collector import MetricsCollector
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.obs.hub import NULL_OBS, Observability
from repro.sim.engine import Environment, collect_young_after
from repro.sim.events import Event
from repro.sim.rng import RngRegistry

StrategyFactory = Callable[[str, RngRegistry], SelectionStrategy]
PolicyFactory = Callable[[str, RngRegistry], DecidingPolicy]


class InvariantViolation(AssertionError):
    """An AV-conservation or consistency invariant failed."""


class DistributedSystem:
    """A fully wired simulated deployment."""

    def __init__(
        self,
        config: SystemConfig,
        env: Environment,
        network: Network,
        rngs: RngRegistry,
        catalog: ProductCatalog,
        sites: Dict[str, Site],
        collector: MetricsCollector,
        obs: Optional[Observability] = None,
    ) -> None:
        self.config = config
        self.env = env
        self.network = network
        self.rngs = rngs
        self.catalog = catalog
        self.sites = sites
        self.collector = collector
        #: the run's observability hub; its event bus is the run's one
        #: event stream
        self.obs = obs if obs is not None else NULL_OBS
        #: the runtime sanitizer (set by build() when config.sanitize)
        self.sanitizer = None

    # ---------------------------------------------------------------- #
    # construction
    # ---------------------------------------------------------------- #

    @classmethod
    @collect_young_after
    def build(
        cls,
        config: Optional[SystemConfig] = None,
        strategy_factory: Optional[StrategyFactory] = None,
        policy_factory: Optional[PolicyFactory] = None,
    ) -> "DistributedSystem":
        """Assemble a system from configuration.

        ``strategy_factory`` / ``policy_factory`` produce per-site
        instances (strategies may be stateful); omitted, every site uses
        the paper's believed-richest / SODA'99 pair.
        """
        config = config if config is not None else SystemConfig()
        env = Environment()
        rngs = RngRegistry(config.seed)
        from repro.net.sizes import SizeModel

        # Every system gets its own hub, so any run can be subscribed to
        # without touching the shared NULL_OBS; recording stays off
        # unless config.observe.
        obs = Observability(enabled=config.observe)
        network = Network(
            env,
            latency=ConstantLatency(config.latency_mean),
            rng=rngs.stream("net.latency"),
            size_model=SizeModel() if config.count_bytes else None,
            obs=obs,
        )
        catalog = make_catalog(
            config.n_items,
            initial_stock=config.initial_stock,
            regular_fraction=config.regular_fraction,
        )
        collector = MetricsCollector(
            registry=obs.registry if config.observe else None
        )

        topology = config.topology
        if list(topology.items) != catalog.items():
            raise ValueError(
                "topology item universe does not match the catalogue"
                f" ({len(topology.items)} vs {len(catalog)} items)"
            )

        sites: Dict[str, Site] = {}
        for name in config.site_names:
            endpoint = network.endpoint(name)
            store = Store(name)
            accel = Accelerator(
                endpoint,
                store,
                base_site=config.maker,
                strategy=(
                    strategy_factory(name, rngs) if strategy_factory else None
                ),
                policy=(policy_factory(name, rngs) if policy_factory else None),
                rng=rngs.stream(f"{name}.protocol"),
                obs=obs,
                propagate=config.propagate,
                request_timeout=config.request_timeout,
                max_rounds=config.max_rounds,
                max_immediate_retries=config.max_immediate_retries,
                allow_transfers=config.allow_transfers,
                reliability=config.reliability,
                inject=config.inject,
                overload=config.overload,
                interest=topology.view(name),
            )
            role = SiteRole(topology.role_of(name))
            sites[name] = Site(endpoint, store, accel, role, collector)
            if config.reliability is not None:
                from repro.cluster.rejoin import install_rejoin_handlers

                install_rejoin_handlers(sites[name])

        bootstrap(
            sites,
            catalog,
            collector.ledger,
            topology=topology,
            av_fraction=config.av_fraction,
            av_weights=config.av_weights,
        )
        system = cls(
            config, env, network, rngs, catalog, sites, collector,
            obs=obs,
        )
        if config.sanitize:
            # Attach after bootstrap so the sanitizer baselines from the
            # settled AV allocation.
            from repro.analysis.sanitizer import ProtocolSanitizer

            system.sanitizer = ProtocolSanitizer().attach(system)
        return system

    # ---------------------------------------------------------------- #
    # access
    # ---------------------------------------------------------------- #

    @property
    def maker(self) -> Site:
        return self.sites[self.config.maker]

    @property
    def retailers(self) -> List[Site]:
        return [self.sites[n] for n in self.config.retailers]

    def site(self, name: str) -> Site:
        return self.sites[name]

    @property
    def stats(self):
        """The network's message/correspondence counters."""
        return self.network.stats

    # ---------------------------------------------------------------- #
    # driving
    # ---------------------------------------------------------------- #

    def update(self, site: str, item: str, delta: float) -> Event:
        """Issue one update at ``site``; the returned event's value is
        the UpdateResult (see :meth:`Accelerator.update`)."""
        return self.sites[site].update(item, delta)

    def run(self, until=None):
        """Run the simulation (see :meth:`Environment.run`)."""
        return self.env.run(until=until)

    def crash(self, name: str) -> None:
        """Crash site ``name``, fail-stop (see :meth:`Site.crash`)."""
        self.sites[name].crash()

    def restart(self, name: str) -> None:
        """Restart site ``name`` (see :meth:`Site.restart`)."""
        self.sites[name].restart()

    # ---------------------------------------------------------------- #
    # invariants (property-tested; see DESIGN.md §7)
    # ---------------------------------------------------------------- #

    def av_total(self, item: str) -> float:
        """AV for ``item`` summed over all sites (transfers conserve it)."""
        return sum(
            s.av_table.get(item)
            for s in self.sites.values()
            if s.av_table.defined(item)
        )

    def interested_sites(self, item: str) -> List[Site]:
        """The sites replicating ``item``: its interest set (every site
        in the paper layout)."""
        return [self.sites[n] for n in self.config.topology.sites_for(item)]

    def check_invariants(self, quiescent: bool = False) -> None:
        """Raise :class:`InvariantViolation` with the first finding of
        :func:`~repro.analysis.end_state.end_state`.

        ``quiescent=True`` additionally requires replica convergence and
        the settled-state checks — only valid when propagation is
        enabled and the event queue has drained.
        """
        from repro.analysis.end_state import end_state

        findings = end_state(self, quiescent)
        if findings:
            raise InvariantViolation(findings[0].detail)

    def __repr__(self) -> str:
        return (
            f"<DistributedSystem sites={len(self.sites)}"
            f" items={len(self.catalog)} t={self.env.now:g}>"
        )
