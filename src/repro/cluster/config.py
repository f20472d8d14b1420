"""System configuration.

One :class:`SystemConfig` fully determines a simulated system (given a
seed): topology, catalogue shape, AV allocation, latency, and protocol
knobs. The defaults reproduce the paper's §4 setup: one maker (site 0,
the base) plus two retailers, 100 items, all regular, AV split equally.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Optional

from repro.cluster.catalog import item_ids
from repro.cluster.topology import Topology
from repro.core.overload import OverloadParams
from repro.net.reliable import ReliabilityParams


@lru_cache(maxsize=32)
def _paper_layout(n_retailers: int, n_items: int) -> Topology:
    """The ``flat:N`` layout, one immutable instance per shape."""
    return Topology.paper(n_retailers, item_ids(n_items))


@dataclass
class SystemConfig:
    """Everything needed to assemble a :class:`DistributedSystem`.

    The deployment is always a :class:`Topology`. Given none, the config
    gets the paper layout ``flat:n_retailers`` over ``item_ids(n_items)``,
    one instance shared by every config of that shape. A
    ``dataclasses.replace`` that changes either count must therefore
    also pass ``topology=None``.

    Attributes
    ----------
    n_retailers:
        Number of retailer sites of the paper layout (the maker/base is
        always ``site0``); ignored when ``topology`` is given.
    n_items, initial_stock, regular_fraction:
        Catalogue shape (see :func:`repro.cluster.catalog.make_catalog`).
    av_fraction:
        Fraction of each item's initial stock turned into allowable
        volume at bootstrap (1.0 = all headroom distributed).
    av_weights:
        Relative AV share per site name; defaults to equal shares.
    latency_mean:
        One-way message latency (constant model). Experiments that need
        other models construct the network themselves.
    seed:
        Root seed for every RNG stream in the run.
    propagate:
        Asynchronously push committed Delay deltas to peers.
    request_timeout:
        AV-request timeout (``None`` = wait forever; set for fault runs).
    max_rounds, max_immediate_retries:
        Protocol retry bounds (see :class:`~repro.core.accelerator.Accelerator`).

    A run's record is ``observe`` (spans and the metric registry) plus
    its event taps (AV-table, lock, message and policy events), which
    any run carries; see ``docs/observability.md``.
    """

    n_retailers: int = 2
    n_items: int = 100
    initial_stock: float = 100.0
    regular_fraction: float = 1.0
    av_fraction: float = 1.0
    av_weights: Optional[Dict[str, float]] = None
    latency_mean: float = 1.0
    seed: int = 0
    propagate: bool = False
    request_timeout: Optional[float] = None
    max_rounds: int = 8
    max_immediate_retries: int = 10
    #: False = static escrow ablation (no AV circulation)
    allow_transfers: bool = True
    #: install a SizeModel so NetworkStats also counts wire bytes
    count_bytes: bool = False
    #: record causal spans + metric registry (repro.obs); off by default
    #: so unobserved runs pay only null-recorder calls
    observe: bool = False
    #: attach the runtime protocol sanitizer (repro.analysis): audits AV
    #: conservation, hold lifecycle, lock order/deadlock and belief
    #: staleness on every event. Off by default — each hook site then
    #: costs one ``is None`` check
    sanitize: bool = False
    #: robustness layer (repro.net.reliable + repro.core.leases +
    #: crash-recovery rejoin). ``None`` keeps the seed's honest-loss
    #: behaviour; a ReliabilityParams turns on reliable propagation,
    #: AV grant leases, and rejoin-gated recovery at every site
    reliability: Optional[ReliabilityParams] = None
    #: overload robustness layer (repro.core.overload): admission
    #: control + backpressure budgets, a 2PC circuit breaker, and the
    #: NORMAL→STRAINED→DEGRADED→RECOVERING degradation state machine.
    #: ``None`` keeps the seed's unbounded behaviour byte-identical
    overload: Optional[OverloadParams] = None
    #: TEST-ONLY: name of a deliberately broken protocol variant, used
    #: by the fuzz harness to validate that its oracles actually catch
    #: planted bugs. ``"av-double-grant"`` makes every grantor ship AV
    #: without deducting it from its own table (the volume then exists
    #: twice). Empty string = correct protocol. Never set in
    #: experiments; see repro.testkit.
    inject: str = ""
    #: declarative N-site deployment shape (roles, region tree, per-item
    #: interest sets; see :mod:`repro.cluster.topology`). Omitted, the
    #: paper's ``flat:n_retailers`` layout; given, it overrides
    #: ``n_retailers`` and must cover exactly ``n_items`` catalogue items
    topology: Optional[Topology] = None

    #: names the fuzz harness accepts for ``inject``
    KNOWN_INJECTIONS = ("av-double-grant",)

    def __post_init__(self) -> None:
        if self.n_retailers < 1:
            raise ValueError("need at least one retailer")
        self.topology = self.topology or _paper_layout(
            self.n_retailers, self.n_items
        )
        if len(self.topology.items) != self.n_items:
            raise ValueError(
                f"topology covers {len(self.topology.items)} items but"
                f" n_items={self.n_items}"
            )
        if self.inject and self.inject not in self.KNOWN_INJECTIONS:
            raise ValueError(
                f"unknown injection {self.inject!r};"
                f" choose from {self.KNOWN_INJECTIONS}"
            )
        if not 0.0 <= self.av_fraction <= 1.0:
            raise ValueError(f"av_fraction {self.av_fraction} not in [0, 1]")
        if not self.latency_mean >= 0:
            raise ValueError(f"negative or NaN latency_mean {self.latency_mean}")
        if self.request_timeout is not None and not self.request_timeout > 0:
            raise ValueError(
                f"request_timeout {self.request_timeout} is not positive"
            )

    @property
    def n_sites(self) -> int:
        return self.topology.n_sites

    @property
    def site_names(self) -> list[str]:
        """The topology's deployment order: the maker/base ``site0``
        first (then ``site1..siteN`` in the paper layout)."""
        return self.topology.names

    @property
    def maker(self) -> str:
        return self.topology.maker

    @property
    def retailers(self) -> list[str]:
        """Every non-maker site (aggregators included, when present);
        use ``topology.leaves`` for just the user-facing sites."""
        return self.site_names[1:]


def paper_config(**overrides) -> SystemConfig:
    """The §4 simulation configuration, with keyword overrides."""
    return SystemConfig(**overrides)
