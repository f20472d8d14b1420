"""Supply-chain agents: the paper's §1.1 actors as simulation processes.

* :class:`RetailerAgent` — serves customer orders. Regular products ship
  from stock (a Delay Update, the real-time path); non-regular products
  are made to order (an Immediate Update involving the maker). Rejected
  and aborted updates are **lost sales**, the business cost of exhausted
  stock.
* :class:`MakerAgent` — manufactures: periodically tops up a sample of
  products (minting AV for regular ones via Delay, synchronously for
  non-regular ones via Immediate).
* :class:`SCMSimulation` — wires agents onto a
  :class:`~repro.cluster.system.DistributedSystem` and summarises the
  business outcome.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.cluster.system import DistributedSystem
from repro.core.types import UpdateOutcome


#: business-level message tag (replenishment orders retailer -> maker);
#: canonically declared in the protocol registry
from repro.net.protocol import TAG_SCM  # noqa: F401


@dataclass
class SalesReport:
    """Business-level counters for one retailer."""

    served: int = 0
    lost: int = 0
    revenue_units: float = 0.0
    #: sales saved by ordering a manufacture from the maker (§1.1:
    #: "If they do not have enough stock, they order them to makers")
    backorders_filled: int = 0
    replenishments_requested: int = 0

    @property
    def service_level(self) -> float:
        total = self.served + self.lost
        return self.served / total if total else 1.0


class RetailerAgent:
    """Customer-order loop at one retailer site.

    With ``replenish=True`` (the paper's §1.1 behaviour) a sale that
    cannot be covered triggers an order *to the maker*: the maker
    manufactures (a stock increment that mints AV), and the retailer
    retries the sale once. Without it, uncovered demand is a lost sale.
    """

    def __init__(
        self,
        system: DistributedSystem,
        site: str,
        rng: np.random.Generator,
        mean_interarrival: float = 5.0,
        max_quantity: int = 5,
        zipf_skew: Optional[float] = None,
        replenish: bool = False,
        replenish_batch: float = 4.0,
    ) -> None:
        if mean_interarrival <= 0:
            raise ValueError("mean_interarrival must be positive")
        if replenish_batch < 1.0:
            raise ValueError("replenish_batch must be >= 1")
        self.system = system
        self.site = site
        self.rng = rng
        self.mean_interarrival = mean_interarrival
        self.max_quantity = max_quantity
        self.zipf_skew = zipf_skew
        self.replenish = replenish
        self.replenish_batch = replenish_batch
        self.report = SalesReport()
        self._items = system.catalog.items()

    def _pick_item(self) -> str:
        if self.zipf_skew is None:
            return self._items[int(self.rng.integers(len(self._items)))]
        while True:
            rank = int(self.rng.zipf(self.zipf_skew))
            if rank <= len(self._items):
                return self._items[rank - 1]

    def run(self, until: float):
        """Generator process: serve customers until simulated ``until``."""
        env = self.system.env
        while env.now < until:
            yield env.timeout(float(self.rng.exponential(self.mean_interarrival)))
            if env.now >= until:
                break
            if self.system.sites[self.site].crashed:
                continue
            item = self._pick_item()
            qty = int(self.rng.integers(1, self.max_quantity + 1))
            result = yield self.system.update(self.site, item, -qty)
            if result.outcome is UpdateOutcome.COMMITTED:
                self.report.served += 1
                self.report.revenue_units += qty
                continue
            if self.replenish and not self.system.maker.crashed:
                # §1.1: order the shortfall (plus a batch margin) from
                # the maker, then retry the sale once.
                self.report.replenishments_requested += 1
                endpoint = self.system.sites[self.site].endpoint
                reply = yield endpoint.request(
                    self.system.config.maker,
                    "scm.replenish",
                    {"item": item, "quantity": qty * self.replenish_batch},
                    tag=TAG_SCM,
                )
                if reply["manufactured"]:
                    retry = yield self.system.update(self.site, item, -qty)
                    if retry.outcome is UpdateOutcome.COMMITTED:
                        self.report.served += 1
                        self.report.revenue_units += qty
                        self.report.backorders_filled += 1
                        continue
            self.report.lost += 1


class MakerAgent:
    """Manufacturing loop at the maker site.

    Also serves on-demand replenishment orders from retailers
    (``scm.replenish``): the maker manufactures the requested quantity
    — a stock increment that, for regular products, mints AV the
    requesting retailer can then pull.
    """

    def __init__(
        self,
        system: DistributedSystem,
        rng: np.random.Generator,
        interval: float = 10.0,
        batch_items: int = 5,
        batch_quantity: int = 20,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.system = system
        self.site = system.config.maker
        self.rng = rng
        self.interval = interval
        self.batch_items = batch_items
        self.batch_quantity = batch_quantity
        self.manufactured_units = 0.0
        self.replenishments_served = 0
        self._items = system.catalog.items()
        system.maker.endpoint.on("scm.replenish", self._handle_replenish)

    def _handle_replenish(self, msg):
        """Manufacture on demand for a retailer's order (generator)."""
        if self.system.maker.crashed:  # pragma: no cover - dropped anyway
            return {"manufactured": False}
        result = yield self.system.update(
            self.site, msg.payload["item"], float(msg.payload["quantity"])
        )
        if result.committed:
            self.manufactured_units += msg.payload["quantity"]
            self.replenishments_served += 1
        return {"manufactured": result.committed}

    def run(self, until: float):
        """Generator process: manufacture in batches until ``until``."""
        env = self.system.env
        while env.now < until:
            yield env.timeout(self.interval)
            if env.now >= until:
                break
            if self.system.sites[self.site].crashed:
                continue
            picks = self.rng.choice(
                len(self._items),
                size=min(self.batch_items, len(self._items)),
                replace=False,
            )
            for idx in picks:
                item = self._items[int(idx)]
                qty = int(self.rng.integers(1, self.batch_quantity + 1))
                result = yield self.system.update(self.site, item, qty)
                if result.committed:
                    self.manufactured_units += qty


@dataclass
class SCMOutcome:
    """End-of-run summary of an SCM simulation."""

    retailer_reports: Dict[str, SalesReport]
    manufactured_units: float
    correspondences: float
    #: delay updates completed without communication, as a fraction of
    #: all delay updates (1.0 when there were none)
    local_ratio: float

    @property
    def total_served(self) -> int:
        return sum(r.served for r in self.retailer_reports.values())

    @property
    def total_lost(self) -> int:
        return sum(r.lost for r in self.retailer_reports.values())

    @property
    def service_level(self) -> float:
        total = self.total_served + self.total_lost
        return self.total_served / total if total else 1.0


class SCMSimulation:
    """Full SCM scenario runner."""

    def __init__(
        self,
        system: DistributedSystem,
        mean_interarrival: float = 5.0,
        maker_interval: float = 10.0,
        max_quantity: int = 5,
        zipf_skew: Optional[float] = None,
        replenish: bool = False,
    ) -> None:
        self.system = system
        self.retailer_agents: List[RetailerAgent] = [
            RetailerAgent(
                system,
                site.name,
                system.rngs.stream(f"{site.name}.orders"),
                mean_interarrival=mean_interarrival,
                max_quantity=max_quantity,
                zipf_skew=zipf_skew,
                replenish=replenish,
            )
            for site in system.retailers
        ]
        self.maker_agent = MakerAgent(
            system,
            system.rngs.stream("maker.manufacturing"),
            interval=maker_interval,
        )

    def run(self, until: float) -> SCMOutcome:
        env = self.system.env
        for agent in self.retailer_agents:
            env.process(agent.run(until))
        env.process(self.maker_agent.run(until))
        self.system.run(until=until)
        # Drain in-flight protocol traffic: agents stop generating load
        # past the horizon, so this only completes open transactions
        # (checking consistency mid-2PC would be a false alarm).
        self.system.run()
        from repro.core.types import UPDATE_TAGS, UpdateKind

        delay = local = 0
        for kind, local_only in self.system.collector.results.columns(
            "kind", "local_only"
        ):
            if kind is UpdateKind.DELAY:
                delay += 1
                local += local_only
        return SCMOutcome(
            retailer_reports={
                a.site: a.report for a in self.retailer_agents
            },
            manufactured_units=self.maker_agent.manufactured_units,
            correspondences=self.system.stats.correspondences_for_tags(UPDATE_TAGS),
            local_ratio=local / delay if delay else 1.0,
        )
