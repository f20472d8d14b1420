"""The conventional centralized baseline (the paper's Fig. 6 "conventional").

Sites hold no update authority: every update — wherever it originates —
is a request/reply round trip to a central database server, i.e. exactly
**one correspondence per update**, growing linearly. This is the
"centralized approach" the paper's §1 criticises for fault-tolerance,
real-time and flexibility, and the line its Fig. 6 compares against.

:class:`CentralizedSystem` exposes the same driving surface as
:class:`~repro.cluster.system.DistributedSystem` (``env``, ``update``,
``run``, ``stats``, ``collector``, ``rngs``, ``sites``) so workload
drivers and the experiment harness treat both uniformly.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.cluster.catalog import ProductCatalog, make_catalog
from repro.cluster.config import SystemConfig
from repro.core.types import (
    TAG_CENTRAL,
    UpdateKind,
    UpdateOutcome,
    UpdateRequest,
    UpdateResult,
)
from repro.db.storage import Store
from repro.db.transaction import TransactionManager
from repro.metrics.collector import MetricsCollector
from repro.net.endpoint import CrashedEndpointError, Endpoint, RequestTimeout
from repro.net.latency import ConstantLatency
from repro.net.network import Network
from repro.sim.engine import Environment
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

#: endpoint name of the central database server
CENTER = "center"


class CentralClient:
    """A site in the centralized deployment: no local authority."""

    def __init__(self, system: "CentralizedSystem", endpoint: Endpoint) -> None:
        self.system = system
        self.endpoint = endpoint
        self.env = endpoint.env
        # Read-only replica, refreshed only when the server replicates.
        self.store = Store(endpoint.name)
        endpoint.on("central.replicate", self._handle_replicate)
        from itertools import count as _count

        self._req_ids = _count(1)

    @property
    def name(self) -> str:
        return self.endpoint.name

    @property
    def crashed(self) -> bool:
        return self.endpoint.crashed

    def _handle_replicate(self, msg) -> None:
        self.store.apply_delta(msg.payload["item"], msg.payload["delta"], force=True)

    def update(self, item: str, delta: float) -> Process:
        req = UpdateRequest(
            site=self.name,
            item=item,
            delta=delta,
            issued_at=self.env.now,
            request_id=next(self._req_ids),
        )
        return self.env.process(self._run(req), owner=self.name)

    def _run(self, req: UpdateRequest):
        try:
            reply = yield self.endpoint.request(
                CENTER,
                "central.update",
                {"item": req.item, "delta": req.delta},
                tag=TAG_CENTRAL,
                timeout=self.system.request_timeout,
            )
        except (RequestTimeout, CrashedEndpointError):
            outcome = UpdateOutcome.FAILED
        else:
            outcome = (
                UpdateOutcome.COMMITTED
                if reply["committed"]
                else UpdateOutcome.REJECTED
            )
        result = UpdateResult(
            request=req,
            kind=UpdateKind.IMMEDIATE,  # every update is globally synchronous
            outcome=outcome,
            local_only=False,
            finished_at=self.env.now,
        )
        self.system.collector.record(result)
        return result


class CentralServer:
    """The central database server endpoint."""

    def __init__(self, system: "CentralizedSystem", endpoint: Endpoint) -> None:
        self.system = system
        self.endpoint = endpoint
        self.store = Store(CENTER)
        self.txns = TransactionManager(self.store)
        endpoint.on("central.update", self._handle_update)

    def _handle_update(self, msg) -> dict:
        item, delta = msg.payload["item"], msg.payload["delta"]
        if self.store.value(item) + delta < 0:
            return {"committed": False}
        self.txns.apply_atomic(item, delta)
        if self.system.replicate:
            for client in self.system.clients.values():
                self.endpoint.send(
                    client.name,
                    "central.replicate",
                    {"item": item, "delta": delta},
                    tag=TAG_CENTRAL,
                )
        return {"committed": True}


class CentralizedSystem:
    """Fully assembled centralized deployment.

    Parameters
    ----------
    config:
        Reuses :class:`SystemConfig` for topology/catalogue/latency/seed.
    replicate:
        When ``True`` the server pushes every committed delta to all
        clients (keeps their read replicas fresh at extra message cost).
        The paper's conventional line corresponds to ``False`` (clients
        read through the server).
    """

    def __init__(
        self,
        config: Optional[SystemConfig] = None,
        catalog: Optional[ProductCatalog] = None,
        replicate: bool = False,
        request_timeout: Optional[float] = None,
    ) -> None:
        self.config = config if config is not None else SystemConfig()
        self.replicate = replicate
        self.request_timeout = request_timeout
        self.env = Environment()
        self.rngs = RngRegistry(self.config.seed)
        from repro.net.sizes import SizeModel

        self.network = Network(
            self.env,
            latency=ConstantLatency(self.config.latency_mean),
            rng=self.rngs.stream("net.latency"),
            size_model=SizeModel() if self.config.count_bytes else None,
        )
        self.catalog = (
            catalog
            if catalog is not None
            else make_catalog(
                self.config.n_items,
                initial_stock=self.config.initial_stock,
                regular_fraction=self.config.regular_fraction,
            )
        )
        self.collector = MetricsCollector()

        self.server = CentralServer(self, self.network.endpoint(CENTER))
        self.clients: Dict[str, CentralClient] = {
            name: CentralClient(self, self.network.endpoint(name))
            for name in self.config.site_names
        }
        #: drivers expect a ``sites`` mapping with ``.crashed``
        self.sites = self.clients

        for product in self.catalog:
            self.collector.ledger.set_initial(product.item, product.initial_stock)
            self.server.store.insert(product.item, product.initial_stock)
            for client in self.clients.values():
                client.store.insert(product.item, product.initial_stock)

    @property
    def stats(self):
        return self.network.stats

    def update(self, site: str, item: str, delta: float) -> Process:
        return self.clients[site].update(item, delta)

    def run(self, until=None):
        return self.env.run(until=until)

    # A crash cuts the links: all fail-stop does to the server, which
    # runs no process (its experiments crash nothing else).
    def crash(self, name: str) -> None:
        self.network.faults.crash(name)

    def restart(self, name: str) -> None:
        self.network.faults.recover(name)

    def __repr__(self) -> str:
        return (
            f"<CentralizedSystem clients={len(self.clients)}"
            f" replicate={self.replicate}>"
        )
