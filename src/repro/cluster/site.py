"""A site: local DB + accelerator + network endpoint (paper Fig. 2)."""

from __future__ import annotations

import enum
from typing import TYPE_CHECKING, Optional

from repro.core.accelerator import Accelerator
from repro.core.types import UpdateResult
from repro.db.storage import Store
from repro.net.endpoint import Endpoint
from repro.sim.events import Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.metrics.collector import MetricsCollector


#: The state a crash (Site.crash) keeps, as paths from the accelerator;
#: Site.restart rebuilds the rest from it (a declaration, not walked).
DURABLE = (
    "store",                # the database (WAL recovery repairs it)
    "av_table",             # the AV management table beside it
    "txns.wal",             # open transactions, prepared 2PC participants
    "immediate.decisions",  # the 2PC coordinator's decision log
    "leases",               # lease grants still open, and receipts
    "owed",                 # retained propagation balances, and
    "reliable",             # the deliveries carrying them; seen seq numbers
)


class SiteRole(enum.Enum):
    MAKER = "maker"
    #: regional AV pool in a hierarchical topology: holds AV on behalf
    #: of its subtree and re-grants downward; no user traffic
    AGGREGATOR = "aggregator"
    RETAILER = "retailer"


class Site:
    """One participant in the distributed database.

    Thin composition object: owns the store, the endpoint and the
    accelerator, and reports finished updates to the shared collector.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        store: Store,
        accelerator: Accelerator,
        role: SiteRole,
        collector: Optional["MetricsCollector"] = None,
    ) -> None:
        self.endpoint = endpoint
        self.store = store
        self.accelerator = accelerator
        self.role = role
        self.collector = collector
        self.env = endpoint.env

    @property
    def name(self) -> str:
        return self.endpoint.name

    @property
    def is_maker(self) -> bool:
        return self.role is SiteRole.MAKER

    @property
    def av_table(self):
        return self.accelerator.av_table

    @property
    def crashed(self) -> bool:
        return self.endpoint.crashed

    def update(self, item: str, delta: float) -> Event:
        """Issue an update; the returned event's value is the
        UpdateResult (see :meth:`Accelerator.update`)."""
        done = self.accelerator.update(item, delta)
        if self.collector is not None:
            done.callbacks.append(self._record)
        return done

    def _record(self, event) -> None:
        # The event's slots, not its guarded properties: it has fired.
        result = event._value
        if event._ok and isinstance(result, UpdateResult):
            self.collector.record(result)

    def value(self, item: str) -> float:
        """The site's current replica value for ``item``."""
        return self.store.value(item)

    def crash(self) -> None:
        """Fail-stop: the links go down, every process the site owns is
        killed in ``env.owned`` order (a process that catches the crash
        sends nothing; an interrupted update ends FAILED), and memory
        goes: the lock table and its queues, request waiters (so their
        deadlines), in-doubt participants, undecided coordinations. What
        remains is :data:`DURABLE`. A site already down is left alone."""
        if self.crashed:
            return
        self.endpoint.network.faults.crash(self.name)
        cause = f"{self.name} crashed"
        while procs := self.env.owned(self.name):  # a cleanup may spawn
            for proc in procs:
                proc.kill(cause)
        accel = self.accelerator
        accel.locks.clear()
        self.endpoint._pending.clear()
        accel.immediate._pending.clear()
        accel.immediate.in_progress.clear()

    def restart(self):
        """Recover this site after a crash.

        Brings the endpoint back, then rebuilds what the crash ended
        from :data:`DURABLE`, as a restarting database would: WAL
        recovery compensates every in-flight transaction except the
        prepared 2PC participants, which re-enter as in-doubt and take
        their item locks back; open leases get expiry timers, cut-short
        reliable deliveries resume, the daemons start again. Each
        in-doubt participant then asks its coordinator for the logged
        decision until it answers (textbook 2PC blocking), the site
        catches up (:meth:`ImmediateUpdateProtocol.recover`) and pushes
        its retained lazy-sync balances: with the robustness layer on,
        as the gated **rejoin** round (:mod:`repro.cluster.rejoin`),
        which new updates wait for.

        Returns the :class:`~repro.db.recovery.RecoveryReport`, or
        ``None`` for a site that is up (a shrunk fuzz case may keep a
        recover step whose crash it dropped)."""
        from repro.db.recovery import recover

        if not self.crashed:
            return None
        accel = self.accelerator
        self.endpoint.network.faults.recover(self.name)

        wal = accel.txns.wal
        report = recover(self.store, wal, exclude=frozenset(wal.prepared))
        accel.immediate.reload()
        for daemon in list(accel.daemons):
            daemon.start()
        if accel.overload is not None:
            # Our peer-degradation map is stale by a whole outage; ask
            # every live peer where it stands before steering AV asks.
            self.env.process(accel.overload.probe_peers(), owner=self.name)
        if accel.reliability is None:
            self.env.process(accel.immediate.recover(), owner=self.name)
            accel.sync_all()  # share what we committed before dying
            return report

        from repro.cluster.rejoin import rejoin

        accel.leases.rearm()
        accel.reliable.resume()
        # Close the gate before the process is spawned so no update
        # issued this very step can slip past the rejoin round.
        accel._rejoin_gate = Event(self.env)
        self.env.process(rejoin(self), owner=self.name)
        return report

    def __repr__(self) -> str:
        return f"<Site {self.name!r} role={self.role.value}>"
