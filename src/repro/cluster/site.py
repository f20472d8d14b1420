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

    def restart(self):
        """Recover this site after a crash.

        Brings the endpoint back, then repairs local state exactly as a
        restarting database would:

        * WAL recovery compensates every in-flight transaction — except
          in-doubt 2PC participants, which stay prepared;
        * each in-doubt participant runs the 2PC termination protocol:
          it queries the token's coordinator for the logged decision and
          commits or aborts accordingly (spawned as processes; they
          retry while the coordinator itself is down — textbook 2PC
          blocking, surfaced rather than hidden);
        * pending lazy-sync balances are pushed so peers catch up on
          what this site committed before the crash.

        With the robustness layer on (``accelerator.reliability``), the
        whole post-WAL sequence instead runs as the gated **rejoin**
        round (:mod:`repro.cluster.rejoin`): in-doubt resolution,
        immediate catch-up, lease re-acks, a push of retained balances,
        a pull of everything live peers owe us, and AV-catalogue
        reconciliation against the base — new updates wait at the gate
        until the round completes.

        Returns the :class:`~repro.db.recovery.RecoveryReport`.
        """
        from repro.db.recovery import recover

        accel = self.accelerator
        self.endpoint.network.faults.recover(self.name)

        in_doubt = frozenset(
            txn.txn_id for txn, _item in accel.immediate._pending.values()
        )
        report = recover(self.store, accel.txns.wal, exclude=in_doubt)
        if accel.overload is not None:
            # Our peer-degradation map is stale by a whole outage; ask
            # every live peer where it stands before steering AV asks.
            self.env.process(accel.overload.probe_peers(), owner=self.name)
        if accel.reliability is not None:
            from repro.cluster.rejoin import rejoin

            # Close the gate before the process is spawned so no update
            # issued this very step can slip past the rejoin round.
            accel._rejoin_gate = Event(self.env)
            self.env.process(rejoin(self), owner=self.name)
            return report

        def sequence(env):
            # In-doubt txns MUST resolve before the snapshot pull: a
            # post-pull abort compensation would corrupt the fresh value.
            resolutions = accel.immediate.resolve_pending()
            if resolutions:
                yield env.all_of(resolutions)
            # Catch up on Immediate Updates that committed among the
            # live members while we were down (re-delivery from the
            # base, §3.2).
            yield from accel.immediate.catch_up()

        self.env.process(sequence(self.env), owner=self.name)

        # Share what we committed before dying.
        accel.sync_all()
        return report

    def __repr__(self) -> str:
        return f"<Site {self.name!r} role={self.role.value}>"
