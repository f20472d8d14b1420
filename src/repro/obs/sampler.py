"""Periodic time-series sampling of system state.

The span layer answers "what did this update do"; the sampler answers
"what did the *system* look like over time": per-site AV levels, belief
staleness (believed vs. actual AV at other sites), lock-wait depth, and
sync-queue backlog, snapshotted every ``interval`` sim-time units into
the run's :class:`TimeSeriesStore`.

Runs as a simulation process in the style of
:class:`~repro.core.sync.SyncScheduler`; drive the workload with
``run(until=...)`` (or stop the sampler) so the event queue can drain.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Tuple

from repro.sim.process import Periodic

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.system import DistributedSystem


class TimeSeriesStore:
    """Named ``(time, value)`` series, appended in sample order."""

    def __init__(self) -> None:
        self._series: Dict[str, List[Tuple[float, float]]] = {}

    def record(self, name: str, t: float, value: float) -> None:
        self._series.setdefault(name, []).append((t, value))

    def series(self, name: str) -> List[Tuple[float, float]]:
        """Samples of ``name`` (empty if never recorded)."""
        return self._series.get(name, [])

    def names(self) -> List[str]:
        return sorted(self._series)

    def last(self, name: str) -> float:
        """Most recent value of ``name`` (0 if never recorded)."""
        points = self._series.get(name)
        return points[-1][1] if points else 0.0

    def __contains__(self, name: str) -> bool:
        return name in self._series

    def __len__(self) -> int:
        return len(self._series)

    def __repr__(self) -> str:
        return f"<TimeSeriesStore series={len(self._series)}>"


class PeriodicSampler(Periodic):
    """Snapshots per-site state into the system's time-series store.

    Series written per site ``s``:

    * ``av.level.<s>`` — total AV held across the site's items;
    * ``belief.error.<s>`` — mean |believed − actual| AV over every
      (peer, item) belief the site holds (staleness in volume units);
    * ``belief.age.<s>`` — age of the site's stalest belief;
    * ``lock.wait.<s>`` — updates queued on the site's lock manager;
    * ``sync.backlog.<s>`` — pending lazy-sync (peer, item) balances.
    """

    def __init__(
        self,
        system: "DistributedSystem",
        interval: float = 25.0,
    ) -> None:
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.system = system
        self.env = system.env
        self.store = system.obs.series
        self.interval = interval
        #: sampling passes completed (diagnostic)
        self.passes = 0

    # ---------------------------------------------------------------- #
    # one snapshot
    # ---------------------------------------------------------------- #

    def sample_once(self) -> None:
        """Record one sample of every series at the current sim time."""
        system = self.system
        store = self.store
        now = system.env.now
        sites = system.sites
        for name, site in sites.items():
            accel = site.accelerator
            store.record(f"av.level.{name}", now, accel.av_table.total())

            error = 0.0
            age = 0.0
            beliefs = 0
            for peer, item, belief in accel.beliefs.entries():
                peer_site = sites.get(peer)
                if peer_site is None:
                    continue
                actual = (
                    peer_site.av_table.get(item)
                    if peer_site.av_table.defined(item)
                    else 0.0
                )
                error += abs(belief.volume - actual)
                age = max(age, now - belief.observed_at)
                beliefs += 1
            store.record(
                f"belief.error.{name}", now, error / beliefs if beliefs else 0.0
            )
            store.record(f"belief.age.{name}", now, age)

            store.record(
                f"lock.wait.{name}", now, float(accel.locks.total_waiting())
            )
            store.record(f"sync.backlog.{name}", now, float(accel.owed_pairs))
        self.passes += 1

    tick = sample_once

    def __repr__(self) -> str:
        return (
            f"<PeriodicSampler interval={self.interval}"
            f" passes={self.passes}>"
        )
