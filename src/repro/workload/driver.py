"""Workload drivers: feed generated events into a system.

Two arrival disciplines:

* **closed** (:func:`run_closed`) — issue one update, wait for its
  completion event (``system.update`` returns an event whose value is
  the result; only updates that may suspend are processes), issue the
  next. This matches the paper's Fig. 6 x-axis ("the total number of
  updates in the system") where correspondences are sampled at exact
  update counts.
* **open** (:func:`run_open`) — every site runs its own arrival process
  with an inter-arrival time; updates overlap. Used by the latency and
  fault benches where concurrency matters.

:func:`run_spaced` is the closed discipline with the lazy-sync daemons
running beside it — the replay ``repro check`` and ``repro observe``
share. :func:`heal_and_settle` is the settle phase
:func:`~repro.experiments.chaos.run_faulted` runs before judging.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.cluster.system import DistributedSystem
from repro.core.sync import SyncScheduler
from repro.core.types import UpdateResult
from repro.metrics.collector import ResultLog
from repro.obs.sampler import PeriodicSampler
from repro.workload.generators import WorkloadEvent
from repro.workload.trace import WorkloadTrace

#: callback invoked after every finished update: (index, event, result)
CompletionHook = Callable[[int, WorkloadEvent, UpdateResult], None]


def run_closed(
    system: DistributedSystem,
    events: Iterable[WorkloadEvent],
    on_complete: Optional[CompletionHook] = None,
) -> ResultLog:
    """Issue events sequentially; returns all results in order: a live
    view of the collector's log from the run's first update on."""
    start = len(system.collector.results)
    if on_complete is None and isinstance(events, WorkloadTrace):
        events = events.rows()  # no hook reads the events: build none

    def driver():
        for i, event in enumerate(events):
            site, item, delta = event
            result = yield system.update(site, item, delta)
            if on_complete is not None:
                on_complete(i, event, result)

    proc = system.env.process(driver())
    system.run()
    if not proc.triggered:  # pragma: no cover - deadlock guard
        raise RuntimeError("workload driver did not finish (protocol hang?)")
    if not proc.ok:
        raise proc.value
    return system.collector.results.since(start)


def run_open(
    system: DistributedSystem,
    per_site_events: dict[str, Iterable[WorkloadEvent]],
    interarrival: float,
    on_complete: Optional[CompletionHook] = None,
    until: Optional[float] = None,
    open_loop: bool = False,
) -> ResultLog:
    """Run one arrival process per site, updates overlapping freely.

    Each site's stream is issued with fixed ``interarrival`` spacing.
    Events in a site's stream must belong to that site.

    By default each site's driver waits for an update to finish before
    issuing the next (closed per site, overlap only across sites). With
    ``open_loop=True`` the driver issues at the arrival rate regardless
    of completion — the surge discipline: per-site concurrency is then
    unbounded unless the system itself sheds load (the overload layer's
    admission control).

    Returns the results in completion order: a live view of the
    collector's log from the run's first update on, which may be shorter
    than the stream if ``until`` cuts updates off mid-flight. Live means
    it keeps growing while the system runs on: updates still in flight
    at ``until`` join it when a later run completes them, which
    :attr:`~repro.experiments.chaos.FaultedRun.updates_completed`
    relies on.

    ``until`` bounds the simulation clock — required when background
    daemons (rebalancer, sync scheduler) run forever; without it the run
    lasts until the event queue drains.
    """
    start = len(system.collector.results)
    counter = [0]

    def collector(event):
        def collect(ev):
            if ev.ok and isinstance(ev.value, UpdateResult):
                on_complete(counter[0], event, ev.value)
                counter[0] += 1

        return collect

    def site_driver(env, site_name, events):
        for event in events:
            if event.site != site_name:
                raise ValueError(
                    f"event {event} routed to wrong site {site_name!r}"
                )
            yield env.timeout(interarrival)
            faults = system.network.faults  # what Site.crashed reads
            if not faults.quiet and faults.is_crashed(site_name):
                continue  # a crashed site generates no load
            if open_loop:
                done = system.update(event.site, event.item, event.delta)
                if on_complete is not None:
                    done.callbacks.append(collector(event))
                continue
            result = yield system.update(event.site, event.item, event.delta)
            if on_complete is not None:
                on_complete(counter[0], event, result)
            counter[0] += 1

    procs = [
        system.env.process(site_driver(system.env, name, events))
        for name, events in per_site_events.items()
    ]
    system.run(until=until)
    for proc in procs:
        # A driver may end the run untriggered if `until` cut it short.
        if proc.triggered and not proc.ok:  # pragma: no cover - bug guard
            raise proc.value
    return system.collector.results.since(start)


def run_spaced(
    system: DistributedSystem,
    events: Iterable[WorkloadEvent],
    sync_interval: float,
    spacing: float,
    sampler: Optional[PeriodicSampler] = None,
) -> ResultLog:
    """Closed replay with idle ``spacing`` and one sync daemon per site.

    Lazy sync runs on a real :class:`SyncScheduler` per site, so sync
    passes happen (and appear as spans) during the run; ``spacing``
    idles the driver between updates — without it, a mostly-local
    workload completes in almost no simulated time and the periodic
    processes never fire. ``sampler``, when given, snapshots system
    state alongside and once more at the end of the workload. Ends
    quiescent, with the lazy backlog flushed and ``check_invariants()``
    passed. Returns the run's results, as :func:`run_closed` does.
    """
    start = len(system.collector.results)

    def driver(env):
        # system.update reports each result to the collector.
        for event in events:
            yield system.update(event.site, event.item, event.delta)
            if spacing > 0:
                yield env.timeout(spacing)

    daemons: list = [
        SyncScheduler(site.accelerator, interval=sync_interval)
        for site in system.sites.values()
    ]
    if sampler is not None:
        daemons.append(sampler)
    proc = system.env.process(driver(system.env))
    for daemon in daemons:
        daemon.start()
    # The periodic processes never finish on their own, so run to the
    # driver's completion, stop them, then drain the in-flight tail
    # (sync pushes, propagation) so the trace is complete.
    system.run(until=proc)
    for site in system.sites.values():
        site.accelerator.sync_all()  # flush the remaining lazy backlog
    if sampler is not None:
        sampler.sample_once()  # final snapshot at the end of the workload
    for daemon in daemons:
        daemon.stop()
    system.run()
    system.check_invariants()
    return system.collector.results.since(start)


def heal_and_settle(
    system: DistributedSystem,
    schedulers: Iterable[SyncScheduler],
    settle: float,
) -> None:
    """Bring a faulted run to quiescence so its end state can be judged.

    Every fault class is cleared and every site still down rejoins —
    convergence is only promised for fault windows that end. Then
    ``settle`` sim-time lets the drivers finish, rejoins complete and
    retransmissions and lease probes resolve; the sync ``schedulers``
    stop, the queue drains, and sync backlogs are flushed to a fixpoint
    (an update completing after the schedulers stop still leaves owed
    balances behind). With the overload layer on, quiescence stands in
    for the recovery hold: every controller walks back to NORMAL, the
    re-promotions that spawns run, and the balances and reconciliation
    traffic they leave are flushed too.
    """
    faults = system.network.faults
    faults.heal()
    faults.clear_link_faults()
    faults.set_drop_probability(0.0)
    names = sorted(system.sites)
    for name in names:
        system.restart(name)

    system.run(until=system.env.now + settle)
    for scheduler in schedulers:
        scheduler.stop()
    system.run()

    def drain_sync() -> None:
        while True:
            for name in names:
                system.sites[name].accelerator.sync_all()
            system.run()
            if not any(
                system.sites[name].accelerator.unsynced_items()
                for name in names
            ):
                break

    drain_sync()
    if system.config.overload is not None:
        for name in names:
            system.sites[name].accelerator.overload.finalize(system.env.now)
        system.run()
        drain_sync()


def split_by_site(events: Iterable[WorkloadEvent]) -> dict[str, WorkloadTrace]:
    """Partition one interleaved stream into per-site traces (columns,
    like the stream's own trace; sites in order of first appearance)."""
    if not isinstance(events, WorkloadTrace):
        events = WorkloadTrace(events)
    return events.by_site()
