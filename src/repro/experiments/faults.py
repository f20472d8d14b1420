"""Fault-tolerance experiment (the paper's availability claim).

The paper argues the autonomous approach is fault-tolerant because "the
data can be updated autonomously at the local site within it without any
communication". We test exactly that: crash the maker mid-run (or
partition it away) and measure retailer availability inside and outside
the fault window, for the proposal *and* the centralized baseline —
where the server's crash stops every site cold.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.baselines.centralized import CENTER, CentralizedSystem
from repro.cluster import DistributedSystem, SystemConfig, paper_config
from repro.metrics.availability import AvailabilityTracker
from repro.net.faults import FaultSchedule
from repro.workload.driver import run_open, split_by_site

from repro.experiments.fig6 import make_paper_trace


@dataclass
class FaultResult:
    """Availability per (system, site, window)."""

    #: {system_label: {site: (avail_normal, avail_during_fault)}}
    availability: Dict[str, Dict[str, tuple]]
    fault_start: float
    fault_end: float

    def retailer_availability_during_fault(self, label: str, retailers) -> float:
        cells = [self.availability[label][r][1] for r in retailers]
        return sum(cells) / len(cells) if cells else 1.0

    def rows(self) -> List[List]:
        out = []
        for label, sites in self.availability.items():
            for site, (normal, fault) in sorted(sites.items()):
                out.append([label, site, round(normal, 3), round(fault, 3)])
        return out


FAULT_HEADERS = ["system", "site", "normal", "during fault"]


def _availability(
    config: SystemConfig,
    n_updates: int,
    interarrival: float,
    fault_start: float,
    fault_end: float,
    proposal_schedule: FaultSchedule,
    centralized_schedule: FaultSchedule,
) -> FaultResult:
    """Run the paper trace open-loop on both systems under their fault
    schedule; both see the same per-site arrival streams."""
    trace = make_paper_trace(n_updates, config.seed, n_items=config.n_items)
    per_site = split_by_site(trace)
    runs = (
        ("proposal", DistributedSystem.build, proposal_schedule),
        (
            "centralized",
            lambda cfg: CentralizedSystem(
                cfg, request_timeout=cfg.request_timeout
            ),
            centralized_schedule,
        ),
    )
    availability: Dict[str, Dict[str, tuple]] = {}
    for label, build, schedule in runs:
        system = build(config)
        tracker = AvailabilityTracker(fault_start, fault_end)
        schedule.install(system)
        run_open(
            system,
            per_site,
            interarrival=interarrival,
            on_complete=lambda i, e, r: tracker.record(r),
        )
        availability[label] = {
            s: (tracker.availability(s, False), tracker.availability(s, True))
            for s in config.site_names
        }
    return FaultResult(
        availability=availability,
        fault_start=fault_start,
        fault_end=fault_end,
    )


def run_fault_experiment(
    n_updates: int = 900,
    n_items: int = 10,
    seed: int = 0,
    interarrival: float = 5.0,
    fault_start: float = 400.0,
    fault_end: float = 900.0,
    crash_site: Optional[str] = None,
) -> FaultResult:
    """Crash the maker (proposal) / the server (centralized) mid-run.

    AV requests use a timeout so retailers that ask a dead maker recover
    (the ask may still be rejected — that shows up as lost availability,
    honestly counted).
    """
    config = paper_config(n_items=n_items, seed=seed, request_timeout=10.0)

    def crash_schedule(victim):
        return FaultSchedule().crash(fault_start, victim).recover(fault_end, victim)

    return _availability(
        config, n_updates, interarrival, fault_start, fault_end,
        proposal_schedule=crash_schedule(crash_site or config.maker),
        centralized_schedule=crash_schedule(CENTER),
    )


def run_partition_experiment(
    n_updates: int = 900,
    n_items: int = 10,
    seed: int = 0,
    interarrival: float = 5.0,
    fault_start: float = 400.0,
    fault_end: float = 900.0,
) -> FaultResult:
    """Partition the maker away from the retailers, then heal.

    The retailer group keeps its own AV economy alive: local updates
    and retailer↔retailer transfers still work, only maker-bound
    transfers fail. The centralized deployment partitions *every*
    client away from the server — total outage.
    """
    config = paper_config(n_items=n_items, seed=seed, request_timeout=10.0)

    def partition_schedule(*groups):
        return FaultSchedule().partition(fault_start, *groups).heal(fault_end)

    return _availability(
        config, n_updates, interarrival, fault_start, fault_end,
        proposal_schedule=partition_schedule(
            [config.maker], list(config.retailers)
        ),
        centralized_schedule=partition_schedule(
            [CENTER], list(config.site_names)
        ),
    )
