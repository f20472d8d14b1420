"""Update-latency comparison: proposal vs centralized.

The paper claims the real-time property: Delay Updates complete at the
local site without waiting on the network. Under a constant one-way
latency L, a local completion takes 0 simulated time, an AV gathering
round trip 2L per request, and every centralized update exactly 2L.
This experiment quantifies the distribution under the open workload.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List

from repro.baselines.centralized import CentralizedSystem
from repro.cluster import DistributedSystem, paper_config
from repro.core.types import UpdateOutcome
from repro.metrics.latency import LatencySummary, summarize
from repro.workload.driver import run_open, split_by_site

from repro.experiments.fig6 import make_paper_trace

LATENCY_HEADERS = ["system", "n", "mean", "p50", "p90", "p99", "max"]


@dataclass
class LatencyResult:
    summaries: Dict[str, LatencySummary]

    def rows(self) -> List[List]:
        return [
            [label, s.count, round(s.mean, 3), round(s.p50, 3),
             round(s.p90, 3), round(s.p99, 3), round(s.max, 3)]
            for label, s in self.summaries.items()
        ]

    def speedup(self) -> float:
        """Centralized mean latency / proposal mean latency."""
        prop = self.summaries["proposal"].mean
        conv = self.summaries["centralized"].mean
        return conv / prop if prop > 0 else float("inf")


def _committed_latencies(results) -> List[float]:
    """Issue-to-finish times of the committed updates, read from the
    result log's columns."""
    return [
        finished_at - issued_at
        for outcome, finished_at, issued_at
        in results.columns("outcome", "finished_at", "issued_at")
        if outcome is UpdateOutcome.COMMITTED
    ]


def run_latency_experiment(
    n_updates: int = 900,
    n_items: int = 10,
    seed: int = 0,
    interarrival: float = 5.0,
    latency_mean: float = 1.0,
) -> LatencyResult:
    """Measure committed-update latency under the open workload."""
    config = paper_config(n_items=n_items, seed=seed, latency_mean=latency_mean)
    trace = make_paper_trace(n_updates, seed, n_items=n_items)
    per_site = split_by_site(trace)

    summaries: Dict[str, LatencySummary] = {}

    system = DistributedSystem.build(config)
    summaries["proposal"] = summarize(_committed_latencies(
        run_open(system, per_site, interarrival=interarrival)
    ))

    central = CentralizedSystem(config)
    summaries["centralized"] = summarize(_committed_latencies(
        run_open(central, per_site, interarrival=interarrival)
    ))
    return LatencyResult(summaries=summaries)
