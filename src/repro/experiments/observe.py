"""Observed runs: replay the paper workload with observability on.

``run_observed`` drives the same frozen paper workload the figure
experiments use through a proposal system built with
``SystemConfig.observe=True``, so every update records its full causal
span chain (checking → selecting → AV request at the requester →
grant/deciding at the grantor → apply), the metric registry accumulates
streaming aggregates, and a :class:`~repro.obs.sampler.PeriodicSampler`
snapshots per-site AV levels, belief staleness, lock-wait depth and
sync-queue backlog as time series.

The result object exports every format in :mod:`repro.obs.export`; the
``python -m repro observe`` subcommand is a thin wrapper
around it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro.cluster import DistributedSystem, paper_config
from repro.metrics.collector import ResultLog
from repro.obs.export import render_summary, write_chrome_trace, write_jsonl
from repro.obs.sampler import PeriodicSampler
from repro.workload.driver import run_spaced
from repro.workload.trace import WorkloadTrace

from repro.experiments.fig6 import make_paper_trace

@dataclass
class ObservedRun:
    """One observed replay: the system (with its obs hub) plus results."""

    system: DistributedSystem
    results: ResultLog = field(default_factory=ResultLog)
    n_updates: int = 0
    seed: int = 0

    @property
    def obs(self):
        return self.system.obs

    def render(self) -> str:
        """Aligned-table summary (spans, metrics, time series)."""
        title = f"observe (n={self.n_updates}, seed={self.seed})"
        return render_summary(self.obs, title=title)

    def write_chrome_trace(self, path: str) -> Dict[str, Any]:
        """Write the span tree as a Perfetto-loadable trace-event file."""
        return write_chrome_trace(path, self.obs.recorder)

    def write_jsonl(self, path: str) -> int:
        """Write spans + metrics + samples as line-delimited JSON."""
        return write_jsonl(
            path,
            spans=self.obs.recorder,
            registry=self.obs.registry,
            series=self.obs.series,
        )


def run_observed(
    n_updates: int = 300,
    seed: int = 0,
    n_items: int = 10,
    initial_stock: float = 100.0,
    n_retailers: int = 2,
    sample_interval: float = 25.0,
    sync_interval: float = 50.0,
    spacing: float = 1.0,
    trace: Optional[WorkloadTrace] = None,
) -> ObservedRun:
    """Replay the paper's proposal-system workload, observed.

    The workload is the frozen §4 paper trace both Fig. 6 and Table 1
    replay (so observed runs see exactly the traffic those figures
    count), through :func:`~repro.workload.driver.run_spaced`: sync
    passes appear as spans, and the sampler snapshots system state
    every ``sample_interval``.
    """
    if trace is None:
        trace = make_paper_trace(
            n_updates, seed, n_items=n_items,
            initial_stock=initial_stock, n_retailers=n_retailers,
        )
    config = paper_config(
        n_items=n_items,
        initial_stock=initial_stock,
        n_retailers=n_retailers,
        seed=seed,
        observe=True,
    )
    system = DistributedSystem.build(config)
    results = run_spaced(
        system, trace, sync_interval, spacing,
        sampler=PeriodicSampler(system, interval=sample_interval),
    )
    return ObservedRun(
        system=system, results=results,
        n_updates=len(trace), seed=seed,
    )
