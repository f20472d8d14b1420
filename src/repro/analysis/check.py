"""Sanitized paper-workload replays: ``python -m repro check``.

Replays the frozen §4 paper workload (the one Fig. 6 and Table 1 both
count) on a system built with ``sanitize=True`` **and** ``observe=True``
— observation is on so every violation can name the span and trace of
the responsible update — then renders the
:class:`~repro.analysis.invariants.SanitizerReport`.  Zero violations is
the CI gate; warnings (stale-belief counts, conservative in-transit
losses) are informational.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.invariants import SanitizerReport
from repro.cluster import DistributedSystem, paper_config
from repro.metrics.collector import ResultLog
from repro.workload.driver import run_spaced
from repro.workload.trace import WorkloadTrace

@dataclass
class CheckRun:
    """One sanitized replay: system, per-update results, and the report."""

    system: DistributedSystem
    report: SanitizerReport
    results: ResultLog = field(default_factory=ResultLog)
    n_updates: int = 0
    seed: int = 0

    @property
    def ok(self) -> bool:
        return self.report.ok

    def render(self) -> str:
        header = (
            f"check (n={self.n_updates}, seed={self.seed}):"
            f" {'PASS' if self.ok else 'FAIL'}"
        )
        return header + "\n" + self.report.render()


def run_check(
    n_updates: int = 1000,
    seed: int = 0,
    n_items: int = 10,
    initial_stock: float = 100.0,
    n_retailers: int = 2,
    sync_interval: float = 50.0,
    spacing: float = 1.0,
    trace: Optional[WorkloadTrace] = None,
) -> CheckRun:
    """Replay the frozen §4 paper workload under the runtime sanitizer."""
    if trace is None:
        from repro.experiments.fig6 import make_paper_trace

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
        sanitize=True,
    )
    system = DistributedSystem.build(config)

    # run_spaced ends with the coarse whole-system assertions; the
    # sanitizer's audit refines them with per-event granularity.
    results = run_spaced(system, trace, sync_interval, spacing)
    return CheckRun(
        system=system,
        report=system.sanitizer.finish(),
        results=results, n_updates=len(trace), seed=seed,
    )
