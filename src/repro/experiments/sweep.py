"""Generic parameter sweeps over the fig6-style paired comparison."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, List, Sequence

from repro.cluster import SystemConfig, paper_config
from repro.workload.trace import WorkloadTrace

from repro.experiments.fig6 import make_paper_trace
from repro.experiments.runner import correspondence_reduction, run_paired


@dataclass
class SweepPoint:
    """One sweep cell: parameter value → headline metrics."""

    param: str
    value: Any
    proposal_correspondences: float
    conventional_correspondences: float
    local_ratio: float
    committed_ratio: float

    @property
    def reduction(self) -> float:
        return correspondence_reduction(
            self.proposal_correspondences, self.conventional_correspondences
        )


def _point(
    param: str, value: Any, config: SystemConfig, trace: WorkloadTrace
) -> SweepPoint:
    """One paired replay, sampled once at the end of the trace."""
    result = run_paired(config, trace, [len(trace)])
    return SweepPoint(
        param=param,
        value=value,
        proposal_correspondences=result.proposal.final().total_correspondences,
        conventional_correspondences=(
            result.conventional.final().total_correspondences
        ),
        local_ratio=result.local_ratio,
        committed_ratio=result.committed_ratio,
    )


def sweep_scale(
    retailer_counts: Sequence[int] = (2, 4, 8, 16),
    updates_per_site: int = 300,
    n_items: int = 10,
    seed: int = 0,
) -> List[SweepPoint]:
    """Ablation C: hold per-site demand constant, grow the system.

    Decentralised AV circulation should keep per-update cost roughly
    flat while the centralized server's total grows with system size.
    """
    return [
        _point(
            "n_retailers",
            n_retailers,
            paper_config(n_items=n_items, n_retailers=n_retailers, seed=seed),
            make_paper_trace(
                updates_per_site * (n_retailers + 1), seed,
                n_items=n_items, n_retailers=n_retailers,
            ),
        )
        for n_retailers in retailer_counts
    ]


def sweep_av_fraction(
    fractions: Sequence[float] = (0.25, 0.5, 0.75, 1.0),
    n_updates: int = 1000,
    n_items: int = 10,
    seed: int = 0,
) -> List[SweepPoint]:
    """How much initial headroom must be distributed for the win to hold."""
    trace = make_paper_trace(n_updates, seed, n_items=n_items)
    return [
        _point(
            "av_fraction",
            fraction,
            paper_config(n_items=n_items, seed=seed, av_fraction=fraction),
            trace,
        )
        for fraction in fractions
    ]


def sweep_items(
    item_counts: Sequence[int] = (5, 10, 20, 50, 100),
    n_updates: int = 1000,
    seed: int = 0,
) -> List[SweepPoint]:
    """The calibration sweep for the paper's illegible item count."""
    return [
        _point(
            "n_items",
            n_items,
            paper_config(n_items=n_items, seed=seed),
            make_paper_trace(n_updates, seed, n_items=n_items),
        )
        for n_items in item_counts
    ]


def sweep_rows(points: Iterable[SweepPoint]) -> List[List[Any]]:
    """Rows for :func:`repro.metrics.report.text_table`."""
    return [
        [
            p.value,
            p.proposal_correspondences,
            p.conventional_correspondences,
            round(p.reduction, 3),
            round(p.local_ratio, 3),
            round(p.committed_ratio, 3),
        ]
        for p in points
    ]


SWEEP_HEADERS = [
    "value",
    "proposal",
    "conventional",
    "reduction",
    "local_ratio",
    "committed",
]
