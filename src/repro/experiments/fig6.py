"""Fig. 6 reproduction: updates vs correspondences, proposal vs conventional.

The paper's figure plots the cumulative number of correspondences for
update (y) against the total number of updates in the system (x) for the
proposed AV mechanism and the conventional centralized approach, and
reports a ≈75% reduction with "most of the update ... completed within
the local site".

:func:`run_fig6` regenerates the two curves on identical workload traces
and returns everything the bench prints: both runs' checkpoints, the
reduction ratio, and the local-completion ratio (a
:class:`~repro.experiments.runner.PairedResult`).
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster import item_ids, paper_config
from repro.sim.rng import RngRegistry
from repro.workload.generators import PaperWorkload
from repro.workload.trace import WorkloadTrace

from repro.experiments.runner import (
    PairedResult,
    checkpoint_schedule,
    run_paired,
)


def make_paper_trace(
    n_updates: int,
    seed: int,
    n_items: int = 10,
    initial_stock: float = 100.0,
    n_retailers: int = 2,
    site_order: str = "roundrobin",
    increase_fraction: Optional[float] = None,
    decrease_fraction: float = 0.10,
) -> WorkloadTrace:
    """The §4 workload, frozen so every system replays identical updates.

    The paper's +20%/−10% caps balance supply and demand for exactly two
    retailers (one maker update mints on average what two retailer
    updates consume). For other retailer counts the maker's cap defaults
    to ``n_retailers × decrease_fraction`` so the system stays balanced —
    without this, aggregate demand outstrips minting and every mechanism
    degenerates into rejecting updates (see the scale ablation notes in
    EXPERIMENTS.md).
    """
    if increase_fraction is None:
        increase_fraction = min(1.0, n_retailers * decrease_fraction)
    rngs = RngRegistry(seed)
    config = paper_config(
        n_items=n_items, initial_stock=initial_stock, n_retailers=n_retailers
    )
    generator = PaperWorkload(
        maker=config.maker,
        retailers=config.retailers,
        items=item_ids(n_items),
        initial_stock=initial_stock,
        rng=rngs.stream("workload.paper"),
        site_order=site_order,
        increase_fraction=increase_fraction,
        decrease_fraction=decrease_fraction,
    )
    return WorkloadTrace.capture(generator, n_updates)


def run_fig6(
    n_updates: int = 1000,
    seed: int = 0,
    n_items: int = 10,
    initial_stock: float = 100.0,
    n_retailers: int = 2,
    checkpoint_every: Optional[int] = None,
    checkpoints: Optional[Sequence[int]] = None,
    observe: bool = False,
) -> PairedResult:
    """Regenerate Fig. 6.

    Both systems replay the *same* frozen trace, so the comparison is
    paired at every x value.

    The paper's local-DB item count is illegible in the scanned text;
    ``n_items=10`` reproduces the reported ≈75% reduction with mostly
    local completion (see EXPERIMENTS.md for the calibration sweep).
    """
    trace = make_paper_trace(
        n_updates, seed, n_items=n_items,
        initial_stock=initial_stock, n_retailers=n_retailers,
    )
    if checkpoints is None:
        every = checkpoint_every if checkpoint_every else max(1, n_updates // 20)
        checkpoints = checkpoint_schedule(n_updates, every)

    config = paper_config(
        n_items=n_items,
        initial_stock=initial_stock,
        n_retailers=n_retailers,
        seed=seed,
        observe=observe,
    )
    return run_paired(
        config,
        trace,
        checkpoints,
        title=(
            f"Fig. 6 — correspondences vs updates"
            f" (n={n_updates}, seed={seed})"
        ),
    )
