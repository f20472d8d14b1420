"""Table 1 reproduction: per-site correspondences for update.

The paper's Table 1 lists, per site (site 0 the maker, sites 1-2 the
retailers), the number of correspondences for update at a series of
total-update checkpoints. Its numeric cells are illegible in the scanned
text, so we reproduce the table's *structure* and validate the stated
qualitative claims:

* "the numbers are almost same between site 1 and site 2" — fairness,
  measured by Jain's index over the retailer columns;
* "and increases very slowly" — sub-linear per-site growth, measured as
  the late-half growth rate per update.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster import paper_config

from repro.experiments.fig6 import make_paper_trace
from repro.experiments.runner import (
    PairedResult,
    checkpoint_schedule,
    run_paired,
)


def run_table1(
    n_updates: int = 1000,
    seed: int = 0,
    n_items: int = 10,
    initial_stock: float = 100.0,
    n_retailers: int = 2,
    checkpoints: Optional[Sequence[int]] = None,
    observe: bool = False,
) -> PairedResult:
    """Regenerate Table 1 (plus the same columns for the baseline)."""
    if checkpoints is None:
        checkpoints = checkpoint_schedule(n_updates, max(1, n_updates // 10))
    trace = make_paper_trace(
        n_updates, seed, n_items=n_items,
        initial_stock=initial_stock, n_retailers=n_retailers,
    )
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
            f"Table 1 — per-site correspondences for update"
            f" (n={n_updates}, seed={seed})"
        ),
        per_site=True,
    )
