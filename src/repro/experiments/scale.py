"""Scale-out experiment: the Fig. 6 comparison on N-site topologies.

The paper demonstrates its ≈75% correspondence reduction on one maker
and two retailers. This experiment re-runs the same paired comparison —
proposal vs centralized on an identical frozen trace — over a
declarative :class:`~repro.cluster.topology.Topology`: tens of sites,
hierarchical AV aggregators, per-item interest sets, and Zipf-skewed
demand (:class:`~repro.workload.generators.TopologyWorkload`).

The headline claim under test: decentralised AV circulation keeps the
reduction in the paper's band as the system scales, because transfers
stay within an item's (small) interest set while the centralized
baseline pays one round trip per update regardless of layout.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.cluster import Topology, item_ids, paper_config
from repro.sim.rng import RngRegistry
from repro.workload.generators import TopologyWorkload
from repro.workload.trace import WorkloadTrace

from repro.experiments.runner import (
    PairedResult,
    checkpoint_schedule,
    run_paired,
)

#: default topology spec for the headline scale run: 1 maker + 7
#: regional aggregators + 42 leaf retailers = 50 sites
DEFAULT_SPEC = "regional:7x6:s2"


def make_scale_trace(
    topology: Topology,
    n_updates: int,
    seed: int,
    initial_stock: float = 100.0,
    skew: float = 1.1,
    maker_share: float = 1.0 / 3.0,
) -> WorkloadTrace:
    """Freeze one topology-aware Zipf stream for paired replay."""
    rngs = RngRegistry(seed)
    generator = TopologyWorkload(
        topology,
        initial_stock=initial_stock,
        rng=rngs.stream("workload.scale"),
        skew=skew,
        maker_share=maker_share,
    )
    return WorkloadTrace.capture(generator, n_updates)


def run_scale(
    spec: str = DEFAULT_SPEC,
    n_updates: int = 2000,
    seed: int = 0,
    n_items: int = 100,
    initial_stock: float = 100.0,
    skew: float = 1.1,
    maker_share: float = 1.0 / 3.0,
    sanitize: bool = False,
    checkpoint_every: Optional[int] = None,
    checkpoints: Optional[Sequence[int]] = None,
) -> PairedResult:
    """Run the paired scale comparison on one topology spec.

    Both systems replay the same frozen trace. The conventional
    baseline instantiates the same site set (aggregators included —
    they simply issue no updates), so the comparison is one deployment
    question — who holds update authority — and nothing else.
    """
    topology = Topology.parse(spec, item_ids(n_items))
    trace = make_scale_trace(
        topology,
        n_updates,
        seed,
        initial_stock=initial_stock,
        skew=skew,
        maker_share=maker_share,
    )
    if checkpoints is None:
        every = checkpoint_every if checkpoint_every else max(1, n_updates // 10)
        checkpoints = checkpoint_schedule(n_updates, every)

    config = paper_config(
        n_items=n_items,
        initial_stock=initial_stock,
        seed=seed,
        topology=topology,
        sanitize=sanitize,
    )
    return run_paired(
        config,
        trace,
        checkpoints,
        title=(
            f"Scale — {spec} ({topology.n_sites} sites,"
            f" {len(topology.items)} items, n={n_updates}, seed={seed})"
        ),
    )
