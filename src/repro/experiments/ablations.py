"""Ablations of the accelerator's design choices (DESIGN.md §5, A/B/D/E).

Each function returns rows ready for
:func:`repro.metrics.report.text_table`; the corresponding benches print
them. All variants replay the same frozen trace, so differences are
attributable to the ablated choice alone.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Any, Callable, Dict, List, Optional

from repro.baselines.escrow import build_static_escrow_system
from repro.baselines.primary_copy import build_all_immediate_system
from repro.cluster import DistributedSystem, paper_config
from repro.core.policies import (
    DecidingPolicy,
    ExactPolicy,
    GrantAllPolicy,
    OverdraftPolicy,
    ProportionalPolicy,
    Soda99Policy,
)
from repro.core.strategies import (
    BelievedRichestStrategy,
    FixedOrderStrategy,
    RandomStrategy,
    RoundRobinStrategy,
)
from repro.core.types import UPDATE_TAGS, UpdateOutcome

from repro.experiments.fig6 import make_paper_trace
from repro.experiments.runner import run_counted

ABLATION_HEADERS = [
    "variant",
    "correspondences",
    "av_requests",
    "local_ratio",
    "committed",
]


def _run_variant(system, trace, label: str) -> List[Any]:
    run = run_counted(system, trace, label, checkpoints=[len(trace)])
    results = run.results
    committed = sum(
        outcome is UpdateOutcome.COMMITTED
        for outcome in results.column("outcome")
    )
    return [
        label,
        run.final().total_correspondences,
        sum(results.column("av_requests")),
        round(sum(results.column("local_only")) / len(results), 3),
        round(committed / len(results), 3),
    ]


def ablate_grant_policy(
    n_updates: int = 1000, n_items: int = 10, seed: int = 0
) -> List[List[Any]]:
    """Ablation A: the SODA'99 half-grant vs alternatives."""
    trace = make_paper_trace(n_updates, seed, n_items=n_items)
    policies: Dict[str, Callable[[], DecidingPolicy]] = {
        "soda99-half": Soda99Policy,
        "grant-all": GrantAllPolicy,
        "exact": ExactPolicy,
        "proportional-0.25": lambda: ProportionalPolicy(0.25),
        "overdraft-2x": lambda: OverdraftPolicy(2.0),
    }
    rows = []
    for label, make_policy in policies.items():
        system = DistributedSystem.build(
            paper_config(n_items=n_items, seed=seed),
            policy_factory=lambda name, rngs, mp=make_policy: mp(),
        )
        rows.append(_run_variant(system, trace, label))
    return rows


def ablate_selection_strategy(
    n_updates: int = 1000, n_items: int = 10, seed: int = 0
) -> List[List[Any]]:
    """Ablation B: believed-richest vs blind selection orders."""
    trace = make_paper_trace(n_updates, seed, n_items=n_items)
    config = paper_config(n_items=n_items, seed=seed)
    strategies = {
        "believed-richest": lambda name, rngs: BelievedRichestStrategy(),
        "round-robin": lambda name, rngs: RoundRobinStrategy(),
        "random": lambda name, rngs: RandomStrategy(
            rngs.stream(f"{name}.strategy")
        ),
        "maker-first": lambda name, rngs: FixedOrderStrategy(config.site_names),
    }
    rows = []
    for label, factory in strategies.items():
        system = DistributedSystem.build(config, strategy_factory=factory)
        rows.append(_run_variant(system, trace, label))
    return rows


def ablate_escrow(
    n_updates: int = 1000, n_items: int = 10, seed: int = 0
) -> List[List[Any]]:
    """Ablation D: AV circulation vs a static escrow split.

    The static variant sends no AV traffic at all — its cost shows up as
    *rejected updates* instead; the committed column is the story here.
    """
    trace = make_paper_trace(n_updates, seed, n_items=n_items)
    config = paper_config(n_items=n_items, seed=seed)
    rows = [
        _run_variant(DistributedSystem.build(config), trace, "av-circulation"),
        _run_variant(build_static_escrow_system(config), trace, "static-escrow"),
    ]
    return rows


def ablate_update_mix(
    fractions=(1.0, 0.75, 0.5, 0.0),
    n_updates: int = 600,
    n_items: int = 10,
    seed: int = 0,
) -> List[List[Any]]:
    """Ablation E: cost as the regular (Delay-eligible) fraction shrinks.

    ``fraction=0`` is the all-immediate baseline: every update pays the
    full primary-copy protocol.
    """
    trace = make_paper_trace(n_updates, seed, n_items=n_items)
    rows = []
    for fraction in fractions:
        config = paper_config(
            n_items=n_items, seed=seed, regular_fraction=fraction
        )
        if fraction == 0.0:
            system = build_all_immediate_system(config)
        else:
            system = DistributedSystem.build(config)
        rows.append(_run_variant(system, trace, f"regular={fraction:.2f}"))
    return rows


def ablate_stale_beliefs(
    n_updates: int = 1000, n_items: int = 10, seed: int = 0
) -> List[List[Any]]:
    """Ablation B': does the piggybacked belief state actually help?

    Contrast the paper's believed-richest selection against random
    selection *and* against believed-richest with propagation enabled
    (fresher beliefs via more piggyback traffic — not free, but the AV
    request count shows whether the extra knowledge pays).
    """
    trace = make_paper_trace(n_updates, seed, n_items=n_items)
    rows = []
    rows.append(
        _run_variant(
            DistributedSystem.build(paper_config(n_items=n_items, seed=seed)),
            trace,
            "beliefs (paper)",
        )
    )
    rows.append(
        _run_variant(
            DistributedSystem.build(
                paper_config(n_items=n_items, seed=seed),
                strategy_factory=lambda name, rngs: RandomStrategy(
                    rngs.stream(f"{name}.strategy")
                ),
            ),
            trace,
            "no beliefs (random)",
        )
    )
    return rows
