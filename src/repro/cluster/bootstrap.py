"""Initial data delivery (paper §3.2).

"All data are assumed to be delivered to all the sites initially from
the base." Bootstrap delivers each item to its interest set, which in
the paper layout is every site: it installs the item into those stores,
defines AV entries for regular items, splits the AV pool according to
the configured weights, and seeds each belief table with the initial
allocation (each site knows the split it was dealt). A deal is computed
once per distinct (stock, interest set) and shared by reference among the
tables it seeds. One pass over the catalogue finds each item's stock and
deal; then each site installs its slice with one bulk call per table, so
set-up costs O(Σ slice) with no per-(site, item) call. Bootstrap is
setup, not protocol — it sends no messages, matching the paper's
accounting, which counts only correspondences *for update*.
"""

from __future__ import annotations

import math
from typing import Dict, Sequence

from repro.cluster.catalog import ProductCatalog
from repro.cluster.topology import Topology
from repro.core.beliefs import Belief
from repro.metrics.collector import GlobalLedger


def split_volume(
    total: float, weights: Dict[str, float], order: Sequence[str]
) -> Dict[str, float]:
    """Split ``total`` whole units across sites proportionally to ``weights``.

    Each site gets the floor of its share and the leftover units go to
    the earliest sites in ``order`` (the base site first, by convention),
    so ``sum(result) == total`` exactly.
    """
    if total < 0:
        raise ValueError(f"negative total {total}")
    missing = [s for s in order if s not in weights]
    if missing:
        raise ValueError(f"no AV weight for sites {missing}")
    weight_sum = sum(weights[s] for s in order)
    if weight_sum <= 0:
        raise ValueError("AV weights must sum to a positive value")
    shares = {s: math.floor(total * weights[s] / weight_sum) for s in order}
    leftover = int(total) - sum(shares.values())
    for site in order:
        if leftover <= 0:
            break
        shares[site] += 1
        leftover -= 1
    return {s: float(v) for s, v in shares.items()}


def deal_av(
    stock: float,
    av_fraction: float,
    weights: Dict[str, float],
    order: Sequence[str],
) -> Dict[str, float]:
    """One item's AV deal: ``floor(stock × av_fraction)`` whole units,
    split over ``order`` by :func:`split_volume`."""
    return split_volume(float(math.floor(stock * av_fraction)), weights, order)


def bootstrap(
    sites,  # Dict[str, Site]; untyped to avoid an import cycle
    catalog: ProductCatalog,
    ledger: GlobalLedger,
    topology: Topology,
    av_fraction: float = 1.0,
    av_weights: Dict[str, float] | None = None,
) -> None:
    """Install catalogue data, AV allocation and initial beliefs.

    Parameters
    ----------
    sites:
        ``{name: Site}`` for every participant.
    catalog:
        The shared product catalogue.
    ledger:
        Receives every item's initial (ground-truth) value.
    topology:
        The deployment: each item is installed, AV-split and
        belief-seeded across its interest set (the maker first, then
        aggregators, then leaves — so leftover units pool upward). In
        the paper layout every interest set is every site: the paper's
        full delivery.
    av_fraction:
        Fraction of each regular item's initial stock distributed as AV.
    av_weights:
        Relative share per site; equal when omitted.
    """
    weights = av_weights if av_weights is not None else {n: 1.0 for n in sites}
    stock: Dict[str, float] = {}
    # regular item -> its deal; (stock, interest set) -> the shared deal
    dealt: Dict[str, Dict[str, Belief]] = {}
    deals: Dict[tuple, Dict[str, Belief]] = {}

    for product in catalog:
        item = product.item
        stock[item] = product.initial_stock
        ledger.set_initial(item, product.initial_stock)
        if not product.regular:
            continue

        # Topology order: the maker (the base, which serves every item)
        # first, so it gets the leftover units first.
        interested = topology.sites_for(item)
        key = (product.initial_stock, interested)
        deal = deals.get(key)
        if deal is None:
            shares = deal_av(product.initial_stock, av_fraction, weights,
                             interested)
            deal = {peer: Belief(v, 0.0) for peer, v in shares.items()}
            deals[key] = deal
        dealt[item] = deal

    # Each site's slice, in catalogue order. The interest set knows the
    # initial deal (it came from the base).
    for name in topology.names:
        site = sites[name]
        interest = topology.interest_of(name)
        site.store.insert_many(dict(zip(interest, map(stock.get, interest))))
        mine = {item: dealt[item] for item in interest if item in dealt}
        if mine:
            site.av_table.define_many(
                {item: deal[name].volume for item, deal in mine.items()}
            )
            site.accelerator.beliefs.seed_many(mine)
