"""Workload generators.

:class:`PaperWorkload` is §4 of the paper verbatim: "In site 0, data is
updated to increase the volume by at most 20% of the initial amount of
data randomly. On the other hand, at site 1 and site 2, it is updated to
decrease at most 10% randomly." Items are chosen uniformly; sites take
turns (the paper plots against the *total* number of updates in the
system, implying all sites contribute to one interleaved stream).

The other generators model the SCM scenarios the introduction motivates
and feed the ablation benches.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_right
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, Mapping, Optional, Sequence

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Topology


@dataclass(frozen=True, slots=True)
class WorkloadEvent:
    """One update to issue: ``delta`` on ``item`` at ``site``."""

    site: str
    item: str
    delta: float

    def __str__(self) -> str:
        return f"{self.site}: {self.item}{self.delta:+g}"


class WorkloadGenerator(ABC):
    """Produces a deterministic stream of :class:`WorkloadEvent`."""

    @abstractmethod
    def events(self, n: int) -> Iterator[WorkloadEvent]:
        """Yield the first ``n`` events of the stream."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<{type(self).__name__}>"


class PaperWorkload(WorkloadGenerator):
    """The paper's §4 update stream.

    Parameters
    ----------
    maker:
        The increasing site (paper: site 0).
    retailers:
        The decreasing sites (paper: sites 1 and 2).
    items:
        Catalogue item ids to draw from (uniformly).
    initial_stock:
        Initial amount per item; bounds the delta magnitudes.
    rng:
        Seeded generator (use the system's RngRegistry stream).
    increase_fraction, decrease_fraction:
        Paper values 0.20 and 0.10 of the initial amount.
    site_order:
        ``"roundrobin"`` (deterministic interleave, default) or
        ``"random"`` (uniform site choice per update).
    integer_deltas:
        Draw integral quantities (stock is discrete goods).
    """

    def __init__(
        self,
        maker: str,
        retailers: Sequence[str],
        items: Sequence[str],
        initial_stock: float,
        rng: np.random.Generator,
        increase_fraction: float = 0.20,
        decrease_fraction: float = 0.10,
        site_order: str = "roundrobin",
        integer_deltas: bool = True,
    ) -> None:
        if not retailers:
            raise ValueError("need at least one retailer")
        if not items:
            raise ValueError("need at least one item")
        if site_order not in ("roundrobin", "random"):
            raise ValueError(f"unknown site_order {site_order!r}")
        if not 0 < increase_fraction <= 1 or not 0 < decrease_fraction <= 1:
            raise ValueError("fractions must be in (0, 1]")
        self.maker = maker
        self.retailers = list(retailers)
        self.items = list(items)
        self.initial_stock = initial_stock
        self.rng = rng
        self.increase_fraction = increase_fraction
        self.decrease_fraction = decrease_fraction
        self.site_order = site_order
        self.integer_deltas = integer_deltas
        self._sites = [maker, *retailers]

    def _signed_cap(self, site: str) -> tuple[float, float]:
        """Largest delta magnitude at ``site`` and the delta's sign."""
        if site == self.maker:
            return self.initial_stock * self.increase_fraction, 1.0
        return self.initial_stock * self.decrease_fraction, -1.0

    def _delta(self, site: str) -> float:
        cap, sign = self._signed_cap(site)
        if self.integer_deltas:
            cap_int = max(1, int(math.floor(cap)))
            magnitude = float(self.rng.integers(1, cap_int + 1))
        else:
            magnitude = float(self.rng.uniform(0.0, cap))
        return sign * magnitude

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        """Yield the first ``n`` events. A round-robin stream of integral
        deltas is drawn in one block at the first event: a caller drawing
        from the same ``rng`` between events needs :meth:`events_scalar`."""
        if self.site_order == "roundrobin" and self.integer_deltas:
            return self._events_block(n)
        return self.events_scalar(n)

    def events_scalar(self, n: int) -> Iterator[WorkloadEvent]:
        """The stream drawn one variate at a time, each when it is used."""
        for i in range(n):
            if self.site_order == "roundrobin":
                site = self._sites[i % len(self._sites)]
            else:
                site = self._sites[int(self.rng.integers(len(self._sites)))]
            item = self.items[int(self.rng.integers(len(self.items)))]
            yield WorkloadEvent(site, item, self._delta(site))

    def _events_block(self, n: int) -> Iterator[WorkloadEvent]:
        # The draws alternate item index, magnitude; their bounds repeat
        # every round-robin cycle, and ``integers`` with array bounds
        # consumes the bit stream exactly as the scalar calls would.
        sites = self._sites
        caps = [self._signed_cap(site) for site in sites]
        high = [
            bound for cap, _sign in caps
            for bound in (len(self.items), max(1, int(math.floor(cap))) + 1)
        ]
        draws = self.rng.integers(
            np.resize([0, 1], 2 * n), np.resize(high, 2 * n)
        ).tolist()
        for i in range(n):
            k = i % len(sites)
            yield WorkloadEvent(
                sites[k], self.items[draws[2 * i]],
                caps[k][1] * float(draws[2 * i + 1]),
            )


class ZipfSampler:
    """Finite (truncated) Zipf sampler: ``P(rank r) ∝ r^-skew``, r in 1..n.

    Unlike ``rng.zipf`` (unbounded support, rejection-sampled by the
    callers above), the truncated form draws from the exact normalised
    distribution over the catalogue, so the frequency-rank slope of a
    sample converges to ``-skew`` and any ``skew > 0`` is valid —
    including the classic s = 1 and near-uniform s → 0.

    Determinism: a draw consumes exactly one variate from ``rng``, so
    two samplers over equal ``(n, skew)`` fed the same seeded stream
    produce identical rank sequences.
    """

    def __init__(self, n: int, skew: float, rng: np.random.Generator) -> None:
        if n < 1:
            raise ValueError(f"need n >= 1 ranks, got {n}")
        if skew < 0:
            raise ValueError(f"zipf skew must be >= 0, got {skew}")
        self.n = n
        self.skew = skew
        self.rng = rng
        weights = np.arange(1, n + 1, dtype=np.float64) ** -float(skew)
        # A list of the same float64 values: ``bisect_right`` on one draw
        # answers as ``np.searchsorted(side="right")`` without a numpy call.
        self._cdf = np.cumsum(weights / weights.sum()).tolist()
        # Guard against float round-off leaving the last bin < 1.0.
        self._cdf[-1] = 1.0

    def probability(self, rank: int) -> float:
        """Exact probability of drawing ``rank`` (1-based)."""
        if not 1 <= rank <= self.n:
            raise ValueError(f"rank {rank} not in [1, {self.n}]")
        lo = self._cdf[rank - 2] if rank > 1 else 0.0
        return self._cdf[rank - 1] - lo

    def draw_rank(self) -> int:
        """One 1-based rank (inverse-CDF on a single uniform variate)."""
        return bisect_right(self._cdf, self.rng.random()) + 1

    def draw_index(self) -> int:
        """One 0-based index into a popularity-ordered sequence."""
        return self.draw_rank() - 1


def normalize_mix(mix: Mapping[str, float]) -> Dict[str, float]:
    """Normalise per-site traffic weights to a probability mix.

    Keys keep a deterministic (sorted) order — the order is load-bearing
    because samplers consume the weights positionally. Zero-weight sites
    are legal (they issue no updates); negative weights and an all-zero
    mix are not.
    """
    if not mix:
        raise ValueError("mix is empty")
    for site in sorted(mix):
        if mix[site] < 0:
            raise ValueError(f"negative weight {mix[site]} for {site!r}")
    total = sum(mix[site] for site in sorted(mix))
    if total <= 0:
        raise ValueError("mix weights sum to zero")
    return {site: mix[site] / total for site in sorted(mix)}


class TopologyWorkload(WorkloadGenerator):
    """Paper-style deltas over an N-site :class:`Topology`.

    Generalises the §4 stream to scale-out layouts:

    * The **maker** mints (paper's +20%-cap increases) on a Zipf-skewed
      draw over the whole catalogue, taking ``maker_share`` of the
      stream. The default 1/3 is the paper's round-robin generalised:
      with the +20%/−10% caps, one maker update mints on average what
      two leaf updates consume, so supply and demand stay balanced at
      any site count.
    * **Leaf retailers** consume (−10%-cap decreases) from their own
      interest slice only — a leaf never references an item it does not
      replicate — with Zipf-skewed popularity *within* the slice.
    * **Aggregators** issue no client traffic: they are infrastructure
      (regional AV pools), not demand sources.

    Per-site traffic weights (``mix``) skew which leaves are busy;
    default is uniform across leaves.
    """

    def __init__(
        self,
        topology: "Topology",
        initial_stock: float,
        rng: np.random.Generator,
        skew: float = 1.1,
        maker_share: float = 1.0 / 3.0,
        mix: Optional[Mapping[str, float]] = None,
        increase_fraction: float = 0.20,
        decrease_fraction: float = 0.10,
        integer_deltas: bool = True,
    ) -> None:
        if not 0.0 < maker_share < 1.0:
            raise ValueError(f"maker_share {maker_share} not in (0, 1)")
        if not 0 < increase_fraction <= 1 or not 0 < decrease_fraction <= 1:
            raise ValueError("fractions must be in (0, 1]")
        self.topology = topology
        self.initial_stock = initial_stock
        self.rng = rng
        self.skew = skew
        self.maker_share = maker_share
        self.increase_fraction = increase_fraction
        self.decrease_fraction = decrease_fraction
        self.integer_deltas = integer_deltas
        self.maker = topology.maker
        # A leaf with an empty interest slice (more leaves than item
        # assignments) replicates nothing and so can issue no updates.
        self.leaves = [
            s
            for s in topology.names
            if topology.role_of(s) == "retailer" and topology.interest_of(s)
        ]
        if not self.leaves:
            raise ValueError("topology has no leaf retailers with items")
        weights = (
            normalize_mix(mix)
            if mix is not None
            else {leaf: 1.0 / len(self.leaves) for leaf in self.leaves}
        )
        unknown = sorted(set(weights) - set(self.leaves))
        if unknown:
            raise ValueError(
                f"mix names sites that are not item-bearing leaves: {unknown}"
            )
        self.mix = {leaf: weights.get(leaf, 0.0) for leaf in self.leaves}
        self._leaf_cdf = np.cumsum(
            [self.mix[leaf] for leaf in self.leaves]
        ).tolist()
        self._leaf_cdf[-1] = 1.0
        # One catalogue-wide sampler for the maker; per-slice-size
        # samplers for the leaves (slices of equal length share one —
        # a draw depends only on the rank distribution, not the items).
        self._catalog_sampler = ZipfSampler(len(topology.items), skew, rng)
        self._slice_samplers: Dict[int, ZipfSampler] = {}
        self._slices = {
            leaf: list(topology.interest_of(leaf)) for leaf in self.leaves
        }

    def _slice_sampler(self, size: int) -> ZipfSampler:
        sampler = self._slice_samplers.get(size)
        if sampler is None:
            sampler = ZipfSampler(size, self.skew, self.rng)
            self._slice_samplers[size] = sampler
        return sampler

    def _magnitude(self, fraction: float) -> float:
        cap = self.initial_stock * fraction
        if self.integer_deltas:
            cap_int = max(1, int(math.floor(cap)))
            return float(self.rng.integers(1, cap_int + 1))
        return float(self.rng.uniform(0.0, cap))

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        items = list(self.topology.items)
        for _ in range(n):
            if self.rng.random() < self.maker_share:
                item = items[self._catalog_sampler.draw_index()]
                yield WorkloadEvent(
                    self.maker, item, self._magnitude(self.increase_fraction)
                )
            else:
                leaf = self.leaves[
                    bisect_right(self._leaf_cdf, self.rng.random())
                ]
                slice_ = self._slices[leaf]
                item = slice_[self._slice_sampler(len(slice_)).draw_index()]
                yield WorkloadEvent(
                    leaf, item, -self._magnitude(self.decrease_fraction)
                )


class ZipfWorkload(WorkloadGenerator):
    """Paper-style deltas with Zipf-skewed item popularity.

    Real retail demand is heavy-tailed; this stresses per-item AV
    circulation on the hot items.
    """

    def __init__(
        self,
        maker: str,
        retailers: Sequence[str],
        items: Sequence[str],
        initial_stock: float,
        rng: np.random.Generator,
        skew: float = 1.2,
        **paper_kwargs,
    ) -> None:
        if skew <= 1.0:
            raise ValueError(f"zipf skew must be > 1, got {skew}")
        self._inner = PaperWorkload(
            maker, retailers, items, initial_stock, rng, **paper_kwargs
        )
        self.skew = skew
        self.rng = rng
        self.items = list(items)

    def _pick_item(self) -> str:
        while True:
            rank = int(self.rng.zipf(self.skew))
            if rank <= len(self.items):
                return self.items[rank - 1]

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        # _pick_item draws from the shared rng between the inner events.
        for event in self._inner.events_scalar(n):
            yield WorkloadEvent(event.site, self._pick_item(), event.delta)


class HotspotWorkload(WorkloadGenerator):
    """One retailer generates a demand spike on a small hot set.

    Used by the fault and strategy benches: the hot retailer drains its
    AV fast and must pull volume across the network.
    """

    def __init__(
        self,
        base: WorkloadGenerator,
        hot_site: str,
        hot_items: Sequence[str],
        hot_fraction: float,
        rng: np.random.Generator,
    ) -> None:
        if not 0.0 <= hot_fraction <= 1.0:
            raise ValueError(f"hot_fraction {hot_fraction} not in [0, 1]")
        if not hot_items:
            raise ValueError("hot set is empty")
        self.base = base
        self.hot_site = hot_site
        self.hot_items = list(hot_items)
        self.hot_fraction = hot_fraction
        self.rng = rng

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        for event in self.base.events(n):
            if (
                event.site == self.hot_site
                and event.delta < 0
                and self.rng.random() < self.hot_fraction
            ):
                item = self.hot_items[int(self.rng.integers(len(self.hot_items)))]
                yield WorkloadEvent(event.site, item, event.delta)
            else:
                yield event


class FlashSaleWorkload(WorkloadGenerator):
    """A flash sale: Zipf-hot items hit by dense unit-decrement bursts.

    The surge the overload layer exists for. Retailers take turns
    firing bursts of ``burst`` consecutive ``-1`` updates (default 100 —
    a 100× burst against the paper's one-at-a-time walk) aimed at a
    small hot set, picked Zipf-style so the hottest item soaks most of
    the traffic. Every ``restock_every`` bursts the maker restocks the
    hottest item, keeping global headroom ample — the surge stresses
    *coordination*, not solvency.

    Parameters
    ----------
    maker, retailers, items, rng:
        As :class:`PaperWorkload`.
    hot_items:
        Size of the hot set (a prefix of ``items``).
    burst:
        Decrements per burst (the "100×" knob).
    restock_every:
        Bursts between maker restocks.
    restock_amount:
        Units per restock; defaults to one burst's worth.
    skew:
        Zipf exponent over the hot set ranks.
    """

    def __init__(
        self,
        maker: str,
        retailers: Sequence[str],
        items: Sequence[str],
        rng: np.random.Generator,
        hot_items: int = 2,
        burst: int = 100,
        restock_every: int = 4,
        restock_amount: Optional[float] = None,
        skew: float = 1.5,
    ) -> None:
        if not retailers:
            raise ValueError("need at least one retailer")
        if not 1 <= hot_items <= len(items):
            raise ValueError(f"hot_items {hot_items} not in [1, {len(items)}]")
        if burst < 1:
            raise ValueError("burst must be >= 1")
        if restock_every < 1:
            raise ValueError("restock_every must be >= 1")
        if skew <= 1.0:
            raise ValueError(f"zipf skew must be > 1, got {skew}")
        self.maker = maker
        self.retailers = list(retailers)
        self.hot = list(items[:hot_items])
        self.rng = rng
        self.burst = burst
        self.restock_every = restock_every
        self.restock_amount = (
            float(burst) if restock_amount is None else restock_amount
        )
        self.skew = skew

    def _pick_hot(self) -> str:
        while True:
            rank = int(self.rng.zipf(self.skew))
            if rank <= len(self.hot):
                return self.hot[rank - 1]

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        emitted = 0
        bursts = 0
        while emitted < n:
            site = self.retailers[bursts % len(self.retailers)]
            item = self._pick_hot()
            for _ in range(min(self.burst, n - emitted)):
                yield WorkloadEvent(site, item, -1.0)
                emitted += 1
            bursts += 1
            if bursts % self.restock_every == 0 and emitted < n:
                yield WorkloadEvent(self.maker, self.hot[0], self.restock_amount)
                emitted += 1


class MixedKindWorkload(WorkloadGenerator):
    """Paper deltas over a catalogue with regular *and* non-regular items.

    The generator is item-class agnostic (routing is the checking
    function's job); this class simply draws from the full item list so
    the immediate/delay-mix ablation exercises both paths.
    """

    def __init__(self, inner: PaperWorkload) -> None:
        self.inner = inner

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        return self.inner.events(n)
