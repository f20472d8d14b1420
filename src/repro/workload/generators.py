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
from functools import cached_property
from itertools import chain, cycle, islice, repeat
from typing import (
    TYPE_CHECKING, Dict, Iterable, Iterator, List, Mapping, NamedTuple,
    Optional, Sequence, Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.topology import Topology


#: events per chunk of :meth:`TopologyWorkload.events`; a chunk draws at
#: most four raw words per event
DRAW_CHUNK = 1024
#: ``next_double`` of numpy's PCG64: the top 53 bits of a word times 2**-53
_DOUBLE_UNIT = 1.0 / 9007199254740992.0


class WorkloadEvent(NamedTuple):
    """One update to issue: ``delta`` on ``item`` at ``site``."""

    site: str
    item: str
    delta: float

    def __str__(self) -> str:
        return f"{self.site}: {self.item}{self.delta:+g}"


#: a stream as three equal-length column tuples: ``(sites, items, deltas)``
Columns = Tuple[Tuple[str, ...], Tuple[str, ...], Tuple[float, ...]]

_new_tuple = tuple.__new__


def events_of(sites: Iterable, items: Iterable, deltas: Iterable
              ) -> Iterator[WorkloadEvent]:
    """The events of three columns, built without a Python frame apiece
    (``WorkloadEvent._make`` and ``__new__`` are Python functions)."""
    return map(_new_tuple, repeat(WorkloadEvent), zip(sites, items, deltas))


def transpose(events: Iterable[WorkloadEvent]) -> Columns:
    """The columns of ``events`` as tuples, transposed a chunk of
    :data:`DRAW_CHUNK` events at a time."""
    it = iter(events)
    chunks = iter(lambda: tuple(islice(it, DRAW_CHUNK)), ())
    return concat([tuple(zip(*chunk)) for chunk in chunks])


def concat(parts: Sequence[tuple]) -> Columns:
    """One set of column tuples from consecutive chunks' columns."""
    if not parts:
        return (), (), ()
    sites, items, deltas = (
        tuple(chain.from_iterable(column)) for column in zip(*parts)
    )
    return sites, items, deltas


class WorkloadGenerator(ABC):
    """Produces a deterministic stream of :class:`WorkloadEvent`."""

    @abstractmethod
    def events(self, n: int) -> Iterator[WorkloadEvent]:
        """Yield the first ``n`` events of the stream."""

    def columns(self, n: int) -> Columns:
        """The first ``n`` events as columns (what a trace keeps); a
        generator that draws its stream in blocks hands them over as
        drawn, with no event built."""
        return transpose(self.events(n))

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

    Every delta is a whole number of units (stock is discrete goods).
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
        self._sites = [maker, *retailers]

    def _signed_cap(self, site: str) -> tuple[float, float]:
        """Largest delta magnitude at ``site`` and the delta's sign."""
        if site == self.maker:
            return self.initial_stock * self.increase_fraction, 1.0
        return self.initial_stock * self.decrease_fraction, -1.0

    def _delta(self, site: str) -> float:
        cap, sign = self._signed_cap(site)
        cap_int = max(1, int(math.floor(cap)))
        return sign * float(self.rng.integers(1, cap_int + 1))

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        """Yield the first ``n`` events. A round-robin stream is drawn in
        one block at the first event: a caller drawing from the same
        ``rng`` between events needs :meth:`events_scalar`."""
        if self._drawn_in_blocks:
            return self._events_block(n)
        return self.events_scalar(n)

    def columns(self, n: int) -> Columns:
        if self._drawn_in_blocks:
            return self._block_columns(n)
        return super().columns(n)

    @property
    def _drawn_in_blocks(self) -> bool:
        return self.site_order == "roundrobin"

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
        yield from events_of(*self._block_columns(n))

    def _block_columns(self, n: int) -> Columns:
        # The draws alternate item index, magnitude; their bounds repeat
        # every round-robin cycle, and ``integers`` with array bounds
        # consumes the bit stream exactly as the scalar calls would.
        sites = self._sites
        caps = [self._signed_cap(site) for site in sites]
        high = [
            bound for cap, _sign in caps
            for bound in (len(self.items), max(1, int(math.floor(cap))) + 1)
        ]
        # draw j is the (j mod 2k)-th of a cycle over k sites
        step = np.arange(2 * n) % len(high)
        draws = self.rng.integers(step % 2, np.asarray(high)[step])
        signs = np.asarray([int(sign) for _cap, sign in caps])
        return (
            tuple(islice(cycle(sites), n)),
            tuple(map(self.items.__getitem__, draws[0::2].tolist())),
            tuple(_shared_floats(
                (signs[step[1::2] // 2] * draws[1::2]).tolist(), {}
            )),
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
        shares = [self.mix[leaf] for leaf in self.leaves]
        self._leaf_cdf = np.cumsum(shares).tolist()
        # Round-off can leave the entry before trailing zero-weight leaves
        # below 1.0, and a draw above it would pick a leaf that issues no
        # updates: every entry from the last issuing leaf onward is 1.0.
        last = max(i for i, share in enumerate(shares) if share > 0)
        self._leaf_cdf[last:] = [1.0] * (len(shares) - last)
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
        return float(self.rng.integers(1, self._bound(fraction) + 1))

    def _bound(self, fraction: float) -> int:
        """``integers(1, bound + 1)`` draws a magnitude (no variate at 1)."""
        return max(1, int(math.floor(self.initial_stock * fraction)))

    def _bounds(self) -> tuple[int, int]:
        """The maker's and a leaf's magnitude bound."""
        return (self._bound(self.increase_fraction),
                self._bound(self.decrease_fraction))

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        """Yield the first ``n`` events. The stream is drawn ahead, a chunk
        of :data:`DRAW_CHUNK` events at a time from one block of raw PCG64
        words, starting at the first event: a caller drawing from the same
        ``rng`` between events needs :meth:`events_scalar`."""
        if self._drawn_in_chunks:
            return self._events_chunked(n)
        return self.events_scalar(n)

    def columns(self, n: int) -> Columns:
        if self._drawn_in_chunks:
            return concat(list(self._chunk_columns(n)))
        return super().columns(n)

    @property
    def _drawn_in_chunks(self) -> bool:
        return (
            # numpy draws wider bounds from whole words
            max(self._bounds()) <= 0xFFFFFFFF
            and self.rng.bit_generator.state["bit_generator"] == "PCG64"
        )

    def events_scalar(self, n: int) -> Iterator[WorkloadEvent]:
        """The stream drawn one variate at a time, each when it is used."""
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

    def _events_chunked(self, n: int) -> Iterator[WorkloadEvent]:
        for chunk in self._chunk_columns(n):
            yield from events_of(*chunk)

    def _chunk_columns(self, n: int) -> Iterator[tuple]:
        """The columns (lists or tuples) of each chunk of the first ``n``
        events, each drawn when it is reached."""
        bitgen = self.rng.bit_generator
        floats: Dict[int, float] = {}  # one float per delta value
        for done in range(0, n, DRAW_CHUNK):
            k = min(DRAW_CHUNK, n - done)
            saved = bitgen.state
            words = bitgen.random_raw(4 * k)
            carried = saved["uinteger"] if saved["has_uint32"] else None
            drawn = self._draw_chunk(words, k, carried, floats)
            if drawn is None:  # a bounded draw rejects: numpy draws again
                bitgen.state = saved
                yield transpose(self.events_scalar(k))
                continue
            chunk, consumed, carried = drawn
            bitgen.advance(consumed - len(words))
            if carried is not None:
                state = bitgen.state
                state["has_uint32"], state["uinteger"] = 1, carried
                bitgen.state = state
            yield chunk

    @cached_property
    def _tables(self) -> tuple:
        """What :meth:`_draw_chunk` reads: flat site and item tables, and
        per site code (0 the maker, c the leaf ``c - 1``) the offset of its
        items and the rank CDF it draws on."""
        sites = [self.maker, *self.leaves]
        items = list(self.topology.items)
        offsets = [0]
        cdfs = [self._catalog_sampler._cdf]
        cdf_of = [0]
        cdf_of_size: Dict[int, int] = {}
        for leaf in self.leaves:
            slice_ = self._slices[leaf]
            offsets.append(len(items))
            items += slice_
            if len(slice_) not in cdf_of_size:
                cdf_of_size[len(slice_)] = len(cdfs)
                cdfs.append(self._slice_sampler(len(slice_))._cdf)
            cdf_of.append(cdf_of_size[len(slice_)])
        return (
            sites, items, np.asarray(offsets), np.asarray(cdf_of),
            [np.asarray(cdf) for cdf in cdfs], np.asarray(self._leaf_cdf),
            self._bounds(),
        )

    def _draw_chunk(
        self, words: np.ndarray, k: int, carried: Optional[int],
        floats: Dict[int, float],
    ) -> Optional[tuple]:
        """The ``k`` events the scalar loop draws from raw PCG64 ``words``.

        A step draws a ``random()`` double (maker or leaf), a leaf double
        for a leaf, a rank double and ``integers(1, bound + 1)``. That last
        takes the half-word ``carried`` over from the previous draw, or the
        low half of a new word and carries its high half on. Returns the
        events' columns, the words they consumed and the half-word then
        carried, or ``None`` where numpy's bounded draw would reject and
        draw again. A delta value already in ``floats`` reuses its float.
        """
        sites, items, offsets, cdf_of, cdfs, leaf_cdf, bounds = self._tables
        doubles = (words >> 11) * _DOUBLE_UNIT
        is_maker = doubles < self.maker_share
        flags = is_maker.tolist()
        draws_maker, draws_leaf = bounds[0] > 1, bounds[1] > 1
        # Where each step starts, and which 32-bit half its magnitude
        # takes: 2p and 2p + 1 are word p's low and high halves, -1 is
        # ``carried`` (or no draw, when the bound is 1).
        starts: List[int] = []
        halves: List[int] = []
        buffered = carried is not None
        pos, last = 0, -1
        for _ in range(k):
            starts.append(pos)
            if flags[pos]:
                pos += 2
                draws = draws_maker
            else:
                pos += 3
                draws = draws_leaf
            if not draws:
                halves.append(-1)
            elif buffered:
                halves.append(last)
                buffered = False
            else:
                halves.append(2 * pos)
                last = 2 * pos + 1
                pos += 1
                buffered = True

        at = np.asarray(starts)
        leaf = ~is_maker[at]
        code = leaf * (leaf_cdf.searchsorted(doubles[at + 1], side="right") + 1)
        rank_u = doubles[at + 1 + leaf]
        index = offsets[code]
        group = cdf_of[code]
        for g, cdf in enumerate(cdfs):
            mine = group == g
            index[mine] += cdf.searchsorted(rank_u[mine], side="right")
        half32 = words.astype("<u8", copy=False).view("<u4")
        half = np.asarray(halves)
        picked = half32[half]
        if carried is not None:
            picked[half < 0] = carried
        drawn = _bounded(
            picked, np.asarray(bounds, dtype=np.uint64)[leaf.astype(np.intp)]
        )
        if drawn is None:
            return None
        delta = (drawn + 1).astype(np.int64)
        delta[leaf] *= -1
        columns = (
            list(map(sites.__getitem__, code.tolist())),
            list(map(items.__getitem__, index.tolist())),
            list(_shared_floats(delta.tolist(), floats)),
        )
        if not buffered:
            carried = None
        elif last >= 0:
            carried = int(half32[last])
        return columns, pos, carried


def _shared_floats(values: List[int], floats: Dict[int, float]
                   ) -> Iterator[float]:
    """``float(v)`` for each of ``values``: one float per distinct value,
    the one ``floats`` holds if it holds one (it gains the others)."""
    for value in dict.fromkeys(values):
        if value not in floats:
            floats[value] = float(value)
    return map(floats.__getitem__, values)


def _bounded(halves: np.ndarray, bounds: np.ndarray) -> Optional[np.ndarray]:
    """numpy's ``integers(0, bounds)`` by Lemire's method on 32-bit
    ``halves``, or ``None`` where a half would be rejected."""
    scaled = halves.astype(np.uint64) * bounds
    if ((scaled & 0xFFFFFFFF) < (1 << 32) % bounds).any():
        return None
    return scaled >> 32


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
            count = min(self.burst, n - emitted)
            # a burst repeats one event: the stream holds it once
            yield from repeat(WorkloadEvent(site, item, -1.0), count)
            emitted += count
            bursts += 1
            if bursts % self.restock_every == 0 and emitted < n:
                yield WorkloadEvent(self.maker, self.hot[0], self.restock_amount)
                emitted += 1
