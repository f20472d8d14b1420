"""Beliefs about peers' allowable volumes.

The paper's selecting function orders candidate sites "according to the
amount of AV the site keeps, which information is collected at the
necessary communication for AV management and **may not be current
data**". :class:`BeliefTable` is that possibly-stale knowledge: every AV
request/grant piggybacks the sender's current AV level, and the receiver
records it with a timestamp. No extra messages are ever sent to refresh
beliefs — staleness is a feature of the design, and the staleness
ablation quantifies its cost.

What a site knows before any message is the initial deal (paper §3.2:
data comes "initially from the base"). That is one fact per item, so the
table reads it through a ``{peer: Belief}`` dict shared by every site of
the item's interest set, instead of holding a copy per site.
"""

from __future__ import annotations

from typing import (
    Collection, Dict, Iterable, Mapping, NamedTuple, Optional, Tuple,
)


class Belief(NamedTuple):
    """One remembered observation of a peer's AV for an item."""

    volume: float
    observed_at: float


#: the deal of an item nobody dealt; never mutated
_NO_DEAL: Dict[str, Belief] = {}


class BeliefTable:
    """What one site believes about the AV levels of its peers."""

    def __init__(self, site: str = "site") -> None:
        self.site = site
        #: (peer, item) -> Belief, every observation made
        self._beliefs: Dict[Tuple[str, str], Belief] = {}
        #: item -> its initial deal {peer: Belief}, shared by reference
        #: with the item's other sites; the holder's own entry is unread
        self._deals: Dict[str, Dict[str, Belief]] = {}
        #: observations recorded (diagnostic)
        self.observations = 0

    def seed(self, item: str, deal: Dict[str, Belief]) -> None:
        """Know ``deal`` as the initial AV of ``item``'s peers.

        ``deal`` is kept by reference, not copied: it must not be
        mutated afterwards, and must be seeded before ``item`` is
        observed. Counts as one observation per peer dealt.
        """
        self.seed_many({item: deal})

    def seed_many(self, deals: Mapping[str, Dict[str, Belief]]) -> None:
        """:meth:`seed` every ``{item: deal}`` of ``deals``, in order."""
        self._deals.update(deals)
        site = self.site
        self.observations += sum(
            len(deal) - (site in deal) for deal in deals.values()
        )

    def observe(self, peer: str, item: str, volume: float, now: float) -> None:
        """Record that ``peer`` held ``volume`` AV for ``item`` at ``now``.

        Older observations never overwrite newer ones (out-of-order
        message delivery must not regress knowledge).
        """
        key = (peer, item)
        existing = self._beliefs.get(key)
        if existing is None and peer != self.site:
            existing = self._deals.get(item, _NO_DEAL).get(peer)
        if existing is not None and existing.observed_at > now:
            return
        self._beliefs[key] = tuple.__new__(Belief, (volume, now))
        self.observations += 1

    def believed_volume(self, peer: str, item: str) -> Optional[float]:
        """Last known AV of ``peer`` for ``item``; ``None`` if never seen."""
        belief = self._beliefs.get((peer, item))
        if belief is None and peer != self.site:
            belief = self._deals.get(item, _NO_DEAL).get(peer)
        return belief.volume if belief is not None else None

    def belief(self, peer: str, item: str) -> Optional[Belief]:
        belief = self._beliefs.get((peer, item))
        if belief is None and peer != self.site:
            belief = self._deals.get(item, _NO_DEAL).get(peer)
        return belief

    def richest(
        self, item: str, candidates: Iterable[str], tried: Collection[str]
    ) -> Optional[str]:
        """The untried candidate believed to hold the most AV for ``item``.

        Unknown peers rank *above* peers believed empty (an unknown peer
        might have plenty; a known-empty one almost surely does not) but
        below peers with known positive volume. Ties break by name so the
        choice — and hence the whole simulation — is deterministic.
        ``None`` once every candidate is in ``tried``.
        """
        beliefs = self._beliefs
        deal = self._deals.get(item, _NO_DEAL)
        site = self.site
        best = None
        top = 0.0
        for peer in candidates:
            if peer in tried:
                continue
            belief = beliefs.get((peer, item))
            if belief is None and peer != site:
                belief = deal.get(peer)
            # unknown: between "known empty" and "known ≥ 1"
            volume = 0.5 if belief is None else belief[0]
            if best is None or volume > top or volume == top and peer < best:
                best, top = peer, volume
        return best

    def entries(self):
        """Iterate ``(peer, item, Belief)`` over every held belief.

        Dealt beliefs come first, in seeding order, each carrying its
        latest observation; then the observation-only ones, in the order
        first observed. Used by the observability sampler to compare
        believed against actual AV levels (belief staleness).
        """
        beliefs = self._beliefs
        deals = self._deals
        site = self.site
        for item, deal in deals.items():
            for peer, dealt in deal.items():
                if peer != site:
                    yield peer, item, beliefs.get((peer, item), dealt)
        for (peer, item), belief in beliefs.items():
            if peer == site or peer not in deals.get(item, _NO_DEAL):
                yield peer, item, belief

    def forget_peer(self, peer: str) -> None:
        """Drop all beliefs about a peer (e.g. observed to have crashed)."""
        self._beliefs = {
            (p, item): belief
            for p, item, belief in self.entries() if p != peer
        }
        self._deals = {}

    def __len__(self) -> int:
        return sum(1 for _ in self.entries())

    def __repr__(self) -> str:
        return f"<BeliefTable {self.site!r} entries={len(self)}>"
