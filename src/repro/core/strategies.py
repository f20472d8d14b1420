"""Selecting strategies: which peer to ask for AV.

The paper's selecting function targets "the order of the volume the
other sites keep" — i.e. the believed-richest peer first
(:class:`BelievedRichestStrategy`). The alternatives exist for the
selection-strategy ablation (DESIGN.md, Ablation B).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Collection, Optional, Sequence

import numpy as np

from repro.core.beliefs import BeliefTable


class SelectionStrategy(ABC):
    """Chooses the next peer to ask for AV for ``item``.

    ``tried`` holds the peers already asked during the current gathering
    round, in a read-only container (not necessarily a ``frozenset``);
    implementations must never return one of them.
    """

    @abstractmethod
    def select(
        self,
        item: str,
        candidates: Sequence[str],
        tried: Collection[str],
        beliefs: BeliefTable,
    ) -> Optional[str]:
        """Return the next peer to ask, or ``None`` if nobody is left."""

    def __repr__(self) -> str:
        return f"<{type(self).__name__}>"


class BelievedRichestStrategy(SelectionStrategy):
    """The paper's strategy: ask the peer believed to hold the most AV."""

    def select(self, item, candidates, tried, beliefs):
        return beliefs.richest(item, candidates, tried)


class RoundRobinStrategy(SelectionStrategy):
    """Cycle through peers in a fixed order, ignoring beliefs."""

    def __init__(self) -> None:
        self._next_index: dict[str, int] = {}

    def select(self, item, candidates, tried, beliefs):
        remaining = [c for c in candidates if c not in tried]
        if not remaining:
            return None
        start = self._next_index.get(item, 0) % len(candidates)
        ordered = list(candidates[start:]) + list(candidates[:start])
        for peer in ordered:
            if peer not in tried:
                self._next_index[item] = (candidates.index(peer) + 1) % len(
                    candidates
                )
                return peer
        return None  # pragma: no cover - remaining nonempty implies a hit


class RandomStrategy(SelectionStrategy):
    """Pick a uniformly random untried peer (needs an rng for determinism)."""

    def __init__(self, rng: np.random.Generator) -> None:
        self.rng = rng

    def select(self, item, candidates, tried, beliefs):
        remaining = [c for c in candidates if c not in tried]
        if not remaining:
            return None
        return remaining[int(self.rng.integers(len(remaining)))]


class FixedOrderStrategy(SelectionStrategy):
    """Always try peers in one configured order (e.g. maker first).

    Models the "always go to the base site" habit — a useful contrast
    showing why belief-guided selection spreads load.
    """

    def __init__(self, order: Sequence[str]) -> None:
        self.order = list(order)

    def select(self, item, candidates, tried, beliefs):
        candidate_set = set(candidates)
        for peer in self.order:
            if peer in candidate_set and peer not in tried:
                return peer
        # Fall back to any untried candidate not in the configured order.
        for peer in candidates:
            if peer not in tried:
                return peer
        return None

    def __repr__(self) -> str:
        return f"<FixedOrderStrategy {self.order}>"
