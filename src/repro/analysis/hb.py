"""Vector clocks and the happens-before belief checker.

The Delay Update *selecting* function acts on piggybacked beliefs that
may be stale (paper §3.3: replies carry the grantor's remaining AV).
Staleness is inherent to the design — the paper accepts it — but two
flavours deserve different treatment when auditing a run:

* **stale-belief race** — the selection is *concurrent* (in the
  happens-before sense) with the grant that invalidated its belief.  No
  message chain could have told the selector; the protocol's retry loop
  absorbs the miss.  Reported as a warning with a count, because a high
  rate signals the belief-refresh machinery is not keeping up.
* **belief lag** — the invalidating grant *happened before* the
  selection (a message chain reached the selecting site after the
  grant), yet the selector still acted on the older level.  This means
  refresh information was available on some path but not applied —
  exactly the class of bug the piggybacking exists to prevent.

Clock discipline: each site ticks on every send and on every receive
(after merging the sender's snapshot), the standard construction, driven
entirely from the run's ``msg.*`` events — no protocol changes needed.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

#: a vector clock: site -> counter, a missing site counting 0
Clock = Dict[str, int]


def dominates(clock: Clock, other: Clock) -> bool:
    """``True`` iff ``clock`` >= ``other`` pointwise (other ⪯ clock)."""
    return all(clock.get(s, 0) >= n for s, n in other.items())


class CausalOrder:
    """Happens-before bookkeeping over message + select events.

    The sanitizer keeps :attr:`clocks` and :attr:`msg_clocks` up as it
    folds the ``msg.*`` events: a sender ticks its clock and the message
    carries a copy; a receiver merges the copy into its own clock, then
    ticks. On top of those clocks, :meth:`on_grant` records each
    ``av.request`` reply as it leaves the grantor and :meth:`on_select`
    classifies each ``av.select`` event against the target's latest
    grant. Findings accumulate as counts and samples pulled by the
    sanitizer.
    """

    def __init__(self, max_samples: int = 10) -> None:
        #: site -> its vector clock
        self.clocks: Dict[str, Clock] = {}
        #: in-flight message id -> a copy of its sender's clock at send
        self.msg_clocks: Dict[int, Clock] = {}
        #: last grant per (grantor, item): (clock at its send, av_after)
        self.last_grant: Dict[tuple, Tuple[Clock, float]] = {}
        self.stale_races = 0
        self.belief_lags = 0
        self.samples: list = []
        self._max_samples = max_samples

    def _clock(self, site: str) -> Clock:
        clock = self.clocks.get(site)
        if clock is None:
            clock = self.clocks[site] = {}
        return clock

    # ------------------------------------------------------------- #
    # protocol events
    # ------------------------------------------------------------- #

    def on_grant(self, grantor: str, item: str, av_after: float,
                 time: float, msg_id: int) -> None:
        """Record a grant at the moment its reply is sent (after the
        reply's ``msg.send`` put its clock in :attr:`msg_clocks`)."""
        # A snapshot is never changed once taken, so the grant keeps it.
        clock = self.msg_clocks.get(msg_id)
        if clock is None:
            clock = self._clock(grantor).copy()
        self.last_grant[(grantor, item)] = (clock, av_after)

    def on_select(self, site: str, item: str, target: str,
                  believed: Optional[float], time: float,
                  trace: Optional[str] = None, span: Optional[int] = None) -> None:
        """Classify one selecting decision against the target's last grant."""
        if believed is None:
            return
        grant = self.last_grant.get((target, item))
        if grant is None:
            return
        clock, av_after = grant
        if believed <= av_after:
            return
        # The selector believes the target holds more than it did after
        # its most recent grant: the belief is stale. HB decides which
        # flavour.
        ordered = dominates(self._clock(site), clock)
        kind = "hb.belief-lag" if ordered else "hb.stale-belief-race"
        if ordered:
            self.belief_lags += 1
        else:
            self.stale_races += 1
        if len(self.samples) < self._max_samples:
            self.samples.append({
                "kind": kind,
                "site": site,
                "item": item,
                "target": target,
                "believed": believed,
                "av_after": av_after,
                "time": time,
                "trace": trace,
                "span": span,
            })
