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

from typing import Dict, Optional


class VectorClock:
    """A plain site-name → counter vector clock."""

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[Dict[str, int]] = None) -> None:
        self.counts: Dict[str, int] = dict(counts) if counts else {}

    def tick(self, site: str) -> None:
        self.counts[site] = self.counts.get(site, 0) + 1

    def merge(self, other: "VectorClock") -> None:
        for site, n in other.counts.items():
            if n > self.counts.get(site, 0):
                self.counts[site] = n

    def copy(self) -> "VectorClock":
        return VectorClock(self.counts)

    def dominates(self, other: "VectorClock") -> bool:
        """``True`` iff ``self`` >= ``other`` pointwise (other ⪯ self)."""
        return all(self.counts.get(s, 0) >= n for s, n in other.counts.items())

    def __repr__(self) -> str:
        inner = ",".join(f"{s}:{n}" for s, n in sorted(self.counts.items()))
        return f"<VC {inner}>"


class GrantRecord:
    """The last AV grant served by one (grantor, item) pair."""

    __slots__ = ("clock", "av_after", "time", "msg_id")

    def __init__(self, clock: VectorClock, av_after: float, time: float, msg_id: int) -> None:
        self.clock = clock
        self.av_after = av_after
        self.time = time
        self.msg_id = msg_id


class CausalOrder:
    """Happens-before bookkeeping over message + select events.

    Fed by the sanitizer: :meth:`on_send`/:meth:`on_recv`/:meth:`on_drop`
    from the ``msg.*`` events, :meth:`on_grant` when an ``av.request``
    reply leaves the grantor, and :meth:`on_select` from the protocol's
    ``av.select`` event.  Findings accumulate as ``(kind, detail)``
    warning tuples pulled by the sanitizer.
    """

    #: tolerance when comparing believed levels against granted-after levels
    EPS = 1e-9

    def __init__(self, max_samples: int = 10) -> None:
        self.clocks: Dict[str, VectorClock] = {}
        self._msg_clocks: Dict[int, VectorClock] = {}
        #: last grant per (grantor, item)
        self.last_grant: Dict[tuple, GrantRecord] = {}
        self.stale_races = 0
        self.belief_lags = 0
        self.samples: list = []
        self._max_samples = max_samples

    def _clock(self, site: str) -> VectorClock:
        clock = self.clocks.get(site)
        if clock is None:
            clock = VectorClock()
            self.clocks[site] = clock
        return clock

    # ------------------------------------------------------------- #
    # message events
    # ------------------------------------------------------------- #

    def on_send(self, src: str, msg_id: int) -> None:
        clock = self._clock(src)
        clock.tick(src)
        self._msg_clocks[msg_id] = clock.copy()

    def on_recv(self, dst: str, msg_id: int) -> None:
        snapshot = self._msg_clocks.pop(msg_id, None)
        clock = self._clock(dst)
        if snapshot is not None:
            clock.merge(snapshot)
        clock.tick(dst)

    def on_drop(self, msg_id: int) -> None:
        self._msg_clocks.pop(msg_id, None)

    # ------------------------------------------------------------- #
    # protocol events
    # ------------------------------------------------------------- #

    def on_grant(self, grantor: str, item: str, av_after: float,
                 time: float, msg_id: int) -> None:
        """Record a grant at the moment its reply is sent (the snapshot
        for ``msg_id`` must already exist, i.e. call after ``on_send``)."""
        snapshot = self._msg_clocks.get(msg_id)
        clock = snapshot if snapshot is not None else self._clock(grantor).copy()
        self.last_grant[(grantor, item)] = GrantRecord(clock, av_after, time, msg_id)

    def on_select(self, site: str, item: str, target: str,
                  believed: Optional[float], time: float,
                  trace: Optional[str] = None, span: Optional[int] = None) -> None:
        """Classify one selecting decision against the target's last grant."""
        if believed is None:
            return
        grant = self.last_grant.get((target, item))
        if grant is None or believed <= grant.av_after + self.EPS:
            return
        # The selector believes the target holds more than it did after
        # its most recent grant: the belief is stale. HB decides which
        # flavour.
        ordered = self._clock(site).dominates(grant.clock)
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
                "av_after": grant.av_after,
                "time": time,
                "trace": trace,
                "span": span,
            })
