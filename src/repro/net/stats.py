"""Message accounting.

The paper's evaluation metric is the *number of correspondences for
update*, where **2 messages are counted as 1 correspondence** (Fig. 6
caption). :class:`NetworkStats` counts raw transmitted messages per
``tag``, per site, per (site, tag) and per kind, and converts to
correspondences on demand.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro.net.message import _KINDS, Message, _kind_names

#: messages per correspondence, per the paper's Fig. 6 caption
MESSAGES_PER_CORRESPONDENCE = 2


def correspondences(message_count: float) -> float:
    """Convert a raw message count to the paper's correspondence unit."""
    return message_count / MESSAGES_PER_CORRESPONDENCE


class _Link(dict):
    """A directed pair's count cells since the last fold, and its FIFO clock."""

    __slots__ = ("last",)


class NetworkStats:
    """Counters for every message handed to the network.

    Dropped messages (faults) are counted separately — they were
    transmitted, so they still cost a correspondence half.

    A send bumps ``sent_total`` and one count cell of its pair's
    :class:`_Link`. The views — ``by_tag`` (Fig. 6), ``by_site`` and
    ``by_site_tag`` (Table 1), and the per-kind census ``by_kind`` — are
    read a few times per run, so reading one folds the cells into them
    first, in the order the cells were first used: each view gets the
    key order eager counting would; one with no send since the last
    (``sent_total`` unmoved) walks nothing.
    """

    def __init__(self) -> None:
        self.sent_total = 0
        self.dropped_total = 0
        #: total wire bytes (populated only when the network has a
        #: SizeModel); a dropped message's bytes stay in it — they were
        #: transmitted
        self.bytes_total = 0
        self._by_tag: Counter = Counter()
        self._by_site: Counter = Counter()
        self._by_site_tag: Counter = Counter()
        self._by_kind: Counter = Counter()
        #: src -> dst -> the pair's link; an endpoint keeps its own row
        self.links: dict[str, dict[str, _Link]] = {}
        #: each cell's src, dst, tag, kind, link and key, flat, by first use
        self._first_use: list = []
        #: ``sent_total`` at the last fold
        self._folded = 0

    def link(self, src: str, dst: str) -> _Link:
        """The ``(src, dst)`` link, made on the pair's first send."""
        links = self.links.setdefault(src, {})
        if dst not in links:
            link = links[dst] = _Link()
            link.last = float("-inf")  # clamps nothing
        return links[dst]

    def count(self, src: str, dst: str, link: _Link, kind: str, tag: str) -> None:
        """Count one send in ``link``'s cell for it, made on first use: the
        kind, or ``(kind, tag)`` for a tag other than the kind's default."""
        names = _KINDS.get(kind) or _kind_names(kind)
        cell = kind if tag is names[1] else (kind, tag)
        if cell not in link:
            link[cell] = 0
            self._first_use += (src, dst, tag, kind, link, cell)
        link[cell] += 1

    def record_send(self, msg: Message, size: Optional[int] = None) -> None:
        """Account one transmitted message (``size`` in wire bytes)."""
        self.sent_total += 1
        self.count(msg.src, msg.dst, self.link(msg.src, msg.dst), msg.kind, msg.tag)
        if size is not None:
            self.bytes_total += size

    def record_drop(self, msg: Message) -> None:
        """Account a message lost to a fault (already counted as sent)."""
        self.dropped_total += 1

    # -------------------------------------------------------------- #
    # views (folded on read)
    # -------------------------------------------------------------- #

    def _fold(self) -> None:
        """Move the cells' counts into the ``by_*`` views."""
        if self._folded == self.sent_total:
            return
        self._folded = self.sent_total
        for src, dst, tag, kind, link, cell in zip(*[iter(self._first_use)] * 6):
            n, link[cell] = link[cell], 0
            if n:
                self._by_tag[tag] += n
                self._by_site[src] += n
                self._by_site[dst] += n
                self._by_site_tag[(src, tag)] += n
                self._by_site_tag[(dst, tag)] += n
                self._by_kind[kind] += n

    @property
    def by_tag(self) -> Counter:
        """tag -> messages sent under it (Fig. 6's basis)."""
        self._fold()
        return self._by_tag

    @property
    def by_site(self) -> Counter:
        """site -> messages it sent or received (Table 1's per-site basis)."""
        self._fold()
        return self._by_site

    @property
    def by_site_tag(self) -> Counter:
        """(site, tag) -> messages the site sent or received under it."""
        self._fold()
        return self._by_site_tag

    @property
    def by_kind(self) -> Counter:
        """message kind -> messages sent of it (a census of the paths run)."""
        self._fold()
        return self._by_kind

    @property
    def correspondences_total(self) -> float:
        """System-wide correspondences (2 messages = 1)."""
        return correspondences(self.sent_total)

    def correspondences_for_tag(self, tag: str) -> float:
        return correspondences(self.by_tag[tag])

    def correspondences_for_site_tags(self, site: str, tags) -> float:
        """Correspondences a site participated in, restricted to ``tags``."""
        by_site_tag = self.by_site_tag
        return correspondences(sum(by_site_tag[(site, t)] for t in tags))

    def correspondences_for_tags(self, tags) -> float:
        """System-wide correspondences restricted to ``tags``."""
        return correspondences(sum(self.by_tag[t] for t in tags))

    def __str__(self) -> str:
        tags = ", ".join(f"{t}={n}" for t, n in sorted(self.by_tag.items()))
        return (
            f"NetworkStats(sent={self.sent_total}, dropped={self.dropped_total},"
            f" correspondences={self.correspondences_total:.1f}, tags: {tags})"
        )
