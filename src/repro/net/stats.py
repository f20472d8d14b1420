"""Message accounting.

The paper's evaluation metric is the *number of correspondences for
update*, where **2 messages are counted as 1 correspondence** (Fig. 6
caption). :class:`NetworkStats` counts raw transmitted messages per
``tag``, per site, per (site, tag) and per kind, and converts to
correspondences on demand.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Optional

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.message import Message

#: messages per correspondence, per the paper's Fig. 6 caption
MESSAGES_PER_CORRESPONDENCE = 2


def correspondences(message_count: float) -> float:
    """Convert a raw message count to the paper's correspondence unit."""
    return message_count / MESSAGES_PER_CORRESPONDENCE


class NetworkStats:
    """Counters for every message handed to the network.

    Dropped messages (faults) are counted separately — they were
    transmitted, so they still cost a correspondence half.

    A send bumps ``sent_total`` and one slot of a ledger keyed
    ``(src, dst, tag, kind)``. The views — ``by_tag`` (Fig. 6),
    ``by_site`` and ``by_site_tag`` (Table 1), and the per-kind census
    ``by_kind`` — are read a few times per run, so reading one folds the
    ledger into them first, in its insertion order: each view gets the
    key order eager counting would.
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
        #: (src, dst, tag, kind) -> sends not yet folded into the views
        self._ledger: Counter = Counter()

    def record_send(self, msg: "Message", size: Optional[int] = None) -> None:
        """Account one transmitted message (``size`` in wire bytes)."""
        self.sent_total += 1
        self._ledger[(msg.src, msg.dst, msg.tag, msg.kind)] += 1
        if size is not None:
            self.bytes_total += size

    def record_drop(self, msg: "Message") -> None:
        """Account a message lost to a fault (already counted as sent)."""
        self.dropped_total += 1

    # -------------------------------------------------------------- #
    # views (folded on read)
    # -------------------------------------------------------------- #

    def _fold(self) -> None:
        """Bring the ``by_*`` views up to date with the ledger."""
        for (src, dst, tag, kind), n in self._ledger.items():
            self._by_tag[tag] += n
            self._by_site[src] += n
            self._by_site[dst] += n
            self._by_site_tag[(src, tag)] += n
            self._by_site_tag[(dst, tag)] += n
            self._by_kind[kind] += n
        self._ledger.clear()

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
        return correspondences(
            sum(self.by_site_tag[(site, t)] for t in tags)
        )

    def correspondences_for_tags(self, tags) -> float:
        """System-wide correspondences restricted to ``tags``."""
        return correspondences(sum(self.by_tag[t] for t in tags))

    def __str__(self) -> str:
        tags = ", ".join(f"{t}={n}" for t, n in sorted(self.by_tag.items()))
        return (
            f"NetworkStats(sent={self.sent_total}, dropped={self.dropped_total},"
            f" correspondences={self.correspondences_total:.1f}, tags: {tags})"
        )
