"""Message accounting.

The paper's evaluation metric is the *number of correspondences for
update*, where **2 messages are counted as 1 correspondence** (Fig. 6
caption). :class:`NetworkStats` counts raw transmitted messages along
several axes (per sender, per site-pair, per ``tag``) and converts to
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


#: every public attribute; each is also a constructor argument
_FIELDS = (
    "sent_total", "dropped_total", "by_sender", "by_receiver", "by_pair",
    "by_tag", "by_kind", "by_site", "by_site_tag", "bytes_total",
    "bytes_by_tag", "bytes_by_pair", "bytes_dropped",
)


class NetworkStats:
    """Counters for every message handed to the network.

    Dropped messages (faults) are counted separately — they were
    transmitted, so they still cost a correspondence half.

    A send bumps ``sent_total`` and one slot of a ledger keyed
    ``(src, dst, tag, kind)``. The seven ``by_*`` views are read a few
    times per run, so reading one folds the ledger into them first — in
    its insertion order, which gives each view the key order eager
    counting would. Counter arguments are copied, not adopted.
    """

    def __init__(
        self,
        sent_total: int = 0,
        dropped_total: int = 0,
        by_sender: Optional[Counter] = None,
        by_receiver: Optional[Counter] = None,
        by_pair: Optional[Counter] = None,
        by_tag: Optional[Counter] = None,
        by_kind: Optional[Counter] = None,
        by_site: Optional[Counter] = None,
        by_site_tag: Optional[Counter] = None,
        bytes_total: int = 0,
        bytes_by_tag: Optional[Counter] = None,
        bytes_by_pair: Optional[Counter] = None,
        bytes_dropped: int = 0,
    ) -> None:
        self.sent_total = sent_total
        self.dropped_total = dropped_total
        self._by_sender = Counter(by_sender)
        self._by_receiver = Counter(by_receiver)
        self._by_pair = Counter(by_pair)
        self._by_tag = Counter(by_tag)
        self._by_kind = Counter(by_kind)
        self._by_site = Counter(by_site)
        self._by_site_tag = Counter(by_site_tag)
        #: total wire bytes (populated only when the network has a SizeModel)
        self.bytes_total = bytes_total
        #: tag -> wire bytes
        self.bytes_by_tag = Counter(bytes_by_tag)
        #: (src, dst) -> wire bytes
        self.bytes_by_pair = Counter(bytes_by_pair)
        #: wire bytes of dropped messages (transmitted but never delivered;
        #: already included in ``bytes_total``, like dropped message counts)
        self.bytes_dropped = bytes_dropped
        #: (src, dst, tag, kind) -> sends not yet folded into the views
        self._ledger: Counter = Counter()

    def record_send(self, msg: "Message", size: Optional[int] = None) -> None:
        """Account one transmitted message (``size`` in wire bytes)."""
        self.sent_total += 1
        self._ledger[(msg.src, msg.dst, msg.tag, msg.kind)] += 1
        if size is not None:
            self.bytes_total += size
            self.bytes_by_tag[msg.tag] += size
            self.bytes_by_pair[(msg.src, msg.dst)] += size

    def record_drop(self, msg: "Message", size: Optional[int] = None) -> None:
        """Account a message lost to a fault (already counted as sent).

        ``size`` attributes the wasted wire bytes: the message was
        transmitted, so its bytes stay in ``bytes_total``, and
        ``bytes_dropped`` records how much of that never arrived.
        """
        self.dropped_total += 1
        if size is not None:
            self.bytes_dropped += size

    # -------------------------------------------------------------- #
    # views (folded on read)
    # -------------------------------------------------------------- #

    def _fold(self) -> None:
        """Bring the ``by_*`` views up to date with the ledger."""
        for (src, dst, tag, kind), n in self._ledger.items():
            self._by_sender[src] += n
            self._by_receiver[dst] += n
            self._by_pair[(src, dst)] += n
            self._by_tag[tag] += n
            self._by_kind[kind] += n
            self._by_site[src] += n
            self._by_site[dst] += n
            self._by_site_tag[(src, tag)] += n
            self._by_site_tag[(dst, tag)] += n
        self._ledger.clear()

    @property
    def by_sender(self) -> Counter:
        self._fold()
        return self._by_sender

    @property
    def by_receiver(self) -> Counter:
        self._fold()
        return self._by_receiver

    @property
    def by_pair(self) -> Counter:
        self._fold()
        return self._by_pair

    @property
    def by_tag(self) -> Counter:
        self._fold()
        return self._by_tag

    @property
    def by_kind(self) -> Counter:
        self._fold()
        return self._by_kind

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
    def correspondences_total(self) -> float:
        """System-wide correspondences (2 messages = 1)."""
        return correspondences(self.sent_total)

    def correspondences_for_site(self, site: str) -> float:
        """Correspondences a site participated in (sent or received)."""
        return correspondences(self.by_site[site])

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

    def snapshot(self) -> "NetworkStats":
        """A deep copy usable as a checkpoint."""
        return NetworkStats(**{name: getattr(self, name) for name in _FIELDS})

    def diff(self, earlier: "NetworkStats") -> "NetworkStats":
        """Counters accumulated since the ``earlier`` snapshot."""
        return NetworkStats(
            **{name: getattr(self, name) - getattr(earlier, name) for name in _FIELDS}
        )

    def reset(self) -> None:
        self.__init__()

    def __str__(self) -> str:
        tags = ", ".join(f"{t}={n}" for t, n in sorted(self.by_tag.items()))
        return (
            f"NetworkStats(sent={self.sent_total}, dropped={self.dropped_total},"
            f" correspondences={self.correspondences_total:.1f}, tags: {tags})"
        )
