"""Shared value types for the AV consistency core."""

from __future__ import annotations

import enum
from collections import namedtuple
from itertools import count
from typing import NamedTuple, Optional

#: message-tag constants used for correspondence accounting; canonically
#: declared in the protocol registry, re-exported here for back-compat
from repro.net.protocol import (  # noqa: F401
    TAG_AV,
    TAG_CENTRAL,
    TAG_IMMEDIATE,
    TAG_PROPAGATE,
)

#: tags that constitute "correspondences for update" in the paper's sense:
#: messages required to *complete* an update (Fig. 6 counts these).
UPDATE_TAGS = (TAG_AV, TAG_IMMEDIATE, TAG_CENTRAL)


class UpdateKind(enum.Enum):
    """How an update must be applied (the checking function's verdict)."""

    DELAY = "delay"          #: AV-gated local update, lazy propagation
    IMMEDIATE = "immediate"  #: primary-copy global update


class UpdateOutcome(enum.Enum):
    """Terminal state of one update request."""

    COMMITTED = "committed"
    #: Delay Update could not gather enough AV (globally exhausted or
    #: unreachable); the business-level meaning is "cannot ship".
    REJECTED = "rejected"
    #: Immediate Update aborted (a participant voted no).
    ABORTED = "aborted"
    #: the originating site failed mid-protocol
    FAILED = "failed"
    #: deterministically rejected by overload admission control (or the
    #: tripped 2PC circuit breaker) before entering the protocol; the
    #: result carries a ``retry_after`` hint. Only produced when
    #: ``SystemConfig.overload`` is set.
    SHED = "shed"


_request_ids = count(1)

_new_tuple = tuple.__new__


class UpdateRequest(
    namedtuple("UpdateRequest", "site item delta issued_at request_id")
):
    """A user's request to change an item's stock by ``delta`` at ``site``:
    a tuple with read-only fields; ``request_id`` is drawn from a
    module-wide counter when not given."""

    __slots__ = ()

    def __new__(cls, site: str, item: str, delta: float, issued_at: float = 0.0,
                request_id: Optional[int] = None) -> "UpdateRequest":
        if request_id is None:
            request_id = next(_request_ids)
        return _new_tuple(cls, (site, item, delta, issued_at, request_id))

    def __str__(self) -> str:
        return f"upd#{self.request_id} {self.item}{self.delta:+} @{self.site}"


class UpdateResult(NamedTuple):
    """Everything the harness wants to know about a finished update: a
    tuple with read-only fields (hot paths build it with ``tuple.__new__``)."""

    request: UpdateRequest
    kind: UpdateKind
    outcome: UpdateOutcome
    #: completed without any network traffic (the paper's headline event)
    local_only: bool = False
    #: simulation time the update finished
    finished_at: float = 0.0
    #: number of AV-transfer requests issued while gathering volume
    av_requests: int = 0
    #: AV volume obtained from peers for this update
    av_obtained: float = 0.0
    #: suggested client backoff (simulated seconds) on a SHED outcome
    retry_after: float = 0.0

    @property
    def latency(self) -> float:
        """Simulated time from issue to completion."""
        return self.finished_at - self.request.issued_at

    @property
    def committed(self) -> bool:
        return self.outcome is UpdateOutcome.COMMITTED

    def __str__(self) -> str:
        mark = "local" if self.local_only else f"{self.av_requests} av-req"
        return (
            f"{self.request} -> {self.outcome.value}"
            f" [{self.kind.value}, {mark}, t={self.finished_at:g}]"
        )
