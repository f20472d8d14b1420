"""Message model for the simulated network.

A :class:`Message` is an immutable envelope. ``kind`` names the protocol
verb (e.g. ``"av.request"``), ``tag`` attributes the message to a protocol
family for accounting (the paper's Fig. 6 counts messages per mechanism),
and ``reply_to`` carries the correlation id for request/reply RPC.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field
from itertools import count
from typing import Any, Optional

_msg_ids = count(1)

#: kind -> (interned kind, interned default tag): one lookup per message
#: instead of an intern and a split; fills on first use
_KINDS: dict[str, tuple[str, str]] = {}


@dataclass(frozen=True, slots=True)
class Message:
    """One network message.

    Attributes
    ----------
    src, dst:
        Endpoint names of sender and receiver.
    kind:
        Protocol verb, dispatched on by the receiving endpoint.
    payload:
        Arbitrary (treat-as-immutable) message body.
    tag:
        Accounting category; defaults to ``kind``'s prefix before the dot.
    msg_id:
        Unique id assigned at construction.
    reply_to:
        If set, this message is the reply to the request with that id.
    expects_reply:
        ``True`` for messages sent via the RPC helper; tells the receiving
        endpoint to route the handler's return value back.
    """

    src: str
    dst: str
    kind: str
    payload: Any = None
    tag: str = ""
    msg_id: int = field(default_factory=lambda: next(_msg_ids))
    reply_to: Optional[int] = None
    expects_reply: bool = False

    def __post_init__(self) -> None:
        # Kinds and tags come from a small fixed vocabulary but are
        # compared and hashed on every dispatch/accounting step; intern
        # them so those operations hit the pointer-equality fast path.
        names = _KINDS.get(self.kind)
        if names is None:
            kind = sys.intern(self.kind)
            names = _KINDS[kind] = (kind, sys.intern(kind.split(".", 1)[0]))
        kind, default_tag = names
        object.__setattr__(self, "kind", kind)
        object.__setattr__(
            self, "tag", sys.intern(self.tag) if self.tag else default_tag
        )

    @property
    def is_reply(self) -> bool:
        return self.reply_to is not None

    def __str__(self) -> str:
        arrow = f"{self.src}->{self.dst}"
        suffix = f" reply_to={self.reply_to}" if self.is_reply else ""
        return f"<{self.kind} #{self.msg_id} {arrow}{suffix}>"
