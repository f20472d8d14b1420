"""Message model for the simulated network.

A :class:`Message` is an immutable envelope. ``kind`` names the protocol
verb (e.g. ``"av.request"``), ``tag`` attributes the message to a protocol
family for accounting (the paper's Fig. 6 counts messages per mechanism),
and ``reply_to`` carries the correlation id for request/reply RPC.
"""

from __future__ import annotations

import sys
from collections import namedtuple
from itertools import count
from typing import Any, Optional

_msg_ids = count(1)

#: kind -> (interned kind, interned default tag): one lookup per message
#: instead of an intern and a split; fills on first use
_KINDS: dict[str, tuple[str, str]] = {}

_new_tuple = tuple.__new__


def _kind_names(kind: str) -> tuple[str, str]:
    """``kind``'s :data:`_KINDS` entry, filled on its first use."""
    names = _KINDS.get(kind)
    if names is None:
        kind = sys.intern(kind)
        names = _KINDS[kind] = (kind, sys.intern(kind.split(".", 1)[0]))
    return names


class Message(
    namedtuple(
        "Message", "src dst kind payload tag msg_id reply_to expects_reply"
    )
):
    """One network message.

    A tuple with named, read-only fields. Every send builds one, and a
    tuple is the cheapest immutable object to build: it is filled in
    one call, with no ``object.__setattr__`` per field. Assigning to a
    field raises :class:`AttributeError`.

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
        Unique id; drawn from a module-wide counter when not given.
    reply_to:
        If set, this message is the reply to the request with that id.
    expects_reply:
        ``True`` for messages sent via the RPC helper; tells the receiving
        endpoint to route the handler's return value back.
    """

    __slots__ = ()

    def __new__(
        cls,
        src: str,
        dst: str,
        kind: str,
        payload: Any = None,
        tag: str = "",
        msg_id: Optional[int] = None,
        reply_to: Optional[int] = None,
        expects_reply: bool = False,
    ) -> "Message":
        # Kinds and tags come from a small fixed vocabulary but are
        # compared and hashed on every dispatch/accounting step; intern
        # them so those operations hit the pointer-equality fast path.
        names = _KINDS.get(kind) or _kind_names(kind)
        return _new_tuple(cls, (
            src,
            dst,
            names[0],
            payload,
            sys.intern(tag) if tag else names[1],
            next(_msg_ids) if msg_id is None else msg_id,
            reply_to,
            expects_reply,
        ))

    @property
    def is_reply(self) -> bool:
        return self.reply_to is not None

    def __str__(self) -> str:
        arrow = f"{self.src}->{self.dst}"
        suffix = f" reply_to={self.reply_to}" if self.is_reply else ""
        return f"<{self.kind} #{self.msg_id} {arrow}{suffix}>"
