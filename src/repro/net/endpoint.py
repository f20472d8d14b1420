"""Endpoints: named parties that exchange messages over the network.

An endpoint dispatches incoming messages to registered *handlers* by
``kind``. A handler may

* return a plain value — sent back immediately when the message expects a
  reply;
* return a generator — spawned as a simulation process whose return value
  becomes the reply (this is how multi-step protocol handlers run).

The request/reply helper hides correlation ids: ``reply = yield
endpoint.request(dst, kind, payload)`` reads like an RPC while every
message is still individually transmitted, latency-delayed, and counted.
"""

from __future__ import annotations

import sys
from functools import partial
from heapq import heappush
from types import GeneratorType
from typing import Any, Callable, Optional

from repro.net.message import _KINDS, Message, _kind_names, _new_tuple
from repro.net.network import Network
from repro.sim.events import _PENDING, LATE, NORMAL, Event

Handler = Callable[[Message], Any]

#: request kind -> its reply kind's :data:`~repro.net.message._KINDS`
#: entry; filled when a handler for the kind registers
_REPLY_NAMES: dict[str, tuple[str, str]] = {}

_new_object = object.__new__


class RequestTimeout(Exception):
    """Failure value of a request event whose reply did not arrive in time."""

    def __init__(self, msg: Message, timeout: float) -> None:
        super().__init__(f"no reply to {msg} within {timeout}")
        self.request = msg
        self.timeout = timeout


class CrashedEndpointError(Exception):
    """Raised when a crashed endpoint attempts to communicate."""


class Endpoint:
    """One network party (a *site* in the paper's terms).

    Construction registers the endpoint with the network.
    """

    def __init__(self, network: Network, name: str) -> None:
        self.network = network
        self.name = name
        self.env = network.env
        self._handlers: dict[str, Handler] = {}
        self._pending: dict[int, Event] = {}
        #: count of handler invocations by kind (diagnostic)
        self.handled: dict[str, int] = {}
        self._peers_cache: list[str] = []
        self._peers_version = -1
        network.register(self)
        self._links = network.stats.links.setdefault(name, {})  #: by dst

    def __repr__(self) -> str:
        return f"<Endpoint {self.name!r}>"

    @property
    def crashed(self) -> bool:
        faults = self.network.faults
        return not faults.quiet and faults.is_crashed(self.name)

    def peers(self) -> list[str]:
        """All other endpoint names (cached; callers must not mutate).

        Rebuilt only when the network has registered new endpoints since
        the last call — the registration set never shrinks, so the
        version check is exact. This sits on the per-update hot path
        (peer selection, fan-out, 2PC participant lists).
        """
        if self._peers_version != self.network.registrations:
            self._peers_cache = [
                n for n in self.network.names() if n != self.name
            ]
            self._peers_version = self.network.registrations
        return self._peers_cache

    # ---------------------------------------------------------------- #
    # handler registration
    # ---------------------------------------------------------------- #

    def on(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` for messages of ``kind`` (one per kind)."""
        if kind in self._handlers:
            raise ValueError(f"handler for {kind!r} already registered on {self.name}")
        self._handlers[kind] = handler
        # Fill the envelope memos now: no send in a run pays for a first
        # use, so a run's work does not depend on what ran before it.
        _kind_names(kind)
        _REPLY_NAMES[kind] = _kind_names(f"{kind}.reply")

    def handler(self, kind: str) -> Callable[[Handler], Handler]:
        """Decorator form of :meth:`on`."""

        def decorate(fn: Handler) -> Handler:
            self.on(kind, fn)
            return fn

        return decorate

    # ---------------------------------------------------------------- #
    # sending
    # ---------------------------------------------------------------- #

    # send, request and reply build the envelope Message(...) builds.

    def send(self, dst: str, kind: str, payload: Any = None, tag: str = "") -> None:
        """Fire-and-forget one-way message."""
        network = self.network
        faults = network.faults
        if not faults.quiet and faults.is_crashed(self.name):
            raise CrashedEndpointError(f"{self.name} is crashed")
        names = _KINDS.get(kind) or _kind_names(kind)
        network.send(_new_tuple(Message, (
            self.name, dst, names[0], payload,
            tag if tag is names[1] else sys.intern(tag) if tag else names[1],
            next(network._msg_ids), None, False,
        )), link=self._links.get(dst))

    def request(
        self,
        dst: str,
        kind: str,
        payload: Any = None,
        tag: str = "",
        timeout: Optional[float] = None,
    ) -> Event:
        """Send a request; returns an event that succeeds with the reply.

        With ``timeout`` set, the event instead *fails* with
        :class:`RequestTimeout` if no reply arrives in time — the caller
        handles it with ``try:/except RequestTimeout:`` around the yield.
        """
        network = self.network
        faults = network.faults
        if not faults.quiet and faults.is_crashed(self.name):
            raise CrashedEndpointError(f"{self.name} is crashed")
        msg_id = next(network._msg_ids)
        names = _KINDS.get(kind) or _kind_names(kind)
        msg = _new_tuple(Message, (
            self.name, dst, names[0], payload,
            tag if tag is names[1] else sys.intern(tag) if tag else names[1],
            msg_id, None, True,
        ))
        result = _new_object(Event)  # Event(self.env), with no call
        result.env, result.callbacks, result._value = self.env, [], _PENDING
        result._ok, result._defused = True, False
        self._pending[msg_id] = result
        network.send(msg, link=self._links.get(dst))

        if timeout is not None:
            # The deadline runs at LATE priority so a reply delivered at
            # exactly t+timeout still wins the tie.
            deadline = Event(self.env)
            deadline._ok, deadline._value = True, None

            def expire(_ev: Event, msg=msg, timeout=timeout) -> None:
                # Still waited for: no reply came, and no crash dropped
                # the waiter.
                if self._pending.pop(msg.msg_id, None) is not None:
                    result.fail(RequestTimeout(msg, timeout))

            deadline.callbacks.append(expire)
            self.env.schedule(deadline, priority=LATE, delay=timeout)
        return result

    def reply(self, to: Message, payload: Any = None) -> None:
        """Send the reply to a request message."""
        network = self.network
        faults = network.faults
        if not faults.quiet and faults.is_crashed(self.name):
            raise CrashedEndpointError(f"{self.name} is crashed")
        names = _REPLY_NAMES.get(to.kind)
        if names is None:
            # No handler registered the kind (a reply sent by hand): the
            # constructor interns the reply kind, the memo keeps it.
            msg = Message(self.name, to.src, kind=f"{to.kind}.reply",
                          payload=payload, tag=to.tag, reply_to=to.msg_id,
                          msg_id=next(network._msg_ids))
            _REPLY_NAMES[to.kind] = _KINDS[msg.kind]
        else:
            # ``to.tag`` is an envelope's, so already interned.
            msg = _new_tuple(Message, (
                self.name, to.src, names[0], payload, to.tag or names[1],
                next(network._msg_ids), to.msg_id, False,
            ))
        network.send(msg, link=self._links.get(to.src))

    # ---------------------------------------------------------------- #
    # receiving
    # ---------------------------------------------------------------- #

    def _receive(self, msg: Message) -> None:
        reply_to = msg.reply_to
        if reply_to is not None:
            waiter = self._pending.pop(reply_to, None)
            if waiter is not None and waiter._value is _PENDING:
                # waiter.succeed(msg.payload), pushed with its key
                waiter._value = msg.payload
                env = self.env
                seq = env._eseq
                env._eseq = seq + 1
                heappush(env._queue, (env._now, NORMAL, seq, waiter))
            return

        handler = self._handlers.get(msg.kind)
        if handler is None:
            raise LookupError(
                f"endpoint {self.name!r} has no handler for {msg.kind!r}"
            )
        self.handled[msg.kind] = self.handled.get(msg.kind, 0) + 1
        outcome = handler(msg)

        if isinstance(outcome, GeneratorType):
            proc = self.env.process(outcome, owner=self.name)
            if msg.expects_reply:
                proc.callbacks.append(partial(self._reply_on_success, msg))
        elif msg.expects_reply:
            self.reply(msg, outcome)

    def _reply_on_success(self, msg: Message, proc: Event) -> None:
        """Completion callback of a generator handler: reply with its
        return value. A failed handler sends nothing, nor does one at a
        crashed site (it returned in the crash's step, or caught it)."""
        faults = self.network.faults
        if proc._ok and (faults.quiet or not faults.is_crashed(self.name)):
            self.reply(msg, proc._value)
