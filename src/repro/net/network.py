"""The simulated message-passing network.

:class:`Network` connects named endpoints with a pluggable latency model,
delivers in send order on every directed pair, counts every transmitted
message (the paper's metric), and consults a
:class:`~repro.net.faults.FaultInjector` on each send. Delivery is an
event scheduled on the simulation environment.
Every send, delivery and drop is published on the hub's taps
(``msg.send``, ``msg.recv``, ``msg.drop``) when they have subscribers.
"""

from __future__ import annotations

from heapq import heappush
from itertools import count
from typing import TYPE_CHECKING, Optional

import numpy as np

from repro.net.faults import FaultInjector
from repro.net.latency import ConstantLatency, LatencyModel
from repro.net.message import _KINDS, Message
from repro.net.stats import NetworkStats, _Link
from repro.obs.hub import NULL_OBS, Observability
from repro.sim.engine import Environment
from repro.sim.events import NORMAL, Event

if TYPE_CHECKING:  # pragma: no cover
    from repro.net.endpoint import Endpoint

_new_object = object.__new__


class EndpointNotFound(KeyError):
    """Raised when sending to an unregistered endpoint name."""


class _Delivery(Event):
    """A message's delivery (the message is its value): it always succeeds."""

    __slots__ = ()
    _ok = True
    _defused = False


class Network:
    """Message fabric between endpoints.

    Parameters
    ----------
    env:
        Simulation environment the network schedules deliveries on.
    latency:
        One-way delay model (default: constant 1 time unit).
    rng:
        Generator used for latency sampling and probabilistic drops.
        Required: pass a dedicated :class:`~repro.sim.rng.RngRegistry`
        stream (e.g. ``rngs.stream("net.latency")``). There is
        deliberately no seeded default — two networks in one simulation
        would silently share stream 0.
    faults:
        Fault injector; a benign one is created if omitted.
    perturb:
        Optional delivery perturbation hook for schedule-space fuzzing
        (see :mod:`repro.testkit`): called as ``perturb(msg, delay) ->
        delay`` on every non-dropped send, *before* the per-pair FIFO
        clamp — so jittered latencies reorder deliveries across pairs
        but can never violate the per-pair ordering the reliable
        session and lease probes depend on. Must be deterministic given
        its own seed.
    obs:
        Hub whose taps carry the ``msg.*`` events; each carries the
        site it happened at and the message.
    """

    def __init__(
        self,
        env: Environment,
        latency: Optional[LatencyModel] = None,
        rng: Optional[np.random.Generator] = None,
        faults: Optional[FaultInjector] = None,
        size_model=None,
        perturb=None,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.env = env
        self.latency = latency if latency is not None else ConstantLatency(1.0)
        if rng is None:
            raise ValueError(
                "Network requires an explicit rng stream"
                " (e.g. RngRegistry(seed).stream('net.latency'))"
            )
        self.rng = rng
        self.stats = NetworkStats()
        #: every delivery's callbacks (the kernel only reads them)
        self._deliver_cbs = [self._deliver]
        self.faults = faults if faults is not None else FaultInjector(rng=self.rng)
        self.perturb = perturb
        self.obs = obs
        self._on_send = obs.tap("msg.send")
        self._on_recv = obs.tap("msg.recv")
        self._on_drop = obs.tap("msg.drop")
        #: optional repro.net.sizes.SizeModel enabling byte accounting
        self.size_model = size_model
        self._endpoints: dict[str, "Endpoint"] = {}
        #: bumped on every registration — endpoints key their cached
        #: peer views on this (the set only grows; there is no
        #: unregister, so a version match proves the cache is current)
        self.registrations = 0
        # Per-network message ids: two identical runs in one process get
        # identical ids (the module-global fallback in Message does not).
        self._msg_ids = count(1)

    # ---------------------------------------------------------------- #
    # topology
    # ---------------------------------------------------------------- #

    def register(self, endpoint: "Endpoint") -> None:
        """Attach an endpoint; names must be unique."""
        if endpoint.name in self._endpoints:
            raise ValueError(f"endpoint {endpoint.name!r} already registered")
        self._endpoints[endpoint.name] = endpoint
        self.registrations += 1

    def endpoint(self, name: str) -> "Endpoint":
        """Create, register and return a new endpoint called ``name``."""
        from repro.net.endpoint import Endpoint

        return Endpoint(self, name)

    def names(self) -> list[str]:
        """Registered endpoint names, in registration order."""
        return list(self._endpoints)

    def get(self, name: str) -> "Endpoint":
        try:
            return self._endpoints[name]
        except KeyError:
            raise EndpointNotFound(name) from None

    def __contains__(self, name: str) -> bool:
        return name in self._endpoints

    def __len__(self) -> int:
        return len(self._endpoints)

    # ---------------------------------------------------------------- #
    # transmission
    # ---------------------------------------------------------------- #

    def send(self, msg: Message, link: Optional[_Link] = None) -> None:
        """Transmit ``msg``: count it, maybe drop it, else schedule delivery.
        ``link`` is its pair's (an endpoint passes it once it exists)."""
        src, dst, kind, _payload, tag, _id, _reply_to, _expects = msg
        if link is None:
            if dst not in self._endpoints:
                raise EndpointNotFound(dst)
            link = self.stats.link(src, dst)
        # What stats.record_send(msg, size) counts, inline.
        stats = self.stats
        if self.size_model is not None:
            stats.bytes_total += self.size_model.message_size(msg)
        stats.sent_total += 1
        try:
            link[kind if tag is _KINDS[kind][1] else (kind, tag)] += 1
        except KeyError:
            stats.count(src, dst, link, kind, tag)
        env = self.env
        now = env._now
        if self._on_send:
            for fn in self._on_send:
                fn(now, src, msg)

        faults = self.faults
        if not faults.quiet and faults.should_drop(src, dst):
            stats.record_drop(msg)
            if self._on_drop:
                for fn in self._on_drop:
                    fn(now, src, msg)
            return

        latency = self.latency  # read per send: it may be swapped
        if type(latency) is ConstantLatency:
            delay = latency.delay
        else:
            delay = latency.sample(src, dst, self.rng)
        if self.perturb is not None:
            delay = self.perturb(msg, delay)
            if not delay >= 0:
                raise ValueError(
                    f"perturbation produced negative or NaN delay {delay}"
                )
        # A NaN delivery time would also disable the FIFO clamp for
        # good, since every comparison with a NaN last delivery is false.
        if not delay >= 0:
            raise ValueError(f"negative or NaN latency {delay}")
        # Per-pair FIFO: no delivery earlier than the pair's last one.
        # Unconditional, because ``rel.probe``'s answer is definitive
        # only if nothing sent before it can arrive after it.
        when = now + delay
        last = link.last
        if when < last:
            when = last
        link.last = when

        # The delivery event, carrying the message, built and pushed
        # with the key env.schedule(delivery, delay=delay) makes (the
        # kernel's perturbation hook, when set, must see the delay).
        delivery = _new_object(_Delivery)
        delivery.env, delivery.callbacks, delivery._value = env, self._deliver_cbs, msg
        delay = when - now
        if env.perturb is not None:
            return env.schedule(delivery, delay=delay)
        seq = env._eseq
        env._eseq = seq + 1
        heappush(env._queue, (now + delay if delay else now, NORMAL, seq, delivery))

    def _deliver(self, delivery: Event) -> None:
        """Callback of the delivery event, which carries the message."""
        msg = delivery._value
        endpoint = self._endpoints[msg.dst]  # registered for good
        faults = self.faults
        if not faults.quiet and faults.is_crashed(msg.dst):
            # Crashed while the message was in flight.
            self.stats.record_drop(msg)
            if self._on_drop:
                now = self.env.now
                for fn in self._on_drop:
                    fn(now, msg.dst, msg)
            return
        if self._on_recv:
            now = self.env.now
            for fn in self._on_recv:
                fn(now, msg.dst, msg)
        endpoint._receive(msg)

    def __repr__(self) -> str:
        return (
            f"<Network endpoints={len(self._endpoints)}"
            f" sent={self.stats.sent_total} latency={self.latency!r}>"
        )
