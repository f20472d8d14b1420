"""Reliable delivery sessions: ack/retransmit over :class:`Endpoint`.

The base network is honest about loss: a dropped message is gone. That
is the right substrate for the paper's measurements, but the robustness
layer (lazy propagation that must eventually converge) needs one-way
messages that are *eventually delivered, effectively once*. A
:class:`ReliableSession` provides exactly that on top of the existing
request/reply machinery:

* every reliable message carries a per-destination **sequence number**;
* the receiver records ``(src, seq)`` **at delivery time** and invokes
  the wrapped handler only for fresh sequence numbers — retransmitted
  copies are acknowledged but not re-applied (effectively-once);
* the RPC reply doubles as the **ack**; a missing ack triggers
  retransmission with exponential backoff and jitter drawn from the
  site's own rng stream (two sites never share a stream);
* when the retry budget is exhausted the sender switches to **probing**:
  ``rel.probe`` asks the receiver whether the sequence number was ever
  seen. The per-pair FIFO channel makes the answer *definitive* — every
  copy was sent before the probe on the same directed channel, so any
  copy that will ever arrive has arrived by the time the probe is
  served. A "no" therefore licenses the sender to safely resend the
  payload later under a fresh sequence number without risking double
  application.

A crash is fail-stop: it kills the process driving a delivery, not the
delivery. The **outbox** of unfinished deliveries and the receiver's
record of sequence numbers seen are durable
(``repro.cluster.site.DURABLE``): the restart resumes each delivery
under its old sequence number, so a copy that did arrive is
deduplicated. Deliveries to a peer that never becomes reachable again
probe forever; bound such runs with ``run(until=...)`` — any schedule
that eventually heals drains cleanly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count
from typing import Any, Callable, Optional

import numpy as np

from repro.net.endpoint import Endpoint, Handler, RequestTimeout
from repro.net.message import Message
from repro.sim.process import Process

#: tag for session control traffic (probes); never counted as update
#: traffic — Fig. 6's accounting must not change when reliability is on.
#: Canonically declared in the protocol registry.
from repro.net.protocol import TAG_RELIABLE  # noqa: F401


@dataclass(frozen=True)
class ReliabilityParams:
    """Tuning knobs for the robustness layer (sessions *and* leases).

    Attributes
    ----------
    ack_timeout:
        Initial wait for an ack before the first retransmission.
    backoff:
        Multiplier applied to the timeout after each unacked attempt.
    jitter:
        Each retransmission waits an extra ``uniform(0, jitter × timeout)``
        drawn from the site's rng stream, de-synchronising retry storms.
    max_attempts:
        Transmissions (first send + retries) before switching to probing.
    probe_interval:
        Idle time between probe attempts.
    lease_timeout:
        How long a grantor holds granted-but-unacked AV under a lease
        before probing the holder (see :mod:`repro.core.leases`). Must
        comfortably exceed the maximum one-way latency so a probe can
        never overtake the grant it asks about.
    """

    ack_timeout: float = 6.0
    backoff: float = 2.0
    jitter: float = 0.5
    max_attempts: int = 5
    probe_interval: float = 15.0
    lease_timeout: float = 40.0

    def __post_init__(self) -> None:
        if self.ack_timeout <= 0 or self.probe_interval <= 0:
            raise ValueError("ack_timeout and probe_interval must be positive")
        if self.backoff < 1.0:
            raise ValueError("backoff must be >= 1")
        if self.jitter < 0:
            raise ValueError("jitter must be >= 0")
        if self.max_attempts < 1:
            raise ValueError("need at least one attempt")
        if self.lease_timeout <= 0:
            raise ValueError("lease_timeout must be positive")


class ReliableSession:
    """Ack/retransmit/dedup layer for one endpoint.

    Parameters
    ----------
    endpoint:
        The owning endpoint; ``rel.probe`` is registered on it.
    rng:
        The site's rng stream (retransmission jitter).
    params:
        See :class:`ReliabilityParams`.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        rng: np.random.Generator,
        params: Optional[ReliabilityParams] = None,
    ) -> None:
        self.endpoint = endpoint
        self.env = endpoint.env
        self.rng = rng
        self.params = params if params is not None else ReliabilityParams()
        #: next outbound sequence number, per destination
        self._seq: dict[str, count] = {}
        #: sequence numbers seen, per source (dedup + probe answers)
        self._seen: dict[str, set[int]] = {}
        #: unfinished deliveries: (dst, seq) -> (kind, payload, tag, the
        #: process whose outcome the sender waits on)
        self._outbox: dict[tuple[str, int], tuple] = {}
        #: diagnostics
        self.delivered = 0
        self.undelivered = 0
        self.retransmissions = 0
        self.probes = 0
        self.dups_suppressed = 0
        endpoint.on("rel.probe", self._handle_probe)

    # ---------------------------------------------------------------- #
    # receiver side
    # ---------------------------------------------------------------- #

    def on(self, kind: str, handler: Handler) -> None:
        """Register ``handler`` behind duplicate suppression.

        The wrapped handler marks ``(src, seq)`` as seen *before* the
        inner handler runs — within the same delivery step, so a probe
        arriving any later observes the truth. Duplicates are
        acknowledged (the sender needs the ack) without re-invoking the
        handler. Messages without a ``_rel`` envelope (a peer running
        without the reliability layer) pass straight through.
        """

        def wrapped(msg: Message) -> Any:
            rel = msg.payload.get("_rel") if isinstance(msg.payload, dict) else None
            if rel is None:
                return handler(msg)
            seen = self._seen.setdefault(msg.src, set())
            if rel["seq"] in seen:
                self.dups_suppressed += 1
                return {"dup": True}
            seen.add(rel["seq"])
            return handler(msg)

        self.endpoint.on(kind, wrapped)

    def _handle_probe(self, msg: Message) -> dict:
        """Answer whether the given sender sequence number ever arrived.

        Definitive by FIFO: every copy of the probed message travelled
        the same directed channel before this probe did.
        """
        return {"seen": msg.payload["seq"] in self._seen.get(msg.src, ())}

    # ---------------------------------------------------------------- #
    # sender side
    # ---------------------------------------------------------------- #

    def deliver(
        self, dst: str, kind: str, payload: dict, tag: str = ""
    ) -> Process:
        """Start a reliable delivery; the process returns ``True``/``False``.

        ``True`` means the receiver processed (or deduplicated) the
        message; ``False`` is the probe's definitive "never arrived" —
        the caller may safely resend the content under a new delivery.
        The outcome is only given once it is certain: unreachable
        receivers are waited out, and a sender crash hands the delivery
        (and the callbacks on this process) to :meth:`resume`.
        """
        seq = next(self._seq.setdefault(dst, count(1)))
        payload = dict(payload)
        payload["_rel"] = {"seq": seq}
        return self._drive(dst, seq, kind, payload, tag)

    def resume(self) -> None:
        """Drive every delivery a crash cut short again (a restart); the
        callbacks on each killed process move to its successor."""
        for (dst, seq), (kind, payload, tag, dead) in list(self._outbox.items()):
            self._drive(dst, seq, kind, payload, tag).callbacks.extend(
                dead.callbacks
            )

    def _drive(self, dst: str, seq: int, kind: str, payload: dict, tag: str):
        proc = self.env.process(
            self._deliver(dst, kind, payload, tag, seq),
            owner=self.endpoint.name,
        )
        self._outbox[(dst, seq)] = (kind, payload, tag, proc)
        return proc

    def _deliver(self, dst: str, kind: str, payload: dict, tag: str, seq: int):
        params = self.params
        timeout = params.ack_timeout
        attempts = 0
        while attempts < params.max_attempts:
            attempts += 1
            if attempts > 1:
                self.retransmissions += 1
            try:
                yield self.endpoint.request(
                    dst, kind, payload, tag=tag, timeout=timeout
                )
            except RequestTimeout:
                # Exponential backoff with jitter before the next copy.
                if params.jitter > 0:
                    yield self.env.timeout(
                        float(self.rng.uniform(0.0, params.jitter * timeout))
                    )
                timeout *= params.backoff
                continue
            self.delivered += 1
            del self._outbox[(dst, seq)]
            return True

        # Retry budget exhausted: determine the outcome by probing. All
        # copies were sent before the first probe on the same FIFO
        # channel, so the receiver's answer is final.
        while True:
            try:
                reply = yield self.endpoint.request(
                    dst,
                    "rel.probe",
                    {"seq": seq},
                    tag=TAG_RELIABLE,
                    timeout=params.ack_timeout,
                )
            except RequestTimeout:
                self.probes += 1
                yield self.env.timeout(
                    params.probe_interval
                    + float(self.rng.uniform(0.0, params.jitter * params.probe_interval))
                )
                continue
            self.probes += 1
            del self._outbox[(dst, seq)]
            if reply["seen"]:
                self.delivered += 1
                return True
            self.undelivered += 1
            return False

    def __repr__(self) -> str:
        return (
            f"<ReliableSession {self.endpoint.name!r}"
            f" delivered={self.delivered} retx={self.retransmissions}"
            f" dups={self.dups_suppressed}>"
        )
