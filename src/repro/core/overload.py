"""Overload robustness: admission control, backpressure, degradation.

The paper's §4 experiment drives a gentle ±10–20% random walk; nothing
in the original design says what the accelerator should do when a
flash-sale surge arrives. This module supplies the missing layer, fully
opt-in via ``SystemConfig.overload`` (``None`` keeps every seed path
byte-identical):

* **admission control** — a bounded per-site inflight budget on the
  accelerator. An update arriving over budget is *shed*: it terminates
  immediately with the typed :data:`~repro.core.types.UpdateOutcome.SHED`
  outcome and a ``retry_after`` hint, instead of queueing unboundedly.
* **circuit breaker** — the immediate-update 2PC path trips OPEN after
  ``breaker_threshold`` consecutive prepare timeouts, sheds requests
  with a retry-after for ``breaker_cooldown``, then probes HALF_OPEN;
  one success re-closes it, one failure re-trips it.
* **backpressure** — when the lazy-sync backlog outgrows its budget the
  site flushes it inline instead of letting ``owed`` grow without bound.
* **degradation state machine** — per site, driven by observed load
  signals (inflight ratio, sync backlog, lock waits, breaker state)::

      NORMAL -> STRAINED -> DEGRADED -> RECOVERING -> NORMAL
                   \\____________________/^   |
                                              v
                                          DEGRADED   (relapse)

  Under stress the controller widens AV grant fractions (cut the
  correspondence storm), steers AV requests away from peers known to be
  DEGRADED, serves reconciled reads from the local replica with an
  explicit staleness bound, and — at the base site, when the stock
  invariant has ample headroom — *demotes* immediate-update items to
  the delay path (``make_regular``). Every demotion is recorded and
  provably reversed (``make_non_regular``) when the site transitions
  back to NORMAL.

All transitions are restricted to :data:`ALLOWED_TRANSITIONS` (the
monotone ring above); the property tests assert no controller ever
takes an edge outside it.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.core.errors import CoreError
from repro.net.protocol import TAG_OVERLOAD

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accelerator import Accelerator


class OverloadStateError(CoreError):
    """An illegal degradation-state transition was attempted."""


class DegradationState(enum.Enum):
    """Per-site consistency/health mode under load."""

    NORMAL = "normal"
    STRAINED = "strained"
    DEGRADED = "degraded"
    RECOVERING = "recovering"


#: the only legal state-machine edges (see module docs)
ALLOWED_TRANSITIONS = frozenset({
    (DegradationState.NORMAL, DegradationState.STRAINED),
    (DegradationState.STRAINED, DegradationState.DEGRADED),
    (DegradationState.STRAINED, DegradationState.RECOVERING),
    (DegradationState.DEGRADED, DegradationState.RECOVERING),
    (DegradationState.RECOVERING, DegradationState.NORMAL),
    (DegradationState.RECOVERING, DegradationState.DEGRADED),
})


@dataclass(frozen=True)
class OverloadParams:
    """Configuration of the overload/degradation layer.

    Attributes
    ----------
    inflight_budget:
        Concurrent in-protocol updates admitted per site; the next one
        is shed with ``retry_after``.
    backlog_budget:
        Lazy-sync ``owed`` balances tolerated before an inline flush.
    lock_wait_budget:
        Lock-queue depth that reads as full pressure.
    retry_after:
        Base retry-after hint (simulated seconds) on an admission shed.
    breaker_threshold:
        Consecutive 2PC prepare timeouts before the breaker trips.
    breaker_cooldown:
        OPEN dwell time before the breaker probes HALF_OPEN.
    strain_ratio / degrade_ratio / recover_ratio:
        Pressure thresholds for NORMAL→STRAINED, →DEGRADED, and the
        calm level required to head back toward NORMAL.
    recover_hold:
        Continuous calm time required in RECOVERING before the site
        declares NORMAL (and re-promotes demoted items).
    demote_min_value:
        Minimum replica value (invariant headroom) an immediate-update
        item needs before the base site may demote it to delay-update.
    demote_batch:
        Demotions at most in flight per evaluation.
    degraded_grant_fraction:
        Fraction of the grantor's AV offered while STRAINED/DEGRADED,
        replacing the SODA'99 half-grant to cut repeat correspondence.
    stale_read_floor:
        Minimum staleness bound reported on a degraded read (a read can
        never claim to be fresher than one sync interval).
    """

    inflight_budget: int = 24
    backlog_budget: int = 64
    lock_wait_budget: int = 16
    retry_after: float = 5.0
    breaker_threshold: int = 3
    breaker_cooldown: float = 30.0
    strain_ratio: float = 0.6
    degrade_ratio: float = 0.9
    recover_ratio: float = 0.3
    recover_hold: float = 20.0
    demote_min_value: float = 10.0
    demote_batch: int = 2
    degraded_grant_fraction: float = 0.9
    stale_read_floor: float = 1.0

    def __post_init__(self) -> None:
        if self.inflight_budget < 1:
            raise ValueError("inflight_budget must be >= 1")
        if self.backlog_budget < 1:
            raise ValueError("backlog_budget must be >= 1")
        if self.lock_wait_budget < 1:
            raise ValueError("lock_wait_budget must be >= 1")
        if self.retry_after <= 0:
            raise ValueError("retry_after must be positive")
        if self.breaker_threshold < 1:
            raise ValueError("breaker_threshold must be >= 1")
        if self.breaker_cooldown <= 0:
            raise ValueError("breaker_cooldown must be positive")
        if not 0.0 < self.recover_ratio <= self.strain_ratio <= self.degrade_ratio:
            raise ValueError(
                "thresholds must satisfy 0 < recover <= strain <= degrade"
            )
        if self.recover_hold < 0:
            raise ValueError("recover_hold must be non-negative")
        if not 0.0 < self.degraded_grant_fraction <= 1.0:
            raise ValueError("degraded_grant_fraction must be in (0, 1]")
        if self.demote_batch < 1:
            raise ValueError("demote_batch must be >= 1")


class CircuitBreaker:
    """CLOSED → OPEN → HALF_OPEN breaker for the 2PC prepare path."""

    CLOSED = "closed"
    OPEN = "open"
    HALF_OPEN = "half_open"

    def __init__(self, threshold: int, cooldown: float) -> None:
        self.threshold = threshold
        self.cooldown = cooldown
        self.state = self.CLOSED
        self.failures = 0
        self.opened_at = 0.0
        #: times the breaker tripped (CLOSED/HALF_OPEN -> OPEN)
        self.trips = 0

    def allow(self, now: float) -> Tuple[bool, float]:
        """May a 2PC attempt start? Returns ``(allowed, retry_after)``."""
        if self.state == self.CLOSED:
            return True, 0.0
        if self.state == self.OPEN:
            if now - self.opened_at >= self.cooldown:
                # One probe request transitions us to HALF_OPEN; its
                # outcome decides whether we close or re-trip.
                self.state = self.HALF_OPEN
                return True, 0.0
            return False, self.opened_at + self.cooldown - now
        # HALF_OPEN: the probe is in flight; hold everyone else briefly.
        return False, self.cooldown / 4.0

    def record_failure(self, now: float) -> bool:
        """Account one prepare timeout; True if the breaker tripped."""
        if self.state == self.HALF_OPEN:
            self.state = self.OPEN
            self.opened_at = now
            self.failures = 0
            self.trips += 1
            return True
        self.failures += 1
        if self.state == self.CLOSED and self.failures >= self.threshold:
            self.state = self.OPEN
            self.opened_at = now
            self.failures = 0
            self.trips += 1
            return True
        return False

    def record_success(self) -> None:
        """A 2PC round completed; a HALF_OPEN probe success re-closes."""
        self.failures = 0
        if self.state == self.HALF_OPEN:
            self.state = self.CLOSED

    def pressure(self, now: float) -> float:
        """Contribution to site pressure: 1.0 while actively OPEN."""
        if self.state == self.OPEN and now - self.opened_at < self.cooldown:
            return 1.0
        return 0.0

    def __repr__(self) -> str:
        return f"<CircuitBreaker {self.state} trips={self.trips}>"


class OverloadController:
    """Per-site admission control + degradation state machine.

    Deliberately *not* named ``*Protocol``: it is a control loop around
    the protocols, not a message protocol of its own — its two message
    kinds (``ovl.state`` broadcast, ``ovl.probe`` request) carry control
    state only and never touch item values or AV.
    """

    def __init__(self, accel: "Accelerator", params: OverloadParams) -> None:
        self.accel = accel
        self.params = params
        self.state = DegradationState.NORMAL
        self.breaker = CircuitBreaker(
            params.breaker_threshold, params.breaker_cooldown
        )
        #: updates currently inside the protocol at this site
        self.inflight = 0
        self.peak_inflight = 0
        self.peak_backlog = 0
        #: requests shed (admission + breaker)
        self.shed = 0
        #: inline backlog flushes forced by backpressure
        self.flushes = 0
        self.demotions = 0
        self.promotions = 0
        #: every transition taken: ``(now, from_value, to_value)`` —
        #: the property tests audit this log against ALLOWED_TRANSITIONS
        self.transitions: List[Tuple[float, str, str]] = []
        #: last known degradation state per peer (ovl.state broadcasts)
        self.peer_states: Dict[str, str] = {}
        #: total simulated time spent DEGRADED
        self.degraded_time = 0.0
        self._entered_degraded: Optional[float] = None
        self._calm_since: Optional[float] = None
        self._last_flush = -1.0
        #: last completed sync pass (drives the read staleness bound)
        self._last_sync = 0.0
        #: items this controller demoted and still owes a re-promotion
        self._demoted: List[str] = []
        self._demoted_set: set = set()
        self._demote_inflight: set = set()
        self._promote_inflight: set = set()
        obs = accel.obs
        self._on_shed = obs.tap("ovl.shed")
        self._on_transition = obs.tap("ovl.transition")
        self._on_demote = obs.tap("ovl.demote")
        self._on_promote = obs.tap("ovl.promote")
        self._on_trip = obs.tap("ovl.trip")
        #: this site's ``overload.pressure`` gauge, looked up on the
        #: first observed evaluate (every update evaluates at least twice)
        self._pressure_gauge = None
        accel.endpoint.on("ovl.state", self.handle_state)
        accel.endpoint.on("ovl.probe", self.handle_probe)

    # ---------------------------------------------------------------- #
    # admission control
    # ---------------------------------------------------------------- #

    def admit(self, now: float) -> Optional[float]:
        """Admission verdict for a new update.

        Returns ``None`` to admit, or the retry-after hint (seconds)
        when the request must be shed — deterministic: the verdict is a
        pure function of the current budget occupancy.
        """
        if self.inflight >= self.params.inflight_budget:
            self.evaluate(now)
            return self.params.retry_after
        return None

    def begin(self, now: float) -> None:
        """An admitted update entered the protocol."""
        self.inflight += 1
        if self.inflight > self.peak_inflight:
            self.peak_inflight = self.inflight
        self.evaluate(now)

    def end(self, now: float) -> None:
        """An admitted update left the protocol (any outcome)."""
        self.inflight -= 1
        self.evaluate(now)

    def record_shed(self, now: float, retry_after: float) -> None:
        """Account one shed request (admission or breaker)."""
        self.shed += 1
        if self._on_shed:
            for fn in self._on_shed:
                fn(now, self.accel.site, retry_after)
        self.accel.obs.count("overload.shed")

    # ---------------------------------------------------------------- #
    # circuit breaker (immediate-update 2PC path)
    # ---------------------------------------------------------------- #

    def breaker_allow(self, now: float) -> Tuple[bool, float]:
        return self.breaker.allow(now)

    def record_2pc_timeout(self, now: float) -> None:
        if self.breaker.record_failure(now):
            if self._on_trip:
                for fn in self._on_trip:
                    fn(now, self.accel.site)
            self.accel.obs.count("overload.trip")
            self.evaluate(now)

    def record_2pc_success(self, now: float) -> None:
        self.breaker.record_success()

    # ---------------------------------------------------------------- #
    # backpressure (lazy-sync backlog)
    # ---------------------------------------------------------------- #

    def note_backlog(self, now: float) -> None:
        """Called after every ``record_unsynced``; flushes over budget."""
        backlog = self.accel.owed_pairs
        if backlog > self.peak_backlog:
            self.peak_backlog = backlog
        if backlog > self.params.backlog_budget and now > self._last_flush:
            # One inline flush per timestamp: push the batched deltas
            # now instead of letting the ledger grow until the next
            # scheduled sync pass.
            self._last_flush = now
            self.flushes += 1
            self.accel.obs.count("overload.backpressure_flush")
            self.accel.sync_all()
        self.evaluate(now)

    def note_sync_pass(self, now: float) -> None:
        """A periodic sync pass completed (staleness bookkeeping)."""
        self._last_sync = now
        self.evaluate(now)

    def sync_interval(self, base: float) -> float:
        """Effective sync interval: halved while under strain."""
        if self.state in (DegradationState.STRAINED, DegradationState.DEGRADED):
            return base / 2.0
        return base

    # ---------------------------------------------------------------- #
    # signals + state machine
    # ---------------------------------------------------------------- #

    def pressure(self, now: float) -> float:
        """Composite load signal in [0, ∞): max of the budget ratios."""
        p = self.params
        accel = self.accel
        return max(
            self.inflight / p.inflight_budget,
            accel.owed_pairs / p.backlog_budget,
            accel.locks.total_waiting() / p.lock_wait_budget,
            self.breaker.pressure(now),
        )

    def evaluate(self, now: float) -> None:
        """Advance the state machine one step from the observed signals.

        Event-driven (admission, completion, sync passes, breaker
        events) rather than a daemon process, so an idle engine can
        drain — the harness calls :meth:`finalize` for the last word.
        """
        pressure = self.pressure(now)
        obs = self.accel.obs
        if obs.enabled:
            gauge = self._pressure_gauge
            if gauge is None:
                gauge = self._pressure_gauge = obs.registry.gauge(
                    f"overload.pressure.{self.accel.site}"
                )
            gauge.set(pressure, now)
        p = self.params
        state = self.state
        if state is DegradationState.NORMAL:
            if pressure >= p.strain_ratio:
                self._transition(DegradationState.STRAINED, now)
        elif state is DegradationState.STRAINED:
            if pressure >= p.degrade_ratio:
                self._transition(DegradationState.DEGRADED, now)
            elif pressure <= p.recover_ratio:
                self._transition(DegradationState.RECOVERING, now)
        elif state is DegradationState.DEGRADED:
            if pressure <= p.recover_ratio:
                self._transition(DegradationState.RECOVERING, now)
            else:
                self._maybe_demote(now)
        elif state is DegradationState.RECOVERING:
            if pressure >= p.degrade_ratio:
                self._transition(DegradationState.DEGRADED, now)
            elif pressure > p.recover_ratio:
                self._calm_since = now  # calm streak broken; restart it
            elif (
                self._calm_since is not None
                and now - self._calm_since >= p.recover_hold
            ):
                self._transition(DegradationState.NORMAL, now)
                self._promote_all()

    def _transition(self, to: DegradationState, now: float) -> None:
        frm = self.state
        if (frm, to) not in ALLOWED_TRANSITIONS:
            raise OverloadStateError(
                f"{self.accel.site}: illegal transition"
                f" {frm.value} -> {to.value}"
            )
        if frm is DegradationState.DEGRADED and self._entered_degraded is not None:
            self.degraded_time += now - self._entered_degraded
            self._entered_degraded = None
        if to is DegradationState.DEGRADED:
            self._entered_degraded = now
        if to is DegradationState.RECOVERING:
            self._calm_since = now
        self.state = to
        self.transitions.append((now, frm.value, to.value))
        if self._on_transition:
            for fn in self._on_transition:
                fn(now, self.accel.site, frm.value, to.value)
        self.accel.obs.count(f"overload.transition.{to.value}")
        # Tell the peers: their selecting strategies steer AV requests
        # away from a DEGRADED site while alternatives exist.
        payload = {"state": to.value, "since": now}
        for peer in self.accel.live_peers():
            self.accel.endpoint.send(
                peer, "ovl.state", dict(payload), tag=TAG_OVERLOAD
            )

    # ---------------------------------------------------------------- #
    # degradation hooks (consulted by the protocols)
    # ---------------------------------------------------------------- #

    def widened_grant(self, available: float, requested: float) -> Optional[float]:
        """Grant override while under strain, or ``None`` for the policy.

        Offers ``degraded_grant_fraction`` of the grantor's holdings,
        rounded down to whole units (at least the ask, never more than
        it holds), so one round trip settles what the half-grant policy
        would spread over several.
        """
        if self.state not in (
            DegradationState.STRAINED, DegradationState.DEGRADED
        ):
            return None
        pool = math.floor(available * self.params.degraded_grant_fraction)
        return min(available, max(requested, float(pool)))

    def filter_peers(self, peers: List[str]) -> List[str]:
        """Drop peers known DEGRADED — unless that would leave nobody."""
        degraded = DegradationState.DEGRADED.value
        states = self.peer_states
        kept = [p for p in peers if states.get(p) != degraded]
        return kept if kept else peers

    def degraded_read_bound(self, now: float) -> Optional[float]:
        """Staleness bound for serving a read locally, or ``None``.

        While DEGRADED, reconciled reads are answered from the local
        replica (no fan-out) with an explicit bound: the replica lags
        ground truth by at most the deltas accumulated since the last
        completed sync pass.
        """
        if self.state is not DegradationState.DEGRADED:
            return None
        return max(self.params.stale_read_floor, now - self._last_sync)

    # ---------------------------------------------------------------- #
    # demotion / promotion (base site only)
    # ---------------------------------------------------------------- #

    def _maybe_demote(self, now: float) -> None:
        accel = self.accel
        if accel.site != accel.base_site:
            return
        budget = self.params.demote_batch - len(self._demote_inflight)
        if budget <= 0:
            return
        for item in sorted(item for item, _v in accel.store.items()):
            if budget <= 0:
                break
            if accel.av_table.defined(item):
                continue  # already on the delay path
            if item in self._demote_inflight or item in self._demoted_set:
                continue
            if accel.store.value(item) < self.params.demote_min_value:
                continue  # invariant headroom too thin to relax
            self._demote_inflight.add(item)
            budget -= 1
            accel.env.process(self._demote(item), owner=accel.site)

    def _demote(self, item: str):
        """Generator: convert one immediate-update item to delay-update."""
        from repro.core.reclassify import ReclassificationError
        from repro.net.endpoint import RequestTimeout

        accel = self.accel
        try:
            yield from accel.reclassify.make_regular(item)
        except (ReclassificationError, RequestTimeout):
            return
        finally:  # also when a crash ends the demotion
            self._demote_inflight.discard(item)
        self._demoted.append(item)
        self._demoted_set.add(item)
        self.demotions += 1
        if self._on_demote:
            now = accel.now
            for fn in self._on_demote:
                fn(now, accel.site, item)
        accel.obs.count("overload.demote")

    def _promote_all(self) -> List:
        """Spawn one re-promotion per demoted item; returns processes."""
        accel = self.accel
        procs = []
        for item in list(self._demoted):
            if item in self._promote_inflight:
                continue
            self._promote_inflight.add(item)
            procs.append(
                accel.env.process(self._promote(item), owner=accel.site)
            )
        return procs

    def _promote(self, item: str):
        """Generator: restore a demoted item to the immediate class."""
        from repro.core.reclassify import ReclassificationError
        from repro.net.endpoint import RequestTimeout

        accel = self.accel
        try:
            yield from accel.reclassify.make_non_regular(item)
        except ReclassificationError:
            pass  # already non-regular again: promotion is moot
        except RequestTimeout:
            return  # stays owed; a later finalize retries
        finally:  # also when a crash ends the promotion
            self._promote_inflight.discard(item)
        if item in self._demoted_set:
            self._demoted_set.discard(item)
            self._demoted.remove(item)
            self.promotions += 1
            if self._on_promote:
                now = accel.now
                for fn in self._on_promote:
                    fn(now, accel.site, item)
            accel.obs.count("overload.promote")

    @property
    def demoted_items(self) -> Tuple[str, ...]:
        """Items currently demoted and awaiting re-promotion."""
        return tuple(self._demoted)

    # ---------------------------------------------------------------- #
    # end-of-run settlement (called by the harnesses)
    # ---------------------------------------------------------------- #

    def finalize(self, now: float) -> List:
        """Settle the state machine at proven quiescence.

        The harness calls this after the event queue has drained and
        replicas have synced: quiescence is a strictly stronger calm
        proof than ``recover_hold``, so the controller may walk the
        remaining legal edges back to NORMAL and spawn the owed
        re-promotions. Returns the promotion processes (the caller runs
        the engine until they finish).
        """
        self.evaluate(now)
        steps = 0
        while (
            self.state is not DegradationState.NORMAL
            and self.pressure(now) <= self.params.recover_ratio
            and steps < 4
        ):
            steps += 1
            if self.state in (
                DegradationState.STRAINED, DegradationState.DEGRADED
            ):
                self._transition(DegradationState.RECOVERING, now)
            else:  # RECOVERING, calm: quiescence stands in for the hold
                self._transition(DegradationState.NORMAL, now)
        if self._entered_degraded is not None:  # still degraded at exit
            self.degraded_time += now - self._entered_degraded
            self._entered_degraded = now
        self.accel.obs.gauge_set(
            f"overload.degraded_time.{self.accel.site}",
            self.degraded_time, now,
        )
        if self.state is DegradationState.NORMAL:
            return self._promote_all()
        return []

    # ---------------------------------------------------------------- #
    # peer-state messaging
    # ---------------------------------------------------------------- #

    def handle_state(self, msg) -> None:
        """Record a peer's broadcast degradation state (oneway)."""
        self.peer_states[msg.src] = msg.payload["state"]

    def handle_probe(self, msg) -> dict:
        """Answer a restarted peer's state query."""
        return {"state": self.state.value}

    def probe_peers(self):
        """Generator: rebuild the peer-state map (after a restart)."""
        from repro.net.endpoint import RequestTimeout

        accel = self.accel
        for peer in sorted(accel.live_peers()):
            try:
                reply = yield accel.endpoint.request(
                    peer,
                    "ovl.probe",
                    {},
                    tag=TAG_OVERLOAD,
                    timeout=accel.request_timeout,
                )
            except RequestTimeout:
                continue
            self.peer_states[peer] = reply["state"]

    def __repr__(self) -> str:
        return (
            f"<OverloadController {self.accel.site!r} {self.state.value}"
            f" inflight={self.inflight} shed={self.shed}"
            f" demoted={len(self._demoted)}>"
        )
