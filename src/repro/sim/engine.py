"""The discrete-event simulation environment.

:class:`Environment` owns the virtual clock and the event queue. Events are
ordered by ``(time, priority, sequence)`` — the sequence number makes the
simulation fully deterministic: two runs with the same seed execute the same
events in the same order and produce bit-identical traces.

Two structures back the queue:

* a binary heap for events scheduled into the future (``delay > 0``);
* per-priority FIFO *buckets* for events scheduled at the current
  timestamp (``delay == 0``) — the overwhelmingly common case (every
  ``Event.succeed``, process resumption and zero-delay cascade), which
  would otherwise churn the heap with O(log n) pushes and pops.

Because the sequence number increases monotonically, appending a
zero-delay event to its priority bucket preserves exactly the
``(time, priority, sequence)`` order the heap would have produced:
within one bucket FIFO order *is* sequence order, and :meth:`step`
compares the candidate bucket head against the heap head by the full
key before popping either. The fast path is therefore bit-identical to
the pure-heap engine (property-tested in
``tests/test_sim_engine_fastpath.py``).

Example
-------
>>> from repro.sim import Environment
>>> env = Environment()
>>> def hello(env):
...     yield env.timeout(3)
...     return env.now
>>> proc = env.process(hello(env))
>>> env.run()
>>> proc.value
3
"""

from __future__ import annotations

import gc
from collections import deque
from functools import wraps
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional, Union

from repro.sim.errors import EmptySchedule, StopSimulation
from repro.sim.events import AllOf, AnyOf, Event, LATE, NORMAL, URGENT, Timeout
from repro.sim.process import Process, ProcessGenerator

def collect_young_after(fn: Callable) -> Callable:
    """Run ``fn`` with the cyclic collector off, then collect the young
    generation once.

    For passes whose allocations outlive them — building a system,
    capturing a trace. Collections during such a pass scan survivors
    and reclaim nothing, and where a run's full collection starts
    depends on the allocation count, so it could start inside one and
    be charged to it. Afterwards the young generation holds the pass's
    survivors; collecting it at once resets the allocation count, so no
    automatic (possibly full) collection is due when the pass returns.
    When the caller already has the collector off, ``fn`` just runs.
    """

    @wraps(fn)
    def deferred(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
            gc.collect(0)

    return deferred


class Environment:
    """Execution environment for a deterministic event-driven simulation.

    Parameters
    ----------
    initial_time:
        Starting value of the simulation clock (default ``0.0``).
    """

    def __init__(self, initial_time: float = 0.0) -> None:
        self._now: float = float(initial_time)
        self._queue: list[tuple[float, int, int, Event]] = []
        # Strictly-unique, strictly-increasing per-engine sequence number.
        # Every scheduled event consumes one, so two queue keys can never
        # compare equal and tuple comparison can never fall through to
        # the Event objects (which define no ordering). Kept as a plain
        # int (not itertools.count) so the invariant is explicit and the
        # fast path can allocate inline.
        self._eseq: int = 0
        # Same-timestamp FIFO buckets, one per priority level, valid for
        # time ``_bucket_time``. ``_bucket_count`` tracks total entries
        # so emptiness checks stay O(1).
        self._buckets: tuple[deque, deque, deque] = (deque(), deque(), deque())  # repro-lint: disable=unbounded-queue (same-timestamp staging only: drained to empty before the clock advances)
        self._bucket_time: float = self._now
        self._bucket_count: int = 0
        self._active_process: Optional[Process] = None
        #: Optional scheduling perturbation hook for schedule-space
        #: fuzzing (see :mod:`repro.testkit`). Called as
        #: ``perturb(event, priority, delay) -> delay`` for every event
        #: scheduled with ``delay > 0`` and must return a nonnegative
        #: replacement delay. Zero-delay events (succeed cascades,
        #: process resumptions) are deliberately exempt: their same-step
        #: ordering is a correctness assumption of the protocols, not a
        #: schedule choice. The hook must be deterministic given its own
        #: seed or replays will not be byte-identical.
        self.perturb = None
        #: total number of events processed (diagnostic)
        self.events_processed: int = 0

    #: Optional dispatch hook, installed by the repo benchmark's tracer
    #: (``benchmarks/e2e/tracer.py``) as its engine -> callback
    #: boundary. When set, :meth:`step` delegates the callback loop to
    #: ``profile_dispatch(event, callbacks)`` instead of running it
    #: inline, letting the tracer time each event without touching
    #: scheduling. Class-level on purpose: one assignment covers *every*
    #: environment in the process (experiments build several —
    #: proposal, baseline, per scenario) without any constructor
    #: threading. Must execute the callbacks exactly as the inline loop
    #: would, so a traced run stays bit-identical to an untraced one.
    profile_dispatch = None

    # ------------------------------------------------------------------ #
    # clock & inspection
    # ------------------------------------------------------------------ #

    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def active_process(self) -> Optional[Process]:
        """The process currently executing, if any."""
        return self._active_process

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        if self._bucket_count:
            # Bucket entries live at the current timestamp, which never
            # exceeds the heap minimum while buckets are non-empty.
            return self._bucket_time
        return self._queue[0][0] if self._queue else float("inf")

    def __repr__(self) -> str:
        queued = len(self._queue) + self._bucket_count
        return f"<Environment now={self._now} queued={queued}>"

    # ------------------------------------------------------------------ #
    # factories
    # ------------------------------------------------------------------ #

    def event(self) -> Event:
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """Create an event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(
        self, generator: ProcessGenerator, name: Optional[str] = None
    ) -> Process:
        """Start a new :class:`Process` driving ``generator``."""
        return Process(self, generator, name=name)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every event in ``events`` succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any event in ``events`` succeeded."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------ #
    # scheduling & execution
    # ------------------------------------------------------------------ #

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Queue ``event`` to be processed after ``delay`` time units."""
        seq = self._eseq
        self._eseq = seq + 1
        if delay == 0.0 and URGENT <= priority <= LATE:
            # Same-timestamp fast path: the new key (now, priority, seq)
            # is strictly greater than every already-queued key with the
            # same (now, priority), so a FIFO append preserves heap
            # order. Rebase the buckets lazily — they are provably empty
            # whenever the clock has advanced past them (step() drains a
            # bucket before the clock can move).
            if not self._bucket_count:
                self._bucket_time = self._now
            self._buckets[priority].append((seq, event))
            self._bucket_count += 1
            return
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        perturb = self.perturb
        if perturb is not None:
            delay = perturb(event, priority, delay)
            if delay < 0:
                raise ValueError(f"perturbation produced negative delay {delay}")
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def step(self) -> None:
        """Process the single next event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        event: Optional[Event] = None
        queue = self._queue
        if self._bucket_count:
            buckets = self._buckets
            if buckets[0]:
                prio = 0
            elif buckets[1]:
                prio = 1
            else:
                prio = 2
            bucket = buckets[prio]
            btime = self._bucket_time
            if queue:
                # A heap entry can share the bucket timestamp (a timeout
                # scheduled earlier that lands exactly now) — take
                # whichever is smaller by the full (time, priority, seq)
                # key so tie-breaking matches the pure-heap engine.
                head = queue[0]
                htime = head[0]
                if htime < btime or (
                    htime == btime
                    and (head[1], head[2]) < (prio, bucket[0][0])
                ):
                    self._now, _, _, event = heappop(queue)
            if event is None:
                _, event = bucket.popleft()
                self._bucket_count -= 1
                self._now = btime
        else:
            try:
                self._now, _, _, event = heappop(queue)
            except IndexError:
                raise EmptySchedule("no scheduled events") from None

        callbacks, event.callbacks = event.callbacks, None
        if callbacks is None:  # pragma: no cover - double-schedule guard
            return
        dispatch = self.profile_dispatch
        if dispatch is not None:
            dispatch(event, callbacks)
        else:
            for callback in callbacks:
                callback(event)
        self.events_processed += 1

        if not event._ok and not event.defused:
            # Nobody handled this failure: crash the simulation loudly.
            exc = event.value
            raise exc

    def run(self, until: Union[None, float, Event] = None) -> Any:
        """Run the simulation.

        Parameters
        ----------
        until:
            ``None``
                run until the event queue is exhausted;
            a number
                run until the clock reaches that time (the clock is then
                advanced exactly to it);
            an :class:`Event`
                run until that event is processed and return its value.

        Returns
        -------
        The ``until`` event's value, if an event was given; else ``None``.
        """
        stop_at: Optional[float] = None
        if until is not None:
            if isinstance(until, Event):
                if until.callbacks is None:
                    # Already processed.
                    if until.ok:
                        return until.value
                    raise until.value
                until.callbacks.append(_stop_simulation)
            else:
                stop_at = float(until)
                if stop_at < self._now:
                    raise ValueError(
                        f"until ({stop_at}) must not be before now ({self._now})"
                    )

        try:
            step = self.step  # bound once: the loop body is one call
            while self._queue or self._bucket_count:
                if stop_at is not None and self.peek() > stop_at:
                    break
                step()
        except StopSimulation as stop:
            return stop.args[0]
        except EmptySchedule:  # pragma: no cover - guarded by while
            pass

        if stop_at is not None:
            self._now = stop_at
        elif isinstance(until, Event) and not until.triggered:
            raise RuntimeError(
                f"simulation ended but {until!r} was never triggered"
            )
        return None


def _stop_simulation(event: Event) -> None:
    """Callback attached to an ``until`` event: halt the run loop."""
    if event.ok:
        raise StopSimulation(event.value)
    event.defuse()
    raise event.value
