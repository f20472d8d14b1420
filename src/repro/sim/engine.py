"""The discrete-event simulation environment.

:class:`Environment` owns the virtual clock and the event queue. Events are
ordered by ``(time, priority, sequence)`` — the sequence number makes the
simulation fully deterministic: two runs with the same seed execute the same
events in the same order and produce bit-identical traces.

One binary heap of ``(time, priority, sequence, event)`` entries backs
the queue, and :meth:`run` pops and dispatches every event in one
loop; :meth:`step` is that loop limited to one event. The clock holds
one float object per distinct time: a zero-delay event's key reuses
it, and popping an event at the current time keeps it, so the
timestamps a run stores (``finished_at``, belief times) share it rather
than each holding a copy. Pop order is checked against a plain
``heapq`` drain in ``tests/test_sim_engine_fastpath.py``. ``succeed``,
``fail``, a process spawn and a network delivery push the key
:meth:`schedule` would make themselves; every other caller schedules.

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
from functools import wraps
from heapq import heappop, heappush
from typing import Any, Callable, Iterable, Optional, Union

from repro.sim.errors import EmptySchedule, StopSimulation
from repro.sim.events import (
    NORMAL,
    AllOf,
    AnyOf,
    Condition,
    Event,
    Timeout,
    _all_events,
    _new_object,
)
from repro.sim.process import Process, ProcessGenerator

_INF = float("inf")


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
        # int (not itertools.count) so the invariant is explicit and
        # ``schedule`` can allocate inline.
        self._eseq: int = 0
        #: owner -> its live processes in spawn order (a dict used as
        #: an ordered set); Process maintains it, :meth:`owned` reads it
        self._owned: dict[Optional[str], dict[Process, None]] = {}
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
    #: boundary. When set, the dispatch loop hands the callbacks to
    #: ``profile_dispatch(event, callbacks)`` instead of running them
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

    def owned(self, owner: Optional[str]) -> list[Process]:
        """The live processes ``owner`` spawned, in spawn order (a site
        name, or ``None`` for the unowned ones)."""
        return list(self._owned.get(owner, ()))

    def peek(self) -> float:
        """Time of the next scheduled event, or ``inf`` if none."""
        return self._queue[0][0] if self._queue else _INF

    def __repr__(self) -> str:
        return f"<Environment now={self._now} queued={len(self._queue)}>"

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
        self, generator: ProcessGenerator, owner: Optional[str] = None
    ) -> Process:
        """Start a new :class:`Process` driving ``generator`` for the
        site ``owner`` (``None``: a process no site owns)."""
        return Process(self, generator, owner)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """Event that fires when every event in ``events`` succeeded."""
        # AllOf(self, events), built without its __init__'s hop
        condition = _new_object(AllOf)
        Condition.__init__(condition, self, _all_events, events)
        return condition

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """Event that fires when any event in ``events`` succeeded."""
        return AnyOf(self, events)

    # ------------------------------------------------------------------ #
    # scheduling & execution
    # ------------------------------------------------------------------ #

    def schedule(
        self, event: Event, priority: int = NORMAL, delay: float = 0.0
    ) -> None:
        """Queue ``event`` to be processed after ``delay`` time units.

        Raises :class:`ValueError` for a negative or NaN ``delay`` (NaN
        compares false with everything, so it would pass a ``< 0`` test
        and put a NaN key on the heap: the clock would run backwards).
        """
        seq = self._eseq
        self._eseq = seq + 1
        if delay == 0.0:
            # The clock's own float object, not a fresh ``now + 0.0``:
            # every timestamp stored at this instant shares it.
            heappush(self._queue, (self._now, priority, seq, event))
            return
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay}")
        perturb = self.perturb
        if perturb is not None:
            delay = perturb(event, priority, delay)
            if not delay >= 0:
                raise ValueError(
                    f"perturbation produced negative or NaN delay {delay}"
                )
        heappush(self._queue, (self._now + delay, priority, seq, event))

    def step(self) -> None:
        """Process the single next event: :meth:`run`'s dispatch loop,
        limited to one event.

        Raises
        ------
        EmptySchedule
            If no events remain.
        """
        if not self._queue:
            raise EmptySchedule("no scheduled events")
        self._drain(_INF, True)

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
        stop_at = _INF
        if isinstance(until, Event):
            if until.callbacks is None:
                # Already processed.
                if until.ok:
                    return until.value
                raise until.value
            until.callbacks.append(_stop_simulation)
        elif until is not None:
            stop_at = float(until)
            if not stop_at >= self._now:
                raise ValueError(
                    f"until ({stop_at}) must not be before now ({self._now})"
                )

        try:
            self._drain(stop_at, False)
        except StopSimulation as stop:
            return stop.args[0]

        if isinstance(until, Event):
            if not until.triggered:
                raise RuntimeError(
                    f"simulation ended but {until!r} was never triggered"
                )
        elif until is not None:
            self._now = stop_at
        return None

    def _drain(self, stop_at: float, once: bool) -> None:
        """The dispatch loop: pop and process events in key order until
        the queue is empty or the next one lies after ``stop_at`` (after
        one event when ``once``)."""
        queue = self._queue
        dispatch = self.profile_dispatch
        while queue:
            now, priority, seq, event = heappop(queue)
            if now > stop_at:
                # Put it back: keys are unique, so the pop order of the
                # heap's contents does not depend on its layout.
                heappush(queue, (now, priority, seq, event))
                return
            if now != self._now:
                # The clock changes object only when it advances, so
                # events popped at one time share one float: every
                # timestamp stored from the clock holds no copy.
                self._now = now
            callbacks, event.callbacks = event.callbacks, None
            if callbacks is not None:  # else: a double-schedule, skipped
                if dispatch is None:
                    for callback in callbacks:
                        callback(event)
                else:
                    dispatch(event, callbacks)
                self.events_processed += 1
                if not event._ok and not event._defused:
                    # Nobody handled this failure: crash the run loudly.
                    raise event._value
            if once:
                return


def _stop_simulation(event: Event) -> None:
    """Callback attached to an ``until`` event: halt the run loop."""
    if event.ok:
        raise StopSimulation(event.value)
    event.defuse()
    raise event.value
