"""Event primitives for the discrete-event kernel.

An :class:`Event` is a one-shot occurrence that processes can wait on by
``yield``-ing it. Events move through three states: *pending* (created but
not triggered), *triggered* (scheduled with a value or an exception), and
*processed* (its callbacks have run). Composite events (:class:`AllOf`,
:class:`AnyOf`) build barrier / race semantics out of plain callbacks.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable, Optional

from repro.sim.errors import AlreadyTriggered

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.sim.engine import Environment

# Scheduling priorities: urgent events (process resumptions) run before
# normal events at the same timestamp so that a process resumed by a zero
# delay observes state written by ordinary events scheduled earlier.
# LATE runs after everything else at its timestamp — deadline/timeout
# checks use it so a reply arriving exactly at the deadline still wins.
URGENT = 0
NORMAL = 1
LATE = 2

_PENDING = object()  #: sentinel for "not yet triggered"

_new_object = object.__new__


class Event:
    """A one-shot occurrence that may succeed with a value or fail.

    Parameters
    ----------
    env:
        The environment that will process this event's callbacks.
    """

    __slots__ = ("env", "callbacks", "_value", "_ok", "_defused")

    def __init__(self, env: "Environment") -> None:
        self.env = env
        #: callables invoked with this event once it is processed; ``None``
        #: after processing (catches late ``callbacks.append`` bugs loudly).
        self.callbacks: Optional[list[Callable[["Event"], None]]] = []
        self._value: Any = _PENDING
        self._ok: bool = True
        self._defused: bool = False

    def __repr__(self) -> str:
        state = (
            "pending"
            if self._value is _PENDING
            else ("ok" if self._ok else "failed")
        )
        return f"<{type(self).__name__} {state} at {id(self):#x}>"

    @property
    def triggered(self) -> bool:
        """``True`` once the event has been scheduled with an outcome."""
        return self._value is not _PENDING

    @property
    def processed(self) -> bool:
        """``True`` once callbacks have been executed."""
        return self.callbacks is None

    @property
    def ok(self) -> bool:
        """``True`` if the event succeeded. Only valid once triggered."""
        if self._value is _PENDING:
            raise AttributeError("outcome not available on a pending event")
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value (or failure exception) once triggered."""
        if self._value is _PENDING:
            raise AttributeError("value not available on a pending event")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with ``value``.

        Returns the event itself so ``return event.succeed()`` chains.
        """
        if self._value is not _PENDING:
            raise AlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        env = self.env  # pushed with the key env.schedule(self) makes
        seq = env._eseq
        env._eseq = seq + 1
        heappush(env._queue, (env._now, NORMAL, seq, self))
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event with an exception.

        The exception is re-raised inside every process waiting on the
        event. If nothing waits on a failed event, the environment raises
        it at the end of the step (unless :meth:`defused`).
        """
        if not isinstance(exception, BaseException):
            raise TypeError(f"{exception!r} is not an exception")
        if self._value is not _PENDING:
            raise AlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = False
        self._value = exception
        env = self.env  # pushed with the key env.schedule(self) makes
        seq = env._eseq
        env._eseq = seq + 1
        heappush(env._queue, (env._now, NORMAL, seq, self))
        return self

    def defuse(self) -> None:
        """Mark a failed event as handled so the kernel won't crash."""
        self._defused = True

    @property
    def defused(self) -> bool:
        return self._defused


class Timeout(Event):
    """An event that fires automatically after ``delay`` simulated time."""

    __slots__ = ("delay",)

    def __init__(self, env: "Environment", delay: float, value: Any = None) -> None:
        if not delay >= 0:
            raise ValueError(f"negative or NaN delay {delay}")
        self.env, self.callbacks, self._value = env, [], value
        self._ok, self._defused = True, False
        self.delay = delay
        if not delay or env.perturb is not None:
            # The clock's own float object, or the fuzzer's hook.
            env.schedule(self, priority=NORMAL, delay=delay)
            return
        # The key env.schedule(self, NORMAL, delay) makes, pushed here.
        seq = env._eseq
        env._eseq = seq + 1
        heappush(env._queue, (env._now + delay, NORMAL, seq, self))

    def __repr__(self) -> str:
        return f"<Timeout delay={self.delay} at {id(self):#x}>"


class ConditionValue:
    """Ordered mapping of event -> value for composite-event results.

    Preserves the order in which the events were passed to the composite,
    which keeps result handling deterministic.
    """

    __slots__ = ("events",)

    def __init__(self, events: list[Event]) -> None:
        self.events = events

    def __getitem__(self, key: Event) -> Any:
        if key not in self.events:
            raise KeyError(repr(key))
        return key.value

    def __contains__(self, key: Event) -> bool:
        return key in self.events

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ConditionValue):
            return self.todict() == other.todict()
        if isinstance(other, dict):
            return self.todict() == other
        return NotImplemented

    def __repr__(self) -> str:
        return f"<ConditionValue {self.todict()!r}>"

    def __iter__(self):
        return iter(self.events)

    def keys(self):
        return iter(self.events)

    def values(self):
        return (e.value for e in self.events)

    def items(self):
        return ((e, e.value) for e in self.events)

    def todict(self) -> dict[Event, Any]:
        return {e: e.value for e in self.events}


class Condition(Event):
    """Composite event that triggers when ``evaluate`` says it should.

    Used through the :class:`AllOf` / :class:`AnyOf` conveniences. A failed
    child event immediately fails the condition.
    """

    __slots__ = ("_events", "_count", "_evaluate")

    def __init__(
        self,
        env: "Environment",
        evaluate: Callable[[list[Event], int], bool],
        events: Iterable[Event],
    ) -> None:
        self.env, self.callbacks, self._value = env, [], _PENDING
        self._ok, self._defused = True, False
        self._events = list(events)
        self._count = 0
        self._evaluate = evaluate

        for event in self._events:
            if event.env is not env:
                raise ValueError("all events must share one environment")

        if not self._events:
            self.succeed(ConditionValue([]))
            return

        for event in self._events:
            if event.callbacks is None:  # already processed
                self._check(event)
            else:
                event.callbacks.append(self._check)

    def _check(self, event: Event) -> None:
        if self._value is not _PENDING:
            return
        self._count += 1
        if not event._ok:
            event._defused = True
            self.fail(event._value)
            return
        evaluate = self._evaluate
        if evaluate is _all_events:
            if self._count != len(self._events):
                return
            # Every event has run its callbacks (this check among them).
            events = self._events
        elif evaluate(self._events, self._count):
            # Only events whose callbacks already ran have truly
            # *occurred*; a scheduled Timeout is "triggered" from birth
            # but has not fired.
            events = [e for e in self._events if e.callbacks is None]
        else:
            return
        # succeed(ConditionValue(events)), built and pushed here
        value = _new_object(ConditionValue)
        value.events = events
        self._value = value
        env = self.env
        seq = env._eseq
        env._eseq = seq + 1
        heappush(env._queue, (env._now, NORMAL, seq, self))

    @staticmethod
    def all_events(events: list[Event], count: int) -> bool:
        return len(events) == count

    @staticmethod
    def any_events(events: list[Event], count: int) -> bool:
        return count > 0 or not events


_all_events = Condition.all_events


class AllOf(Condition):
    """Event that fires once *all* of ``events`` have succeeded."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.all_events, events)


class AnyOf(Condition):
    """Event that fires as soon as *any* of ``events`` succeeds."""

    def __init__(self, env: "Environment", events: Iterable[Event]) -> None:
        super().__init__(env, Condition.any_events, events)
