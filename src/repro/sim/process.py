"""Generator-driven processes for the discrete-event kernel.

A :class:`Process` wraps a Python generator. Each ``yield``-ed
:class:`~repro.sim.events.Event` suspends the generator until that event is
processed; the event's value is sent back in (or its exception thrown in).
When the generator returns, the process event itself succeeds with the
return value — so processes compose: one process can ``yield`` another.
"""

from __future__ import annotations

from heapq import heappush
from types import GeneratorType
from typing import TYPE_CHECKING, Any, Generator, Optional

from repro.sim.errors import AlreadyTriggered, Interrupt
from repro.sim.events import _PENDING, NORMAL, Event, URGENT

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Environment

ProcessGenerator = Generator[Event, Any, Any]


class Initialize(Event):
    """Internal event that starts a process (which builds it)."""

    __slots__ = ()


class Process(Event):
    """A running generator inside the simulation.

    The process *is* an event: it triggers when the generator finishes
    (succeeds with the ``return`` value) or dies on an unhandled exception
    (fails with it). Other processes may ``yield`` it to join.
    """

    __slots__ = ("_generator", "_target", "owner")

    def __init__(
        self,
        env: "Environment",
        generator: ProcessGenerator,
        owner: Optional[str] = None,
    ) -> None:
        if not isinstance(generator, GeneratorType):
            raise TypeError(f"{generator!r} is not a generator")
        # Event's slots, then the Initialize event, pushed with the key
        # env.schedule(init, URGENT) makes: a spawn calls nothing more.
        self.env, self.callbacks, self._value = env, [], _PENDING
        self._ok, self._defused = True, False
        self._generator = generator
        #: the event this process currently waits on (None when running)
        self._target: Optional[Event] = None
        #: the site this process runs for (None: the workload driver,
        #: the fault schedule, a sampler)
        self.owner = owner
        # Enter the owner's census (a dict kept as an ordered set):
        # _resume takes the process out where it settles.
        owned = env._owned.get(owner)
        if owned is None:
            env._owned[owner] = {self: None}
        else:
            owned[self] = None
        init = object.__new__(Initialize)
        init.env, init.callbacks, init._value = env, [self._resume], None
        init._ok, init._defused = True, False
        seq = env._eseq
        env._eseq = seq + 1
        heappush(env._queue, (env._now, URGENT, seq, init))

    def __repr__(self) -> str:
        return (
            f"<Process {self.owner}:{self._generator.__qualname__}"
            f" at {id(self):#x}>"
        )

    @property
    def is_alive(self) -> bool:
        """``True`` while the generator has not exited."""
        return not self.triggered

    @property
    def target(self) -> Optional[Event]:
        """The event the process is currently suspended on."""
        return self._target

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is detached (it may still fire
        later; its outcome is simply unobserved unless re-yielded).
        Interrupting a finished process raises :class:`RuntimeError`.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        if self._target is not None and self._target.callbacks is not None:
            try:
                self._target.callbacks.remove(self._resume)
            except ValueError:  # pragma: no cover - already detached
                pass
            self._target = None
        interrupt_event = Event(self.env)
        interrupt_event._ok = False
        interrupt_event._value = Interrupt(cause)
        interrupt_event._defused = True
        interrupt_event.callbacks = [self._resume]
        self.env.schedule(interrupt_event, priority=URGENT)

    def _resume(self, event: Event) -> None:
        """Advance the generator with ``event``'s outcome."""
        # e.g. interrupted to completion before a late event
        if self._value is not _PENDING:
            return
        generator = self._generator
        while True:
            try:
                # event is being dispatched, so its outcome is set:
                # read _ok and _value directly, not the guarded properties.
                if event._ok:
                    next_event = generator.send(event._value)
                else:
                    # The process takes responsibility for the failure.
                    event.defuse()
                    next_event = generator.throw(event._value)
                while not isinstance(next_event, Event):
                    # Misuse: inform the generator loudly; what it
                    # yields in answer is checked like any other yield.
                    next_event = generator.throw(TypeError(
                        f"{self!r} yielded {next_event!r},"
                        " which is not an Event"
                    ))
            except StopIteration as exc:
                ok, value = True, exc.value
                break
            except BaseException as exc:
                ok, value = False, exc
                break

            if next_event.callbacks is not None:
                # Event pending, or triggered but not yet processed: wait.
                next_event.callbacks.append(self._resume)
                self._target = next_event
                return

            # Event already processed: feed its outcome straight back in.
            event = next_event

        # The generator has exited: settle the process, once, here.
        self._target = None
        env = self.env
        del env._owned[self.owner][self]
        if not ok:
            self.fail(value)
            return
        # succeed(value), pushed here with the key env.schedule(self) makes
        if self._value is not _PENDING:
            raise AlreadyTriggered(f"{self!r} has already been triggered")
        self._ok = True
        self._value = value
        seq = env._eseq
        env._eseq = seq + 1
        heappush(env._queue, (env._now, NORMAL, seq, self))
