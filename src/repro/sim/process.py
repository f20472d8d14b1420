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

    def interrupt(self, cause: object = None) -> None:
        """Throw :class:`Interrupt` into the process at the current time.

        The event the process was waiting on is detached (it may still fire
        later; its outcome is simply unobserved unless re-yielded).
        Interrupting a finished process raises :class:`RuntimeError`.
        """
        if self.triggered:
            raise RuntimeError(f"{self!r} has terminated and cannot be interrupted")
        self._detach()
        interrupt_event = Event(self.env)
        interrupt_event._ok, interrupt_event._value = False, Interrupt(cause)
        interrupt_event._defused, interrupt_event.callbacks = True, [self._resume]
        self.env.schedule(interrupt_event, priority=URGENT)

    def kill(self, cause: object = None) -> None:
        """End the process now, as a fail-stop crash does: throw
        :class:`Interrupt` into it at once (one not started yet ends
        without running). A generator that catches it may ``return`` a
        value, which the process succeeds with, but may not wait again.
        If the interrupt propagates, the process ends without firing, so
        nothing waiting on it resumes."""
        self._detach()
        del self.env._owned[self.owner][self]
        generator = self._generator
        # Dead without firing: triggered (late events are ignored, and a
        # Periodic's start() spawns anew), never scheduled.
        self._ok, self._value, self._defused = False, Interrupt(cause), True
        try:
            if generator.gi_suspended:
                generator.throw(self._value)
                raise RuntimeError(f"{self!r} waited on an event after it was killed")
        except StopIteration as exc:
            self._value = _PENDING
            self.succeed(exc.value)
        except Interrupt:
            pass
        finally:
            generator.close()

    def _detach(self) -> None:
        """Stop waiting on the current target (it may still fire)."""
        target = self._target
        if target is not None:
            if target.callbacks is not None:
                target.callbacks.remove(self._resume)
            self._target = None

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


class Periodic:
    """A process that runs ``tick()`` every ``interval`` until stopped.

    A subclass sets ``env``, ``interval`` and ``tick``, and may set
    ``owner`` (its site) and ``daemons`` (what that site runs, which a
    restart starts again) and override :meth:`next_interval`.
    """

    owner: Optional[str] = None
    daemons: Optional[dict] = None
    _proc: Optional[Process] = None

    def start(self) -> Process:
        """Spawn the periodic process (idempotent); returns it."""
        if self.daemons is not None:
            self.daemons[self] = None
        if self._proc is None or self._proc.triggered:
            self._proc = self.env.process(self._loop(), owner=self.owner)
        return self._proc

    def stop(self) -> None:
        """Cancel the periodic process (idempotent)."""
        if self.daemons is not None:
            self.daemons.pop(self, None)
        if self._proc is not None and self._proc.is_alive:
            self._proc.interrupt("stopped")

    def next_interval(self) -> float:
        return self.interval

    def _loop(self):
        try:
            while True:
                yield self.env.timeout(self.next_interval())
                self.tick()
        except Interrupt:
            return
