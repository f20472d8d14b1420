"""Differential tests for the kernel's event queue.

:class:`~repro.sim.engine.Environment` keeps one ``(time, priority,
sequence, event)`` heap and pops and dispatches from one loop. These
tests pin its pop order against an independent reference, a plain
``heapq`` that the test drains itself, by driving both through
identical randomly generated schedules (seeded ``random.Random``; the
workloads here model adversarial schedules, not simulation randomness)
and comparing the complete pop order, tie-breaking included, under
every way of running the engine: ``run()``, ``run(until=<number>)``,
``run(until=<event>)``, repeated ``step()`` and a pass-through
``profile_dispatch``.

Also here: regression tests for the seq-uniqueness invariant (queue
keys must never compare equal, because tuple comparison would then fall
through to the :class:`Event` objects, which define no ordering), for
``Environment.profile_dispatch``, the class-wide hook the repo
benchmark's tracer installs as its engine boundary (a pass-through hook
must leave every run exactly as it was), and a memory guard: zero-delay
keys reuse the clock's own float object.
"""

import itertools
import random
from contextlib import contextmanager
from heapq import heappop, heappush

import pytest

from repro.sim.engine import Environment
from repro.sim.errors import AlreadyTriggered, EmptySchedule
from repro.sim.events import Event, LATE, NORMAL, URGENT

PRIORITIES = (URGENT, NORMAL, LATE)

# Heavily weighted toward 0.0 (same-timestamp cascades, the dominant
# pattern in the real system) with a few positive delays from a small
# lattice so that events scheduled at different times frequently land on
# one timestamp: the ties the (time, priority, seq) key must break.
DELAY_CHOICES = (0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 1.0)


class HeapqReference:
    """Reference queue: a plain ``heapq`` of ``(time, priority, seq,
    fire)`` entries that the test pops itself. It shares nothing with
    the engine but the key definition."""

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._seq = itertools.count()

    def schedule(self, fire, priority, delay):
        heappush(self._heap, (self.now + delay, priority, next(self._seq), fire))

    def peek(self):
        return self._heap[0][0] if self._heap else float("inf")

    def step(self):
        self.now, _, _, fire = heappop(self._heap)
        fire()

    def drain(self):
        while self._heap:
            self.step()


def random_schedule(seed, now, schedule, n_roots=24, max_depth=4):
    """Seed a cascade workload onto a queue given as ``now()`` and
    ``schedule(fire, priority, delay)``.

    Returns the execution trace ``[(event_id, time), ...]``, which fills
    as the queue fires events. Each fired event may schedule further
    events; event ids follow schedule order, so the roots are
    ``0 .. n_roots - 1``.
    """
    rng = random.Random(seed)
    ids = itertools.count()
    trace = []

    def spawn(depth):
        eid = next(ids)

        def fire():
            trace.append((eid, now()))
            if depth < max_depth:
                for _ in range(rng.randrange(0, 4)):
                    spawn(depth + 1)

        schedule(fire, rng.choice(PRIORITIES), rng.choice(DELAY_CHOICES))

    for _ in range(n_roots):
        spawn(0)
    return trace


def reference_trace(seed):
    ref = HeapqReference()
    trace = random_schedule(seed, lambda: ref.now, ref.schedule)
    ref.drain()
    return trace


def engine_schedule(seed):
    """The workload of ``seed`` on a fresh engine: ``(env, trace,
    events)``, with ``events[eid]`` the kernel event of ``eid``."""
    env = Environment()
    events = []

    def schedule(fire, priority, delay):
        event = Event(env)
        event._value = len(events)  # triggered, with its eid as value
        event.callbacks.append(lambda _e: fire())
        env.schedule(event, priority=priority, delay=delay)
        events.append(event)

    trace = random_schedule(seed, lambda: env.now, schedule)
    return env, trace, events


def run_random_schedule(seed):
    """The engine's trace of the workload of ``seed`` under ``run()``."""
    env, trace, _ = engine_schedule(seed)
    env.run()
    return trace


@pytest.mark.parametrize("seed", range(25))
def test_fastpath_identical_to_heapq_reference(seed):
    """Property: identical pop order (ids *and* timestamps) per seed."""
    trace = run_random_schedule(seed)
    assert trace == reference_trace(seed)
    assert len(trace) > 0


def run_until_number(env, trace, events):
    until = 1.0  # on the delay lattice: events land exactly on it
    env.run(until=until)
    assert env.now == until
    split = len(trace)
    env.run()
    assert all(t <= until for _, t in trace[:split])
    assert all(t > until for _, t in trace[split:])


def run_until_event(env, trace, events):
    target = events[12]  # a root, so it exists before the run starts
    assert env.run(until=target) == 12
    assert trace[-1][0] == 12
    env.run()


def run_by_steps(env, trace, events):
    while True:
        try:
            env.step()
        except EmptySchedule:
            break


def run_with_dispatch_hook(env, trace, events):
    with dispatch_hook(RecordingDispatch()) as hook:
        env.run()
    assert len(hook.calls) == env.events_processed == len(trace)


@pytest.mark.parametrize(
    "drive",
    [run_until_number, run_until_event, run_by_steps, run_with_dispatch_hook],
)
@pytest.mark.parametrize("seed", range(5))
def test_every_run_mode_pops_in_reference_order(drive, seed):
    env, trace, events = engine_schedule(seed)
    drive(env, trace, events)
    assert trace == reference_trace(seed)


@pytest.mark.parametrize("seed", range(5))
def test_fastpath_peek_matches_reference(seed):
    """``peek`` agrees with the reference at every step of a run."""
    env, ref = Environment(), HeapqReference()
    rng = random.Random(seed)
    for _ in range(100):
        priority, delay = rng.choice(PRIORITIES), rng.choice(DELAY_CHOICES)
        env.schedule(Event(env), priority=priority, delay=delay)
        ref.schedule(lambda: None, priority, delay)
    while True:
        assert env.peek() == ref.peek()
        try:
            env.step()
        except EmptySchedule:
            break
        ref.step()
    assert ref.peek() == float("inf")


def test_zero_delay_keys_share_the_clock_float():
    """10 000 zero-delay events at one timestamp leave ``env.now`` one
    float object. A key built as ``now + 0.0`` would give each event,
    and every timestamp a run stores from it, its own copy."""
    env = Environment()
    seen = []

    def burst(_event):
        for _ in range(10_000):
            event = Event(env)
            event.callbacks.append(lambda _e: seen.append(env.now))
            env.schedule(event)

    start = Event(env)
    start.callbacks.append(burst)
    env.schedule(start, delay=1.5)
    env.run()
    assert len(seen) == 10_000
    assert all(now is seen[0] for now in seen)
    assert env.now is seen[0]


def test_events_popped_at_one_time_share_the_clock_float():
    """Timeouts set at different times that land on one time (each key
    a fresh float) leave the clock one float object while it stays
    there."""
    env = Environment()
    seen = []

    def waiter(start, delay):
        yield env.timeout(start)
        yield env.timeout(delay)
        seen.append(env.now)

    for start, delay in ((0.0, 1.5), (0.5, 1.0), (1.0, 0.5), (1.25, 0.25)):
        env.process(waiter(start, delay))
    env.run()
    assert seen == [1.5] * 4
    assert all(now is seen[0] for now in seen)


def test_zero_delay_fifo_order_within_priority():
    """Zero-delay events of equal priority pop in schedule order."""
    env = Environment()
    trace = []
    for i in range(50):
        ev = Event(env)
        ev.callbacks.append(lambda _e, i=i: trace.append(i))
        env.schedule(ev, priority=NORMAL, delay=0.0)
    env.run()
    assert trace == list(range(50))


def test_priorities_interleave_like_heap_at_same_timestamp():
    """URGENT < NORMAL < LATE at one timestamp, FIFO within each."""
    env = Environment()
    trace = []
    plan = [(NORMAL, "n0"), (LATE, "l0"), (URGENT, "u0"),
            (NORMAL, "n1"), (URGENT, "u1"), (LATE, "l1")]
    for prio, tag in plan:
        ev = Event(env)
        ev.callbacks.append(lambda _e, tag=tag: trace.append(tag))
        env.schedule(ev, priority=prio, delay=0.0)
    env.run()
    assert trace == ["u0", "u1", "n0", "n1", "l0", "l1"]


def test_heap_event_beats_bucket_event_on_equal_time_and_priority():
    """An event scheduled earlier with a delay that lands exactly on
    the current timestamp, with equal priority, must pop before a
    zero-delay event scheduled at that timestamp: the full
    (time, priority, seq) key decides, and its seq is lower. (Named
    after the same-timestamp buckets this once checked against.)"""
    env = Environment()
    trace = []

    def tagged(tag):
        ev = Event(env)
        ev.callbacks.append(lambda _e: trace.append(tag))
        return ev

    # Scheduled first => lower seq; lands on the heap at t=1.0.
    env.schedule(tagged("heap"), priority=NORMAL, delay=1.0)

    def at_t1(_event):
        # Now at t=1.0: this zero-delay event gets a *higher* seq than
        # the pending entry with the same key prefix (1.0, NORMAL),
        # which must pop first.
        env.schedule(tagged("bucket"), priority=NORMAL, delay=0.0)

    starter = Event(env)
    starter.callbacks.append(at_t1)
    env.schedule(starter, priority=URGENT, delay=1.0)

    env.run()
    assert trace == ["heap", "bucket"]


# --------------------------------------------------------------------- #
# seq uniqueness (the latent tie-break bug)
# --------------------------------------------------------------------- #


class UncomparableEvent(Event):
    """Event whose comparison explodes — proves keys never tie."""

    __slots__ = ()

    def __lt__(self, other):  # pragma: no cover - must never run
        raise AssertionError(
            "queue keys compared equal and fell through to the Event"
        )

    __gt__ = __le__ = __ge__ = __lt__


@pytest.mark.parametrize("delay", [0.0, 1.0])
def test_colliding_time_and_priority_never_compare_events(delay):
    """Many events with identical (time, priority) sort purely by seq."""
    env = Environment()
    trace = []
    for i in range(200):
        ev = UncomparableEvent(env)
        ev.callbacks.append(lambda _e, i=i: trace.append(i))
        env.schedule(ev, priority=NORMAL, delay=delay)
    env.run()
    assert trace == list(range(200))


def test_seq_strictly_increasing_and_unique():
    """Every schedule consumes a fresh seq; draining never resets it."""
    env = Environment()
    for _ in range(10):
        env.schedule(Event(env), delay=1.0)
    keys = {entry[2] for entry in env._queue}
    assert len(keys) == 10
    env.run()
    before = env._eseq
    env.schedule(Event(env), delay=0.0)
    assert env._eseq == before + 1
    env.run()
    assert env._eseq == before + 1  # running consumes none


def test_seq_is_per_engine():
    """Two engines allocate independently; each stays strictly unique."""
    a, b = Environment(), Environment()
    for _ in range(5):  # interleave on purpose
        a.schedule(Event(a), delay=2.0)
        b.schedule(Event(b), delay=2.0)
    assert [e[2] for e in sorted(a._queue)] == list(range(5))
    assert [e[2] for e in sorted(b._queue)] == list(range(5))


# --------------------------------------------------------------------- #
# the dispatch hook
# --------------------------------------------------------------------- #

class RecordingDispatch:
    """A pass-through ``profile_dispatch``: runs an event's callbacks
    exactly as the inline loop does and records what it was given."""

    def __init__(self):
        self.calls = []

    def __call__(self, event, callbacks):
        self.calls.append((event, list(callbacks)))
        for callback in callbacks:
            callback(event)


@contextmanager
def dispatch_hook(dispatch):
    """Install ``dispatch`` class-wide the way the tracer does (as a
    staticmethod), and put the class attribute back afterwards."""
    Environment.profile_dispatch = staticmethod(dispatch)
    try:
        yield dispatch
    finally:
        Environment.profile_dispatch = None


def run_multi_callback_schedule(seed, n_events=300):
    """Seeded events with 1-3 callbacks each. Returns the callback log,
    each event's callbacks as attached (by event id), and the engine."""
    env = Environment()
    rng = random.Random(seed)
    log, attached = [], {}
    for eid in range(n_events):
        event = Event(env)
        for k in range(rng.randrange(1, 4)):
            event.callbacks.append(lambda _e, eid=eid, k=k: log.append((eid, k)))
        attached[id(event)] = list(event.callbacks)
        env.schedule(
            event, priority=rng.choice(PRIORITIES),
            delay=rng.choice(DELAY_CHOICES),
        )
    env.run()
    return log, attached, env


@pytest.mark.parametrize("seed", range(3))
def test_dispatch_hook_runs_each_callback_once_in_order(seed):
    plain_log, _, plain_env = run_multi_callback_schedule(seed)
    with dispatch_hook(RecordingDispatch()) as hook:
        hooked_log, attached, hooked_env = run_multi_callback_schedule(seed)
    assert hooked_log == plain_log
    assert len(set(hooked_log)) == len(hooked_log)  # each callback once
    # one hook call per processed event, handed exactly the callbacks
    # attached to it, in attachment order
    assert len(hook.calls) == hooked_env.events_processed
    assert hooked_env.events_processed == plain_env.events_processed
    assert len({id(event) for event, _ in hook.calls}) == len(attached)
    for event, callbacks in hook.calls:
        assert callbacks == attached[id(event)]
    # a cascading workload pops in the same order under the hook
    plain = run_random_schedule(seed)
    with dispatch_hook(RecordingDispatch()):
        assert run_random_schedule(seed) == plain


def test_dispatch_hook_leaves_fig6_result_identical():
    from repro.perf.tasks import SweepTask, digest, run_task

    task = SweepTask(index=0, experiment="fig6", seed=0, n_updates=200)
    plain = run_task(task)
    with dispatch_hook(RecordingDispatch()) as hook:
        hooked = run_task(task)
    events = plain["telemetry"]["events_processed"]
    assert events > 0
    assert hooked["telemetry"]["events_processed"] == events
    assert digest(hooked) == digest(plain)
    # the proposal and conventional environments both dispatch via it
    assert len(hook.calls) == events
    # and the inline loop is back afterwards
    assert vars(Environment)["profile_dispatch"] is None
    assert Environment().profile_dispatch is None



# --------------------------------------------------------------------- #
# inline pushes: succeed/fail and process spawns build their own keys
# --------------------------------------------------------------------- #


def test_succeed_and_fail_push_the_key_schedule_makes():
    """``succeed``/``fail`` push ``(now, NORMAL, seq, event)`` themselves;
    an event scheduled through ``schedule`` gets the same key shape and
    the next seq, and the time is the clock's own float."""
    env = Environment()
    start = Event(env)

    def at_t(_event):
        ok, failed, plain = Event(env), Event(env), Event(env)
        failed.defuse()
        ok.succeed("v")
        failed.fail(RuntimeError("x"))
        env.schedule(plain)
        keys = sorted(env._queue)
        assert [key[1:] for key in keys] == [
            (NORMAL, 1, ok), (NORMAL, 2, failed), (NORMAL, 3, plain),
        ]
        assert all(key[0] is env._now for key in keys)

    start.callbacks.append(at_t)
    env.schedule(start, delay=2.5)
    env.run()
    assert env.events_processed == 4


def test_triggering_a_triggered_event_still_raises():
    env = Environment()
    event = env.event()
    event.succeed(1)
    with pytest.raises(AlreadyTriggered):
        event.succeed(2)
    with pytest.raises(AlreadyTriggered):
        event.fail(RuntimeError("late"))
    assert len(env._queue) == 1 and event.value == 1


def test_spawned_process_starts_before_normal_events_at_its_time():
    """A process spawned at t pushes its Initialize at URGENT: its first
    step runs before every NORMAL event at t, even ones triggered
    before the spawn."""
    env = Environment()
    order = []

    def body():
        order.append(("process", env.now))
        yield env.timeout(0)

    def spawn(_event):
        normal = env.event()
        normal.callbacks.append(lambda _e: order.append(("normal", env.now)))
        normal.succeed()
        proc = env.process(body())
        [key] = [key for key in env._queue if key[3] is not normal]
        assert key[:3] == (1.0, URGENT, 2) and key[0] is env._now
        assert proc.callbacks == [] and proc.is_alive

    start = Event(env)
    start.callbacks.append(spawn)
    env.schedule(start, delay=1.0)
    env.run()
    assert order == [("process", 1.0), ("normal", 1.0)]


# --------------------------------------------------------------------- #
# timeouts push their own keys
# --------------------------------------------------------------------- #


def test_timeout_pushes_the_key_schedule_makes():
    """A ``Timeout``'s heap entry equals the one
    ``env.schedule(event, NORMAL, delay)`` makes at the same instant:
    same time, priority and next seq."""
    env = Environment()
    start = Event(env)

    def at_t(_event):
        timeout = env.timeout(0.75, "v")
        plain = Event(env)
        env.schedule(plain, NORMAL, 0.75)
        keys = sorted(env._queue)
        assert [key[1:] for key in keys] == [
            (NORMAL, 1, timeout), (NORMAL, 2, plain),
        ]
        assert keys[0][0] == keys[1][0] == env._now + 0.75
        assert timeout.value == "v" and timeout.callbacks == []

    start.callbacks.append(at_t)
    env.schedule(start, delay=2.5)
    env.run()
    assert env.now == 3.25 and env.events_processed == 3


def test_zero_delay_timeout_key_is_the_clock_float():
    env = Environment()
    start = Event(env)

    def at_t(_event):
        env.timeout(0)
        env.timeout(0.0)
        assert all(key[0] is env._now for key in env._queue)

    start.callbacks.append(at_t)
    env.schedule(start, delay=1.5)
    env.run()
    assert env.events_processed == 3


def test_perturb_hook_sees_timeout_delays_in_creation_order():
    """With ``env.perturb`` set every nonzero timeout delay reaches the
    hook, in creation order, and the replacement delay sets the key."""
    env = Environment()
    seen = []

    def perturb(event, priority, delay):
        seen.append((type(event).__name__, priority, delay))
        return delay * 2

    env.perturb = perturb
    fired = []
    for delay in (0.5, 0.0, 1.0, 0.25):
        env.timeout(delay).callbacks.append(
            lambda _e, d=delay: fired.append((d, env.now))
        )
    env.run()
    assert seen == [
        ("Timeout", NORMAL, 0.5), ("Timeout", NORMAL, 1.0),
        ("Timeout", NORMAL, 0.25),
    ]
    assert fired == [(0.0, 0.0), (0.25, 0.5), (0.5, 1.0), (1.0, 2.0)]


@pytest.mark.parametrize("delay", [float("nan"), -1.0, -1e-9])
def test_bad_timeout_delay_raises_before_anything_is_pushed(delay):
    env = Environment()
    calls = []
    env.perturb = lambda event, priority, d: calls.append(d) or d
    with pytest.raises(ValueError, match="negative or NaN"):
        env.timeout(delay)
    assert env._queue == [] and env._eseq == 0 and calls == []
