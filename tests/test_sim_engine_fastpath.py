"""Differential tests for the same-timestamp FIFO fast path.

The optimized :class:`~repro.sim.engine.Environment` routes zero-delay
events through per-priority FIFO buckets instead of the heap. These
tests pin down its headline claim — the fast path is **bit-identical**
to the pure-heap engine — by driving both through identical randomly
generated schedules (seeded ``random.Random``; the workloads here model
adversarial schedules, not simulation randomness) and comparing the
complete pop order, tie-breaking included.

Also here: regression tests for the seq-uniqueness invariant (queue
keys must never compare equal, because tuple comparison would then fall
through to the :class:`Event` objects, which define no ordering), and
for ``Environment.profile_dispatch``, the class-wide hook the repo
benchmark's tracer installs as its engine boundary: a pass-through hook
must leave every run exactly as it was.
"""

import itertools
import random
from contextlib import contextmanager
from heapq import heappush

import pytest

from repro.sim.engine import Environment
from repro.sim.errors import EmptySchedule
from repro.sim.events import Event, LATE, NORMAL, URGENT

PRIORITIES = (URGENT, NORMAL, LATE)

# Heavily weighted toward 0.0 (the fast path) with a few positive
# delays from a small lattice so heap events frequently land exactly on
# a bucket timestamp — the tie the full-key comparison must get right.
DELAY_CHOICES = (0.0, 0.0, 0.0, 0.0, 0.25, 0.5, 1.0, 1.0)


class HeapqEnvironment(Environment):
    """Reference engine: the seed's pure-heap ``schedule``.

    Inherits everything else — ``step`` never touches the buckets when
    they are empty, so with every event heap-routed this is exactly the
    pre-optimization engine, while sharing the seq-allocation behaviour
    of the subject engine.
    """

    def schedule(self, event, priority=NORMAL, delay=0.0):
        seq = self._eseq
        self._eseq = seq + 1
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        heappush(self._queue, (self._now + delay, priority, seq, event))


def run_random_schedule(env_cls, seed, n_roots=24, max_depth=4):
    """Drive ``env_cls`` through a seeded random cascade workload.

    Returns the full execution trace ``[(event_id, time), ...]``. Each
    executed event may schedule further events (mostly zero-delay, the
    dominant pattern in the real system); delays are drawn from a small
    lattice so distinct scheduling sites collide on the same timestamp.
    """
    env = env_cls()
    rng = random.Random(seed)
    ids = itertools.count()
    trace = []

    def spawn(depth):
        eid = next(ids)

        def fire(event, eid=eid, depth=depth):
            trace.append((eid, env.now))
            if depth < max_depth:
                for _ in range(rng.randrange(0, 4)):
                    child, prio, delay = spawn(depth + 1)
                    env.schedule(child, priority=prio, delay=delay)

        event = Event(env)
        event.callbacks.append(fire)
        return event, rng.choice(PRIORITIES), rng.choice(DELAY_CHOICES)

    for _ in range(n_roots):
        root, prio, delay = spawn(0)
        env.schedule(root, priority=prio, delay=delay)
    env.run()
    return trace


@pytest.mark.parametrize("seed", range(25))
def test_fastpath_identical_to_heapq_reference(seed):
    """Property: identical pop order (ids *and* timestamps) per seed."""
    fast = run_random_schedule(Environment, seed)
    reference = run_random_schedule(HeapqEnvironment, seed)
    assert fast == reference
    assert len(fast) > 0


@pytest.mark.parametrize("seed", range(5))
def test_fastpath_peek_matches_reference(seed):
    """``peek`` agrees with the reference at every step of a run."""

    def peeks(env_cls):
        env = env_cls()
        rng = random.Random(seed)
        for _ in range(100):
            env.schedule(
                Event(env),
                priority=rng.choice(PRIORITIES),
                delay=rng.choice(DELAY_CHOICES),
            )
        seen = []
        while True:
            seen.append(env.peek())
            try:
                env.step()
            except EmptySchedule:
                break
        return seen

    assert peeks(Environment) == peeks(HeapqEnvironment)


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
    """A heap entry landing exactly on the bucket timestamp, with equal
    priority, must win iff its seq is lower — the exact tie the fast
    path's full-key comparison exists for."""
    env = Environment()
    trace = []

    def tagged(tag):
        ev = Event(env)
        ev.callbacks.append(lambda _e: trace.append(tag))
        return ev

    # Scheduled first => lower seq; lands on the heap at t=1.0.
    env.schedule(tagged("heap"), priority=NORMAL, delay=1.0)

    def at_t1(_event):
        # Now at t=1.0: this zero-delay event enters the bucket with a
        # *higher* seq than the pending heap entry at the same key
        # prefix (1.0, NORMAL) — heap entry must pop first.
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
    plain = run_random_schedule(Environment, seed)
    with dispatch_hook(RecordingDispatch()):
        assert run_random_schedule(Environment, seed) == plain


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

