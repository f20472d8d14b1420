"""Unit tests for the lock manager, including simulated waiting."""

import pytest

from repro.db import LockError, LockManager, LockMode, LockUpgradeError
from repro.obs.hub import Observability
from repro.sim import Environment
from repro.sim.events import NORMAL


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def lm(env):
    return LockManager(env)


def test_free_lock_granted_immediately(lm):
    ev = lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    assert ev.triggered
    assert lm.holders("A") == {"p1": LockMode.EXCLUSIVE}


def test_shared_locks_coexist(lm):
    assert lm.acquire("A", "p1", LockMode.SHARED).triggered
    assert lm.acquire("A", "p2", LockMode.SHARED).triggered
    assert set(lm.holders("A")) == {"p1", "p2"}


def test_exclusive_blocks_everyone(lm):
    lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    assert not lm.acquire("A", "p2", LockMode.SHARED).triggered
    assert not lm.acquire("A", "p3", LockMode.EXCLUSIVE).triggered
    assert lm.waiting("A") == 2


def test_release_grants_next_fifo(env, lm):
    lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    e2 = lm.acquire("A", "p2", LockMode.EXCLUSIVE)
    e3 = lm.acquire("A", "p3", LockMode.EXCLUSIVE)
    lm.release("A", "p1")
    assert e2.triggered and not e3.triggered
    lm.release("A", "p2")
    assert e3.triggered


def test_grant_wave_admits_shared_batch(lm):
    lm.acquire("A", "w", LockMode.EXCLUSIVE)
    s1 = lm.acquire("A", "r1", LockMode.SHARED)
    s2 = lm.acquire("A", "r2", LockMode.SHARED)
    x = lm.acquire("A", "w2", LockMode.EXCLUSIVE)
    lm.release("A", "w")
    assert s1.triggered and s2.triggered and not x.triggered
    lm.release("A", "r1")
    assert not x.triggered
    lm.release("A", "r2")
    assert x.triggered


def test_no_barging_past_queued_exclusive(lm):
    """A shared request behind a queued X waits (fairness/no starvation)."""
    lm.acquire("A", "r1", LockMode.SHARED)
    x = lm.acquire("A", "w", LockMode.EXCLUSIVE)
    s2 = lm.acquire("A", "r2", LockMode.SHARED)
    assert not x.triggered and not s2.triggered
    lm.release("A", "r1")
    assert x.triggered and not s2.triggered
    lm.release("A", "w")
    assert s2.triggered


def test_reentrant_acquire(lm):
    lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    again = lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    assert again.triggered


def test_upgrade_sole_holder(lm):
    lm.acquire("A", "p1", LockMode.SHARED)
    up = lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    assert up.triggered
    assert lm.holders("A") == {"p1": LockMode.EXCLUSIVE}


def test_upgrade_with_other_holders_rejected(lm):
    lm.acquire("A", "p1", LockMode.SHARED)
    lm.acquire("A", "p2", LockMode.SHARED)
    with pytest.raises(LockUpgradeError):
        lm.acquire("A", "p1", LockMode.EXCLUSIVE)


def test_release_without_hold_raises(lm):
    with pytest.raises(LockError):
        lm.release("A", "nobody")


def test_locks_independent_per_item(lm):
    lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    assert lm.acquire("B", "p2", LockMode.EXCLUSIVE).triggered


def test_is_locked_and_cleanup(lm):
    assert not lm.is_locked("A")
    lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    assert lm.is_locked("A")
    lm.release("A", "p1")
    assert not lm.is_locked("A")
    assert lm._locks == {}  # fully cleaned up


def test_process_integration(env, lm):
    """Two processes serialize on an exclusive lock."""
    order = []

    def worker(env, name, hold):
        yield lm.acquire("A", name, LockMode.EXCLUSIVE)
        order.append((name, "in", env.now))
        yield env.timeout(hold)
        lm.release("A", name)
        order.append((name, "out", env.now))

    env.process(worker(env, "w1", 5))
    env.process(worker(env, "w2", 3))
    env.run()
    assert order == [
        ("w1", "in", 0),
        ("w1", "out", 5),
        ("w2", "in", 5),
        ("w2", "out", 8),
    ]


class _Monitor:
    """A subscriber on its own hub that keeps every event."""

    def __init__(self):
        self.obs = Observability(enabled=False)
        self.obs.subscribe_fields(self._on_emit)
        self.events = []

    def _on_emit(self, kind, now, f):
        self.events.append((
            kind, f["site"], f["item"], f["owner"], f["mode"], f["span_id"],
            f["holders"], f["queue"],
        ))


@pytest.mark.parametrize("mode", [LockMode.SHARED, LockMode.EXCLUSIVE])
def test_grant_on_an_item_without_lock_state(env, mode):
    """The first acquire of an item, and the first after its state was
    dropped, is a plain grant: counted, reported and already succeeded."""
    monitor = _Monitor()
    lm = LockManager(env, "site", obs=monitor.obs)
    for expected_grants in (1, 2):
        ev = lm.acquire("A", "p1", mode, span_id=9)
        assert ev.triggered and ev.ok and ev.value == ("A", mode)
        assert lm.grants == expected_grants
        assert monitor.events[-1] == (
            "lock.grant", "site", "A", "p1", mode, 9, {"p1": mode}, []
        )
        lm.release("A", "p1")
        assert lm._locks == {}
    env.run()
    assert ev.processed


def test_exclusive_downgrade_request_is_noop(lm):
    lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    ev = lm.acquire("A", "p1", LockMode.SHARED)
    assert ev.triggered
    assert lm.holders("A") == {"p1": LockMode.EXCLUSIVE}


@pytest.mark.parametrize("case", ["free", "shared", "reentrant"])
def test_immediate_grant_pushes_the_key_succeed_makes(env, case):
    """An immediate grant is a succeeded event on the heap with the key
    ``Event(env).succeed((item, mode))`` pushes: the clock's own float,
    NORMAL, the next seq."""
    lm = LockManager(env)
    mode = LockMode.SHARED if case == "shared" else LockMode.EXCLUSIVE
    if case != "free":
        lm.acquire("A", "p0" if case == "shared" else "p1", mode)
        env.run()
    env.schedule(env.event(), delay=1.5)  # moves the clock off 0.0
    env.run()
    seq = env._eseq
    ev = lm.acquire("A", "p1", mode)
    reference = env.event().succeed(("A", mode))
    assert ev.triggered and ev.ok and ev.value == ("A", mode)
    assert ev.callbacks == [] and not ev.defused
    keys = sorted(env._queue)
    assert [key[1:] for key in keys] == [
        (NORMAL, seq, ev), (NORMAL, seq + 1, reference),
    ]
    assert all(key[0] is env._now for key in keys)


def test_total_waiting_counts_queued_waiters(env, lm):
    lm.acquire("A", "p1", LockMode.EXCLUSIVE)
    lm.acquire("B", "p1", LockMode.SHARED)
    lm.acquire("A", "p2", LockMode.SHARED)
    lm.acquire("A", "p3", LockMode.SHARED)
    lm.acquire("B", "p4", LockMode.EXCLUSIVE)
    assert lm.total_waiting() == 3
    lm.release("A", "p1")  # the shared pair is admitted together
    assert lm.total_waiting() == 1
    lm.release("B", "p1")
    assert lm.total_waiting() == 0
