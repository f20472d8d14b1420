"""Tests for the periodic batched sync scheduler."""

import pytest

from repro.cluster import build_paper_system
from repro.core import SyncScheduler


@pytest.fixture
def system():
    return build_paper_system(n_items=2, initial_stock=90.0, seed=0)


ITEM = "item0"


def test_validation(system):
    accel = system.site("site1").accelerator
    with pytest.raises(ValueError):
        SyncScheduler(accel, interval=0)


def test_rejects_eager_mode():
    system = build_paper_system(n_items=1, initial_stock=90.0, propagate=True)
    with pytest.raises(ValueError, match="eager"):
        SyncScheduler(system.site("site1").accelerator)


def test_periodic_sync_converges_replicas(system):
    scheduler = SyncScheduler(system.site("site1").accelerator, interval=10.0)
    scheduler.start()

    def driver(env):
        for _ in range(4):
            result = yield system.update("site1", ITEM, -5)
            assert result.committed
            yield env.timeout(12.0)

    proc = system.env.process(driver(system.env))
    system.run(until=100.0)
    assert proc.triggered
    assert scheduler.passes >= 5
    # All site1 deltas have reached the peers.
    assert system.site("site0").value(ITEM) == 70.0
    assert system.site("site2").value(ITEM) == 70.0


def test_batching_cheaper_than_eager(system):
    """4 updates in one interval -> one push per peer, not four."""
    scheduler = SyncScheduler(system.site("site1").accelerator, interval=50.0)
    scheduler.start()

    def driver(env):
        for _ in range(4):
            yield system.update("site1", ITEM, -5)

    system.env.process(driver(system.env))
    system.run(until=120.0)
    # first pass at t=50 sends 2 messages; second pass nothing new
    assert scheduler.messages_sent == 2


def test_stop_halts_loop(system):
    scheduler = SyncScheduler(system.site("site1").accelerator, interval=10.0)
    proc = scheduler.start()
    system.run(until=25.0)
    scheduler.stop()
    system.run()  # drains: the loop must exit rather than spin forever
    assert proc.triggered
    passes = scheduler.passes
    assert passes >= 2
    # Idempotent stop on a dead process is a no-op.
    scheduler.stop()


def test_crashed_site_pauses_sync(system):
    accel = system.site("site1").accelerator
    scheduler = SyncScheduler(accel, interval=10.0)
    scheduler.start()

    def driver(env):
        yield system.update("site1", ITEM, -5)
        system.site("site1").crash()

    system.env.process(driver(system.env))
    system.run(until=55.0)
    assert scheduler.messages_sent == 0
    assert accel.owed_to("site0", ITEM) == -5.0  # pending for after recovery


def test_start_idempotent(system):
    scheduler = SyncScheduler(system.site("site1").accelerator)
    assert scheduler.start() is scheduler.start()


def test_repr(system):
    scheduler = SyncScheduler(system.site("site1").accelerator, interval=7.0)
    assert "interval=7" in repr(scheduler)
