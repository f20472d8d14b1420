"""Tests for the read API (consistency levels) and site restart recovery."""

import pytest

from repro.cluster import build_paper_system
from repro.core.reads import ReadConsistency, TAG_READ


def run_proc(system, proc):
    system.run()
    assert proc.ok, getattr(proc, "value", None)
    return proc.value


@pytest.fixture
def system():
    return build_paper_system(n_items=2, initial_stock=90.0, seed=0)


ITEM = "item0"


class TestLocalRead:
    def test_local_read_is_free(self, system):
        result = run_proc(system, system.site("site1").accelerator.read(ITEM))
        assert result.value == 90.0
        assert result.consistency is ReadConsistency.LOCAL
        assert system.stats.sent_total == 0

    def test_local_read_sees_own_updates_but_not_peers(self, system):
        run_proc(system, system.update("site2", ITEM, -10))
        local = run_proc(system, system.site("site1").accelerator.read(ITEM))
        assert local.value == 90.0  # stale: site2's delta not propagated


class TestReconciledRead:
    def test_reconciled_read_recovers_ground_truth(self, system):
        run_proc(system, system.update("site2", ITEM, -10))
        run_proc(system, system.update("site0", ITEM, +7))
        result = run_proc(
            system,
            system.site("site1").accelerator.read(
                ITEM, ReadConsistency.RECONCILED
            ),
        )
        assert result.value == 87.0
        assert result.value == system.collector.ledger.true_value(ITEM)
        assert result.peers_asked == 2
        assert system.stats.by_tag[TAG_READ] == 4  # 2 requests + 2 replies

    def test_read_does_not_mutate_balances(self, system):
        run_proc(system, system.update("site2", ITEM, -10))
        accel2 = system.site("site2").accelerator
        before = accel2.owed_to("site1", ITEM)
        run_proc(
            system,
            system.site("site1").accelerator.read(
                ITEM, ReadConsistency.RECONCILED
            ),
        )
        assert accel2.owed_to("site1", ITEM) == before
        # A later sync still delivers the delta.
        accel2.sync_all()
        system.run()
        assert system.site("site1").value(ITEM) == 80.0

    def test_non_regular_item_always_local(self, system):
        sys2 = build_paper_system(
            n_items=1, initial_stock=50.0, regular_fraction=0.0, seed=0
        )
        result = run_proc(
            sys2,
            sys2.site("site1").accelerator.read(
                "item0", ReadConsistency.RECONCILED
            ),
        )
        assert result.value == 50.0
        assert result.peers_asked == 0
        assert sys2.stats.sent_total == 0


class TestLockedRead:
    def test_locked_read_releases_lock(self, system):
        accel = system.site("site1").accelerator
        result = run_proc(system, accel.read(ITEM, ReadConsistency.LOCKED))
        assert result.value == 90.0
        assert not accel.locks.is_locked(ITEM)

    def test_locked_read_value_correct(self, system):
        run_proc(system, system.update("site2", ITEM, -15))
        result = run_proc(
            system,
            system.site("site1").accelerator.read(ITEM, ReadConsistency.LOCKED),
        )
        assert result.value == 75.0


class TestSiteRestart:
    def test_restart_after_clean_crash(self, system):
        run_proc(system, system.update("site1", ITEM, -10))
        system.site("site1").crash()
        report = system.site("site1").restart()
        system.run()
        assert report.clean
        assert not system.site("site1").crashed
        # The pre-crash delta reached the peers via the restart sync.
        assert system.site("site0").value(ITEM) == 80.0
        assert system.site("site2").value(ITEM) == 80.0
        system.check_invariants()

    def test_restart_resolves_in_doubt_2pc_via_coordinator(self):
        """The 2PC termination protocol: a participant that crashed
        holding a provisional apply learns the commit decision from the
        coordinator on restart, and the coordinator's bounded resends
        eventually reach it — the whole system converges."""
        system = build_paper_system(
            n_items=1,
            initial_stock=50.0,
            regular_fraction=0.0,
            seed=0,
            request_timeout=5.0,
        )
        victim = system.site("site2")
        # Coordinator at site1 starts an immediate update, but site2
        # crashes right after preparing (before the commit arrives).
        proc = system.update("site1", "item0", -5)

        def crasher(env):
            # canonical order site0,site1,site2: site2 prepares last, at
            # ~4 time units in; crash just after its provisional apply.
            yield env.timeout(4.5)
            system.site("site2").crash()
            yield env.timeout(20.0)
            victim.restart()

        system.env.process(crasher(system.env))
        system.run()
        # In-doubt txn resolved as COMMIT; every replica agrees.
        assert proc.triggered and proc.value.committed
        for site in system.sites.values():
            assert site.value("item0") == 45.0
        assert not victim.accelerator.immediate._pending
        assert not victim.accelerator.locks.is_locked("item0")
        system.check_invariants()

    def test_restart_presumes_abort_without_decision(self):
        """A prepared participant whose coordinator never decided (it
        crashed first) aborts on resolution — both sides compensate."""
        system = build_paper_system(
            n_items=1,
            initial_stock=50.0,
            regular_fraction=0.0,
            seed=0,
            request_timeout=5.0,
        )
        coordinator = system.site("site1")
        victim = system.site("site2")
        proc = system.update("site1", "item0", -5)

        def crasher(env):
            # site2 prepares (provisionally applies) at t=3; its ready
            # vote reaches the coordinator at t=4, where the decision
            # would be logged. Kill both at 3.5: prepared participant,
            # undecided coordinator.
            yield env.timeout(3.5)
            system.site("site1").crash()
            system.site("site2").crash()
            yield env.timeout(20.0)
            coordinator.restart()
            victim.restart()

        system.env.process(crasher(system.env))
        system.run()
        # No decision was logged -> presumed abort everywhere.
        for site in system.sites.values():
            assert site.value("item0") == 50.0
        assert not victim.accelerator.immediate._pending
        system.check_invariants()
