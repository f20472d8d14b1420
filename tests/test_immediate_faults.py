"""Fault-mode tests for the Immediate Update protocol (2PC recovery)."""

import pytest

from repro.cluster import build_paper_system
from repro.core import UpdateOutcome


def make_system(**kw):
    defaults = dict(
        n_items=1,
        initial_stock=50.0,
        regular_fraction=0.0,
        seed=0,
        request_timeout=5.0,
    )
    defaults.update(kw)
    return build_paper_system(**defaults)


ITEM = "item0"


class TestLiveMembership:
    def test_known_crashed_participant_is_excluded(self):
        """Crash detection is out of band (live_peers): the update
        commits among the live members; the dead site is stale."""
        system = make_system()
        system.network.faults.crash("site2")
        proc = system.update("site1", ITEM, -5)
        system.run()
        assert proc.value.committed
        assert system.site("site0").value(ITEM) == 45.0
        assert system.site("site1").value(ITEM) == 45.0
        assert system.site("site2").value(ITEM) == 50.0  # missed it

    def test_restart_catches_up_missed_immediate_updates(self):
        system = make_system()
        system.network.faults.crash("site2")
        p1 = system.update("site1", ITEM, -5)
        system.run()
        assert p1.value.committed

        system.site("site2").restart()
        system.run()
        # Snapshot pull from the base brought site2 up to date.
        for site in system.sites.values():
            assert site.value(ITEM) == 45.0
        system.check_invariants()

    def test_racing_crash_aborts_via_prepare_timeout(self):
        """A crash the coordinator has not observed yet (it happens
        while the prepare is in flight) falls back to the timeout path."""
        system = make_system()
        proc = system.update("site1", ITEM, -5)

        def crasher(env):
            # site2's prepare is in flight at t in (2, 3).
            yield env.timeout(2.5)
            system.network.faults.crash("site2")

        system.env.process(crasher(system.env))
        system.run()
        assert proc.value.outcome is UpdateOutcome.ABORTED
        # Live sites rolled back; locks free.
        assert system.site("site0").value(ITEM) == 50.0
        assert system.site("site1").value(ITEM) == 50.0
        for name in ("site0", "site1"):
            assert not system.site(name).accelerator.locks.is_locked(ITEM)
        assert not system.site("site0").accelerator.immediate._pending


class TestDecisionLog:
    def test_commit_decision_logged_before_phase2(self):
        system = make_system()
        proc = system.update("site1", ITEM, -5)
        system.run()
        imm = system.site("site1").accelerator.immediate
        assert list(imm.decisions.values()) == ["commit"]
        assert not imm.in_progress

    def test_abort_decision_logged(self):
        system = make_system()
        proc = system.update("site1", ITEM, -51)  # negative -> abort
        system.run()
        imm = system.site("site1").accelerator.immediate
        assert list(imm.decisions.values()) == ["abort"]

    def test_status_of_unknown_token_is_presumed_abort(self):
        system = make_system()
        ep = system.site("site2").endpoint

        def client(env):
            return (
                yield ep.request(
                    "site1", "imm.status", {"token": "imm:999:site1"}
                )
            )

        proc = system.env.process(client(system.env))
        system.run()
        assert proc.value == {"decision": "abort"}


class TestWatchdog:
    def test_orphaned_participant_self_resolves(self):
        """A participant whose commit was lost (not crashed itself!)
        learns the outcome through its watchdog."""
        system = make_system()
        proc = system.update("site1", ITEM, -5)

        # Drop exactly the commit delivery to site0 by crashing site0
        # briefly around it: prepare for site0 happens at t~1; its
        # commit arrives ~7. Window [6, 8] loses only the commit.
        def blinker(env):
            yield env.timeout(6.0)
            system.network.faults.crash("site0")
            yield env.timeout(2.0)
            system.network.faults.recover("site0")

        system.env.process(blinker(system.env))
        system.run()
        assert proc.value.committed
        # The bounded resends and/or the watchdog resolve site0.
        for site in system.sites.values():
            assert site.value(ITEM) == 45.0
        assert not system.site("site0").accelerator.immediate._pending
        system.check_invariants()

    def test_watchdog_waits_while_coordinator_pending(self):
        """handle_status answers 'pending' during a live decision."""
        system = make_system()
        imm1 = system.site("site1").accelerator.immediate
        imm1.in_progress.add("imm:7:site1")
        ep = system.site("site2").endpoint

        def client(env):
            return (
                yield ep.request(
                    "site1", "imm.status", {"token": "imm:7:site1"}
                )
            )

        proc = system.env.process(client(system.env))
        system.run()
        assert proc.value == {"decision": "pending"}


def _link_down_commit(system):
    """site1 -> site0 goes down after site0 prepared: the commit and its
    resends are lost, site0's watchdog asks the coordinator."""

    def fault(env):
        yield env.timeout(3.5)
        system.network.faults.link_down("site1", "site0")
        yield env.timeout(60.0)
        system.network.faults.link_up("site1", "site0")

    system.env.process(fault(system.env))


def _crash_prepared_participant(system):
    """site2 dies prepared; on restart it resolves and catches up."""

    def fault(env):
        yield env.timeout(3.5)
        system.network.faults.crash("site2")
        yield env.timeout(100.0)
        system.site("site2").restart()

    system.env.process(fault(system.env))


class TestTerminationEndState:
    """Each fault leaves the coordinator's commit undelivered; the
    termination protocol still settles every site."""

    FAULTS = [_link_down_commit, _crash_prepared_participant]

    def _run(self, fault):
        system = make_system()
        proc = system.update("site1", ITEM, -5)
        fault(system)
        system.run()
        assert proc.value.committed
        for site in system.sites.values():
            assert site.value(ITEM) == 45.0
        return system

    @pytest.mark.parametrize("fault", FAULTS, ids=lambda f: f.__name__)
    def test_nothing_left_in_doubt(self, fault):
        system = self._run(fault)
        for site in system.sites.values():
            accel = site.accelerator
            assert not accel.immediate._pending
            assert not accel.txns.wal.in_flight()
            assert not accel.locks.is_locked(ITEM)
        # every resend of the commit to the unreachable peer timed out
        assert system.site("site1").accelerator.immediate.retries == 10

    def test_crashed_participant_catch_up_writes_the_item(self):
        system = self._run(_crash_prepared_participant)
        record = system.site("site2").store.record(ITEM)
        assert (record.updated_at, record.version) == (107.5, 2)


class TestCrashMidResolution:
    """A site that crashes while the termination protocol runs sends
    nothing more; its restart resolves the token."""

    def test_participant_crashing_between_status_queries(self):
        """site0's commit is lost, so its watchdog queries site1 (whose
        replies are lost too) until site0 itself crashes between two
        queries. The query loop ends there instead of raising out of
        the simulation; site0's restart resolves the commit."""
        system = make_system()
        proc = system.update("site1", ITEM, -5)
        faults = system.network.faults

        def fault(env):
            yield env.timeout(3.5)
            faults.link_down("site1", "site0")
            yield env.timeout(30.0)  # site0's watchdog fired at ~21
            faults.crash("site0")
            yield env.timeout(40.0)
            faults.link_up("site1", "site0")
            system.site("site0").restart()

        system.env.process(fault(system.env))
        system.run()
        assert proc.value.committed
        for site in system.sites.values():
            assert site.value(ITEM) == 45.0
            assert not site.accelerator.immediate._pending
            assert not site.accelerator.locks.is_locked(ITEM)
        system.check_invariants()

