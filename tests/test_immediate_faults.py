"""Fault-mode tests for the Immediate Update protocol (2PC recovery)."""

import pytest

import repro.testkit.runner as runner
from repro.cluster import build_paper_system
from repro.cluster.site import Site
from repro.core import UpdateOutcome
from repro.core.immediate_update import ImmediateUpdateProtocol
from repro.db.locks import LockMode
from repro.net.faults import FaultInjector
from repro.testkit.schedule import FuzzCase


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
        system.site("site2").crash()
        proc = system.update("site1", ITEM, -5)
        system.run()
        assert proc.value.committed
        assert system.site("site0").value(ITEM) == 45.0
        assert system.site("site1").value(ITEM) == 45.0
        assert system.site("site2").value(ITEM) == 50.0  # missed it

    def test_restart_catches_up_missed_immediate_updates(self):
        system = make_system()
        system.site("site2").crash()
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
            system.site("site2").crash()

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

        # Drop exactly the commit delivery to site0 by taking the
        # coordinator's link to it down briefly: prepare for site0
        # happens at t~1; its commit is sent ~6. Window [6, 8] loses
        # only the commit.
        faults = system.network.faults

        def blinker(env):
            yield env.timeout(6.0)
            faults.link_down("site1", "site0")
            yield env.timeout(2.0)
            faults.link_up("site1", "site0")

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
        system.site("site2").crash()
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

    def test_crashed_participant_catch_up_writes_the_item(self, monkeypatch):
        """The restarted participant's catch-up overwrites its replica
        once, with the committed value, when it learns the outcome."""
        system = make_system()
        store = system.site("site2").store
        writes = []
        set_value = store.set_value

        def spy(item, value):
            writes.append((system.env.now, item, value))
            set_value(item, value)

        monkeypatch.setattr(store, "set_value", spy)
        proc = system.update("site1", ITEM, -5)
        _crash_prepared_participant(system)
        system.run()
        assert proc.value.committed
        assert writes == [(107.5, ITEM, 45.0)]


class TestCrashMidResolution:
    """A site that crashes while the termination protocol runs sends
    nothing more; its restart resolves the token."""

    def test_participant_crashing_between_status_queries(self):
        """site0's commit is lost, so its watchdog queries site1 (whose
        replies are lost too) until site0 itself crashes between two
        queries. The crash ends the query loop; site0's restart
        re-enters the prepared participant from its WAL and resolves
        the commit."""
        system = make_system()
        proc = system.update("site1", ITEM, -5)
        faults = system.network.faults

        def fault(env):
            yield env.timeout(3.5)
            faults.link_down("site1", "site0")
            yield env.timeout(30.0)  # site0's watchdog fired at ~21
            system.site("site0").crash()
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



class TestPrepareQueuedAtACrash:
    """Fuzz case ``make_case(0, 4)`` with half the items non-regular
    (``tests/test_known_failures.py``), shrunk by the fuzzer's shrinker
    to the prepare that reproduces its divergence: site2's 2PC on item3
    sends site0 a prepare that queues behind an earlier one for the
    item lock. site0 crashes (62.4) and restarts in the heal phase.
    When the crash only cut the links, the queued handler outlived it:
    granted the lock once the restart resolved the earlier
    transaction, it applied its delta provisionally on top of the
    catch-up value, and the abort that followed compensated it there.
    """

    CASE = FuzzCase.from_dict({
        "seed": 2812272067891559936,
        "ops": [["site2", "item3", -5.0], ["site0", "item3", 16.0],
                ["site2", "item3", -1.0], ["site2", "item3", -1.0]],
        "faults": [[62.384, "crash", ["site0"]]],
        "latency_amp": 0.0, "timer_amp": 0.2, "perturb_seed": 0,
        "n_items": 5, "n_retailers": 3, "initial_stock": 100.0,
        "interarrival": 4.152, "horizon": 240.0, "settle": 160.0,
        "sync_interval": 40.0, "reliability": True, "inject": "",
        "overload": False, "topology": "", "format": "repro-fuzz-case/1",
    })

    def test_a_prepare_queued_at_the_crash_never_applies(self, monkeypatch):
        sites, queued, readied = {}, {}, []
        paper_config = runner.paper_config
        monkeypatch.setattr(
            runner, "paper_config",
            lambda **kw: paper_config(**{**kw, "regular_fraction": 0.5}),
        )
        site_init, crash = Site.__init__, FaultInjector.crash

        def init(self, *args, **kwargs):
            site_init(self, *args, **kwargs)
            sites[self.name] = self

        def recording_crash(self, name):
            # The prepares queued for a lock at the crashed site.
            for lock in sites[name].accelerator.locks._locks.values():
                for waiter in lock.queue:
                    queued[(name, waiter.owner)] = sites[name].env.now
            crash(self, name)

        prepare = ImmediateUpdateProtocol.handle_prepare

        def spy(self, msg):
            vote = yield from prepare(self, msg)
            if vote["ready"]:
                readied.append((self.accel.site, msg.payload["token"]))
            return vote

        monkeypatch.setattr(Site, "__init__", init)
        monkeypatch.setattr(FaultInjector, "crash", recording_crash)
        monkeypatch.setattr(ImmediateUpdateProtocol, "handle_prepare", spy)
        outcome = runner.run_case(self.CASE)
        assert ("site0", "imm:3:site2") in queued
        assert [vote for vote in readied if vote in queued] == []
        # The convergence oracle holds every replica to the ledger.
        assert outcome.ok, outcome.render()
        assert len({r["item3"] for r in outcome.replicas.values()}) == 1


class TestRestartFromTheDurableList:
    """A crash keeps ``repro.cluster.site.DURABLE`` and drops the rest;
    the restart rebuilds the in-doubt participants from the WAL."""

    def test_crash_keeps_the_durable_list_and_drops_the_rest(self):
        from repro.cluster.site import DURABLE

        system = make_system()
        proc = system.update("site1", ITEM, -5)
        system.run(until=1.5)  # site0 has prepared; the commit is ahead
        site0 = system.site("site0")
        accel = site0.accelerator

        def resolve(path):
            obj = accel
            for part in path.split("."):
                obj = getattr(obj, part)
            return obj

        kept = {path: resolve(path) for path in DURABLE}
        (token,) = accel.immediate._pending
        site0.crash()
        assert all(resolve(path) is kept[path] for path in DURABLE)
        assert list(accel.txns.wal.prepared.values()) == [token]
        assert system.env.owned("site0") == []
        assert not accel.immediate._pending
        assert not accel.locks.is_locked(ITEM)
        assert not site0.endpoint._pending

        site0.restart()
        assert accel.locks.holders(ITEM) == {token: LockMode.EXCLUSIVE}
        assert list(accel.immediate._pending) == [token]
        system.run()
        assert proc.value.committed
        for site in system.sites.values():
            assert site.value(ITEM) == 45.0
        assert not accel.txns.wal.prepared
        assert not accel.locks.is_locked(ITEM)
