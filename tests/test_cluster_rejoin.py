"""Crash-recovery rejoin: a restarted site anti-entropies before serving."""

import importlib

import pytest

from repro.cluster import build_paper_system
from repro.core.types import UpdateOutcome
from repro.net import ReliabilityParams

PARAMS = ReliabilityParams(
    ack_timeout=3.0,
    backoff=2.0,
    jitter=0.0,
    max_attempts=2,
    probe_interval=4.0,
    lease_timeout=15.0,
)

ITEM = "item0"


def make_system(**kw):
    defaults = dict(
        n_items=2,
        initial_stock=90.0,
        seed=0,
        request_timeout=5.0,
        reliability=PARAMS,
    )
    defaults.update(kw)
    return build_paper_system(**defaults)


def drain_synced(system, rounds=6):
    """Flush sync backlogs to a fixpoint and drain the queue."""
    for _ in range(rounds):
        for name in sorted(system.sites):
            system.sites[name].accelerator.sync_all()
        system.run()
        if not any(
            system.sites[name].accelerator.unsynced_items()
            for name in sorted(system.sites)
        ):
            return
    raise AssertionError("sync backlog did not drain")


class TestRejoin:
    def test_rejoin_pulls_missed_propagation(self):
        system = make_system()
        system.site("site2").crash()
        proc = system.site("site1").update(ITEM, -5)
        system.run()
        assert proc.value.committed
        # site1's balance owed to the dead site2 is retained, not lost.
        system.site("site1").accelerator.sync_all()
        system.run()
        assert system.site("site2").value(ITEM) == 90.0  # still stale

        system.site("site2").restart()
        system.run()
        # prop.flush pulled the retained balance during rejoin.
        assert system.site("site2").value(ITEM) == 85.0
        drain_synced(system)
        system.check_invariants(quiescent=True)

    def test_rejoin_value_counts_replayed_balances(self, monkeypatch):
        rejoin_module = importlib.import_module("repro.cluster.rejoin")
        values = []
        original = rejoin_module.rejoin

        def spy(site):
            values.append((yield from original(site)))

        monkeypatch.setattr(rejoin_module, "rejoin", spy)
        system = make_system()
        system.site("site2").crash()
        system.site("site1").update(ITEM, -5)
        system.site("site1").update("item1", -3)
        system.run()
        system.site("site1").accelerator.sync_all()
        system.run()

        system.site("site2").restart()
        system.run()
        # site1 replayed one owed balance per item; site0 owed nothing.
        assert values == [2]
        assert system.site("site2").value("item1") == 87.0

    def test_updates_wait_for_rejoin_gate(self):
        system = make_system()
        system.site("site1").crash()
        proc0 = system.site("site2").update(ITEM, -5)
        system.run()
        assert proc0.value.committed
        system.site("site2").accelerator.sync_all()
        system.run()

        system.site("site1").restart()
        # Issued in the same step as the restart: must queue behind the
        # rejoin gate instead of racing the anti-entropy.
        accel = system.site("site1").accelerator
        assert accel._rejoin_gate is not None
        proc1 = system.site("site1").update(ITEM, -3)
        system.run()
        assert accel._rejoin_gate is None  # gate opened
        assert proc1.value.committed
        drain_synced(system)
        assert {system.site(n).value(ITEM) for n in sorted(system.sites)} == {
            82.0
        }
        system.check_invariants(quiescent=True)

    def test_crash_mid_rejoin_recovers_on_second_restart(self):
        system = make_system()
        faults = system.network.faults
        system.site("site2").crash()
        proc = system.site("site1").update(ITEM, -5)
        system.run()
        assert proc.value.committed
        system.site("site1").accelerator.sync_all()
        system.run()

        system.site("site2").restart()

        def crasher(env):
            # The rejoin's first request is in flight at t ~ now + 0.5.
            yield env.timeout(0.5)
            system.site("site2").crash()

        system.env.process(crasher(system.env))
        system.run(until=system.env.now + 30.0)
        # The abandoned rejoin must not leave the gate closed forever.
        assert system.site("site2").accelerator._rejoin_gate is None

        system.site("site2").restart()
        system.run()
        assert system.site("site2").value(ITEM) == 85.0
        drain_synced(system)
        system.check_invariants(quiescent=True)

    def test_update_queued_at_the_gate_fails_when_the_site_crashes_again(self):
        system = make_system()
        system.site("site2").crash()
        system.run()

        system.site("site2").restart()
        # Issued in the restart's step: it waits at the rejoin gate.
        proc = system.site("site2").update(ITEM, -3)

        def crasher(env):
            yield env.timeout(0.5)
            system.site("site2").crash()

        system.env.process(crasher(system.env))
        system.run(until=system.env.now + 1.0)
        # The crash ends the queued update as FAILED: whoever waits on
        # it resumes.
        assert proc.triggered
        assert proc.value.outcome is UpdateOutcome.FAILED
        assert system.env.owned("site2") == []

        system.site("site2").restart()
        system.run()
        assert {system.site(n).value(ITEM) for n in sorted(system.sites)} == {
            90.0
        }

    def test_partition_heal_with_retained_balances_on_both_sides(self):
        system = make_system()
        faults = system.network.faults
        faults.partition([["site0"], ["site1", "site2"]])
        pa = system.site("site0").update(ITEM, 10)  # maker mints
        pb = system.site("site1").update(ITEM, -5)
        system.run()
        assert pa.value.committed and pb.value.committed
        for name in sorted(system.sites):
            system.sites[name].accelerator.sync_all()
        system.run(until=system.env.now + 40.0)
        # Cross-partition balances retained on both sides.
        assert system.site("site0").accelerator.unsynced_items() == {ITEM}
        assert system.site("site1").accelerator.unsynced_items() == {ITEM}

        faults.heal()
        system.run()
        drain_synced(system)
        assert {system.site(n).value(ITEM) for n in sorted(system.sites)} == {
            95.0
        }
        system.check_invariants(quiescent=True)

    def test_seed_restart_path_without_reliability(self):
        # reliability off: restart() must behave exactly as the seed did
        # (no gate, no rejoin process).
        system = make_system(reliability=None)
        system.site("site2").crash()
        proc = system.site("site1").update(ITEM, -5)
        system.run()
        assert proc.value.committed
        system.site("site2").restart()
        system.run()
        accel = system.site("site2").accelerator
        assert accel.reliable is None and accel.leases is None
        assert accel._rejoin_gate is None
