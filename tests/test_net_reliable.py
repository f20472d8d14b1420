"""Reliable sessions (ack/retransmit/dedup) and declarative FaultSchedule."""

import pytest

from repro.cluster import build_paper_system
from repro.net import FaultSchedule, ReliabilityParams

PARAMS = ReliabilityParams(
    ack_timeout=2.0,
    backoff=2.0,
    jitter=0.0,
    max_attempts=2,
    probe_interval=3.0,
    lease_timeout=20.0,
)


def make_system(**kw):
    defaults = dict(
        n_items=2,
        initial_stock=100.0,
        seed=0,
        request_timeout=5.0,
        reliability=PARAMS,
    )
    defaults.update(kw)
    return build_paper_system(**defaults)


class TestReliabilityParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            ReliabilityParams(ack_timeout=0)
        with pytest.raises(ValueError):
            ReliabilityParams(backoff=0.5)
        with pytest.raises(ValueError):
            ReliabilityParams(jitter=-1)
        with pytest.raises(ValueError):
            ReliabilityParams(max_attempts=0)
        with pytest.raises(ValueError):
            ReliabilityParams(lease_timeout=0)


class TestReliableSession:
    def test_deliver_on_clean_network(self):
        system = make_system()
        calls = []
        system.site("site0").accelerator.reliable.on(
            "test.echo", lambda msg: calls.append(msg.payload["x"]) or {"ok": 1}
        )
        sender = system.site("site1").accelerator.reliable
        proc = sender.deliver("site0", "test.echo", {"x": 7})
        system.run()
        assert proc.value is True
        assert calls == [7]
        assert sender.delivered == 1
        assert sender.retransmissions == 0

    def test_handler_runs_once_despite_random_loss(self):
        system = make_system()
        system.network.faults.set_drop_probability(0.5)
        calls = []
        system.site("site0").accelerator.reliable.on(
            "test.echo", lambda msg: calls.append(msg.payload["x"]) or {"ok": 1}
        )
        sender = system.site("site1").accelerator.reliable
        procs = [
            sender.deliver("site0", "test.echo", {"x": i}) for i in range(20)
        ]
        system.run()
        # Every delivery that reports True was applied exactly once; with
        # 50% loss and only 2 attempts some resolve to a definitive False.
        delivered = [p.value for p in procs]
        assert sorted(calls) == [
            i for i, ok in enumerate(delivered) if ok
        ]
        assert sender.retransmissions > 0

    def test_duplicate_sequence_suppressed_but_acked(self):
        system = make_system()
        calls = []
        system.site("site0").accelerator.reliable.on(
            "test.echo", lambda msg: calls.append(msg.payload["x"]) or {"ok": 1}
        )
        ep = system.site("site1").endpoint
        payload = {"x": 1, "_rel": {"seq": 99}}
        first = ep.request("site0", "test.echo", payload, timeout=5.0)
        second = ep.request("site0", "test.echo", payload, timeout=5.0)
        system.run()
        assert calls == [1]  # applied once
        assert first.value == {"ok": 1}
        assert second.value == {"dup": True}  # still acked
        assert system.site("site0").accelerator.reliable.dups_suppressed == 1

    def test_probe_gives_definitive_false_after_total_loss(self):
        system = make_system()
        faults = system.network.faults
        calls = []
        system.site("site0").accelerator.reliable.on(
            "test.echo", lambda msg: calls.append(msg) or {"ok": 1}
        )
        sender = system.site("site1").accelerator.reliable
        faults.link_down("site1", "site0")
        proc = sender.deliver("site0", "test.echo", {"x": 1})
        system.run(until=60.0)
        assert not proc.triggered  # still probing through the dead link
        faults.link_up("site1", "site0")
        system.run()
        assert proc.value is False  # definitively never arrived
        assert calls == []
        assert sender.undelivered == 1

    def test_probe_true_when_only_acks_were_lost(self):
        system = make_system()
        faults = system.network.faults
        calls = []
        system.site("site0").accelerator.reliable.on(
            "test.echo", lambda msg: calls.append(msg) or {"ok": 1}
        )
        sender = system.site("site1").accelerator.reliable
        # Forward path clean, reply path dead: the handler runs but every
        # ack is lost, so the sender must resolve via probe — whose own
        # reply comes back once the link heals.
        faults.link_down("site0", "site1")
        proc = sender.deliver("site0", "test.echo", {"x": 1})
        system.run(until=60.0)
        faults.link_up("site0", "site1")
        system.run()
        assert proc.value is True
        assert len(calls) == 1


class TestSyncWithReliability:
    """The pop-before-send loss is gone: owed clears only on ack."""

    def test_balance_retained_until_acknowledged(self):
        system = make_system()
        faults = system.network.faults
        s1 = system.site("site1")
        proc = s1.update("item0", -5)
        system.run()
        assert proc.value.committed
        accel = s1.accelerator
        assert accel.unsynced_items() == {"item0"}

        faults.link_down("site1", "site0")
        faults.link_down("site1", "site2")
        accel.sync_all()
        system.run(until=system.env.now + 10.0)
        # In flight, unresolved: the balance must still be owed.
        assert accel.unsynced_items() == {"item0"}

        faults.link_up("site1", "site0")
        faults.link_up("site1", "site2")
        system.run()
        # The probes resolved to a definitive "never arrived": the
        # balance survived for a safe resend under fresh sequence numbers.
        assert accel.unsynced_items() == {"item0"}
        accel.sync_all()
        system.run()
        assert not accel.unsynced_items()
        for name in ("site0", "site2"):
            assert system.site(name).value("item0") == s1.value("item0")

    def test_sync_converges_under_random_loss(self):
        system = make_system()
        system.network.faults.set_drop_probability(0.4)
        for delta in (-4, -3, -2):
            proc = system.site("site1").update("item0", delta)
            system.run()
            assert proc.value.committed
        for _ in range(10):
            for name in sorted(system.sites):
                system.sites[name].accelerator.sync_all()
            system.run()
            if not any(
                system.sites[name].accelerator.unsynced_items()
                for name in sorted(system.sites)
            ):
                break
        values = {system.site(n).value("item0") for n in sorted(system.sites)}
        assert values == {91.0}

    def test_concurrent_sync_calls_send_once(self):
        system = make_system()
        s1 = system.site("site1")
        proc = s1.update("item0", -5)
        system.run()
        assert proc.value.committed
        accel = s1.accelerator
        sent = accel.sync_all() + accel.sync_all()  # second call: in flight
        assert sent == accel.sync_all() + 2  # two peers, one send each
        system.run()
        assert not accel.unsynced_items()
        assert system.site("site0").accelerator.reliable.dups_suppressed == 0


class TestFaultSchedule:
    def test_steps_sorted_and_rendered(self):
        schedule = (
            FaultSchedule()
            .recover(10.0, "a")
            .crash(5.0, "a")
            .heal(20.0)
        )
        assert [s.time for s in schedule.steps] == [5.0, 10.0, 20.0]
        assert schedule.last_time == 20.0
        assert len(schedule) == 3
        assert "crash" in str(schedule.steps[0])

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule().crash(-1.0, "a")

    def test_install_applies_at_scheduled_times(self):
        system = make_system()
        FaultSchedule().crash(5.0, "site1").recover(10.0, "site1").install(
            system
        )
        system.run(until=7.0)
        assert system.site("site1").crashed
        system.run(until=20.0)
        assert not system.site("site1").crashed

    def test_crash_and_recover_steps_go_through_the_site(self):
        """A crash step is fail-stop (the site's processes end); a
        recover step restarts the site (its rejoin round runs)."""
        from repro.core.sync import SyncScheduler

        system = make_system()
        SyncScheduler(system.site("site1").accelerator, interval=4.0).start()
        FaultSchedule().crash(1.0, "site1").recover(2.0, "site1").install(
            system
        )
        system.run(until=1.5)
        assert system.env.owned("site1") == []
        system.run(until=2.0)
        assert [p._generator.__qualname__ for p in system.env.owned("site1")] == [
            "Periodic._loop", "rejoin",
        ]

    def test_recover_without_a_crash_leaves_the_site_alone(self):
        system = make_system()
        FaultSchedule().recover(1.0, "site1").install(system)
        system.run(until=5.0)
        assert not system.site("site1").crashed
        assert system.env.owned("site1") == []

    def test_link_drop_override_and_clear(self):
        system = make_system()
        faults = system.network.faults
        (
            FaultSchedule()
            .link_drop(1.0, "site0", "site1", 1.0)
            .link_drop(5.0, "site0", "site1", None)
            .install(system)
        )
        system.run(until=2.0)
        assert faults.should_drop("site0", "site1")
        system.run(until=6.0)
        assert not faults.should_drop("site0", "site1")

    def test_flap_ends_link_up(self):
        system = make_system()
        faults = system.network.faults
        FaultSchedule().flap("site0", "site1", 0.0, 10.0, 4.0).install(system)
        system.run(until=1.0)
        assert faults.link_is_down("site0", "site1")
        assert faults.link_is_down("site1", "site0")
        system.run(until=3.0)
        assert not faults.link_is_down("site0", "site1")
        system.run(until=11.0)
        assert not faults.link_is_down("site0", "site1")

    def test_partition_and_heal(self):
        system = make_system()
        faults = system.network.faults
        FaultSchedule().partition(1.0, ["site0"], ["site1", "site2"]).heal(
            3.0
        ).install(system)
        system.run(until=2.0)
        assert faults.should_drop("site0", "site1")
        assert not faults.should_drop("site1", "site2")
        system.run(until=4.0)
        assert not faults.should_drop("site0", "site1")
