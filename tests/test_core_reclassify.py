"""Tests for dynamic item reclassification (regular <-> non-regular)."""

import pytest

from repro.analysis.end_state import end_state
from repro.cluster import (
    DistributedSystem,
    InvariantViolation,
    build_paper_system,
    paper_config,
)
from repro.core import UpdateKind
from repro.core.accelerator import Accelerator
from repro.core.reclassify import TAG_RECLASS, ReclassificationError
from repro.net.reliable import ReliabilityParams
from repro.sim.events import Event


def run_proc(system, proc):
    system.run()
    assert proc.ok, proc.value
    return proc.value


@pytest.fixture
def system():
    # item0 regular (AV 30/30/30), item1 non-regular.
    return build_paper_system(
        n_items=2, initial_stock=90.0, regular_fraction=0.5, seed=0
    )


class TestMakeRegular:
    def test_defines_av_everywhere(self, system):
        accel = system.maker.accelerator
        shares = run_proc(system, accel.make_regular("item1"))
        assert sum(shares.values()) == 90.0
        for site in system.sites.values():
            assert site.av_table.defined("item1")
            assert site.av_table.get("item1") == shares[site.name]
        assert accel.check("item1") is UpdateKind.DELAY
        system.check_invariants()

    def test_av_fraction_and_weights(self, system):
        accel = system.maker.accelerator
        shares = run_proc(
            system,
            accel.make_regular(
                "item1", av_fraction=0.5,
                weights={"site0": 2, "site1": 1, "site2": 1},
            ),
        )
        assert sum(shares.values()) == 45.0
        assert shares["site0"] > shares["site1"]

    def test_already_regular_rejected(self, system):
        accel = system.maker.accelerator
        with pytest.raises(ReclassificationError):
            accel.make_regular("item0")

    def test_message_cost(self, system):
        accel = system.maker.accelerator
        run_proc(system, accel.make_regular("item1"))
        # 2 peers x (lock+reply + commit+ack) = 8 messages, tag cls.
        assert system.stats.by_tag[TAG_RECLASS] == 8

    def test_updates_flow_after_conversion(self, system):
        accel = system.maker.accelerator
        run_proc(system, accel.make_regular("item1"))
        result = run_proc(system, system.update("site1", "item1", -10))
        assert result.committed and result.kind is UpdateKind.DELAY
        assert result.local_only


class TestMakeNonRegular:
    def test_reconciles_diverged_replicas(self, system):
        # Create divergence: local delay updates with lazy propagation.
        run_proc(system, system.update("site1", "item0", -25))
        run_proc(system, system.update("site0", "item0", +10))
        assert system.site("site2").value("item0") == 90.0  # stale

        accel = system.site("site2").accelerator  # any site may coordinate
        true_value = run_proc(system, accel.make_non_regular("item0"))
        assert true_value == 75.0
        for site in system.sites.values():
            assert site.value("item0") == 75.0
            assert not site.av_table.defined("item0")
        system.check_invariants()

    def test_already_non_regular_rejected(self, system):
        accel = system.maker.accelerator
        with pytest.raises(ReclassificationError):
            accel.make_non_regular("item1")

    def test_updates_become_immediate(self, system):
        accel = system.maker.accelerator
        run_proc(system, accel.make_non_regular("item0"))
        result = run_proc(system, system.update("site1", "item0", -5))
        assert result.kind is UpdateKind.IMMEDIATE and result.committed
        for site in system.sites.values():
            assert site.value("item0") == 85.0

    def test_unsynced_claimed_not_double_sent(self, system):
        run_proc(system, system.update("site1", "item0", -25))
        accel1 = system.site("site1").accelerator
        assert accel1.owed_to("site0", "item0") == -25.0
        assert accel1.owed_to("site2", "item0") == -25.0
        run_proc(system, system.maker.accelerator.make_non_regular("item0"))
        assert "item0" not in accel1.unsynced_items()
        # a later sync_all must not resend the claimed delta
        assert accel1.sync_all() == 0

    def test_concurrent_delay_update_waits_at_gate(self, system):
        """An update racing the reclassification lands consistently.

        It either completes as a Delay update before the freeze, or
        waits at the gate and re-routes to the Immediate path.
        """
        p_upd = system.update("site1", "item0", -10)
        p_cls = system.maker.accelerator.make_non_regular("item0")
        system.run()
        assert p_upd.ok and p_cls.ok
        assert p_upd.value.committed
        # Whatever the interleaving, the final state is consistent.
        values = {s.value("item0") for s in system.sites.values()}
        assert values == {80.0}
        system.check_invariants()

    def test_round_trip_regular_nonregular_regular(self, system):
        accel = system.maker.accelerator
        run_proc(system, system.update("site1", "item0", -30))
        run_proc(system, accel.make_non_regular("item0"))
        shares = run_proc(system, accel.make_regular("item0"))
        assert sum(shares.values()) == 60.0
        result = run_proc(system, system.update("site2", "item0", -5))
        assert result.kind is UpdateKind.DELAY and result.committed
        system.check_invariants()


class TestSyncPushFence:
    """A reclassify must not claim a balance whose reliable sync push is
    still on the wire: the push lands at its peer anyway, so the
    coordinator would count the delta twice."""

    def test_push_on_the_wire_is_counted_once(self):
        system = DistributedSystem.build(paper_config(
            n_items=2, n_retailers=2, seed=0,
            reliability=ReliabilityParams(),
        ))
        run_proc(system, system.update("site1", "item0", -3))  # covered
        system.site("site1").accelerator.sync_item("item0")
        proc = system.maker.accelerator.make_non_regular("item0")
        assert run_proc(system, proc) == 97.0
        system.check_invariants(quiescent=True)
        for site in system.sites.values():
            assert site.value("item0") == 97.0

    def test_every_judge_flags_the_race_without_the_fence(self, monkeypatch):
        from repro.experiments import chaos

        def delay_only(self, item):
            # quiesce as it was before the fence: in-flight Delay
            # updates only, sync pushes on the wire ignored
            event = Event(self.env)
            if item in self._active_delay:
                self._quiesce_waiters.setdefault(item, []).append(event)
            else:
                event.succeed()
            return event

        monkeypatch.setattr(Accelerator, "quiesce", delay_only)
        flash_sale = chaos.FlashSaleWorkload
        monkeypatch.setattr(
            chaos, "FlashSaleWorkload",
            lambda **kw: flash_sale(**{**kw, "burst": 40}),
        )
        judged = []

        def spy(system, quiescent):
            judged.append(system)
            return end_state(system, quiescent)

        monkeypatch.setattr(chaos, "end_state", spy)
        result = chaos.run_chaos_scenario(
            chaos._OVERLOAD_SCENARIO, n_updates=2000, seed=31, n_items=6
        )
        assert not result.ok
        assert result.findings
        (system,) = judged
        findings = end_state(system, quiescent=True)
        assert ("oracle.convergence", "item3") in {
            (v.rule, v.item) for v in findings
        }
        with pytest.raises(InvariantViolation, match="'item3' at quiescence"):
            system.check_invariants(quiescent=True)


class TestSyncBatching:
    def test_sync_item_batches_deltas(self, system):
        for _ in range(3):
            run_proc(system, system.update("site1", "item0", -5))
        accel = system.site("site1").accelerator
        assert accel.owed_to("site0", "item0") == -15.0
        sent = accel.sync_item("item0")
        assert sent == 2  # one per peer, regardless of 3 updates
        system.run()
        assert system.site("site0").value("item0") == 75.0
        assert system.site("site2").value("item0") == 75.0

    def test_sync_all_and_idempotence(self, system):
        run_proc(system, system.update("site1", "item0", -5))
        accel = system.site("site1").accelerator
        assert accel.sync_all() == 2
        assert accel.sync_all() == 0  # drained

    def test_all_sites_synced_converge_to_ledger(self, system):
        run_proc(system, system.update("site1", "item0", -5))
        run_proc(system, system.update("site2", "item0", -7))
        run_proc(system, system.update("site0", "item0", +3))
        for site in system.sites.values():
            site.accelerator.sync_all()
        system.run()
        expected = system.collector.ledger.true_value("item0")
        for site in system.sites.values():
            assert site.value("item0") == expected

    def test_eager_mode_keeps_unsynced_empty(self):
        system = build_paper_system(
            n_items=1, initial_stock=90.0, seed=0, propagate=True
        )
        proc = system.update("site1", "item0", -5)
        system.run()
        assert proc.value.committed
        assert not system.site("site1").accelerator.owed
