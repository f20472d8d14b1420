"""Edge-case tests across modules: retry exhaustion, catch-up retries,
urgent scheduling, and misc small behaviours the main suites skip."""

import pytest

from repro.cluster import build_paper_system
from repro.core import UpdateKind, UpdateOutcome
from repro.core.types import UpdateRequest, UpdateResult
from repro.net import Message
from repro.sim import Environment
from repro.sim.events import NORMAL, URGENT, Event


class TestUrgentScheduling:
    def test_urgent_beats_normal_at_same_time(self):
        env = Environment()
        order = []

        normal = Event(env)
        normal.callbacks.append(lambda e: order.append("normal"))
        normal._ok, normal._value = True, None
        env.schedule(normal, priority=NORMAL)

        urgent = Event(env)
        urgent.callbacks.append(lambda e: order.append("urgent"))
        urgent._ok, urgent._value = True, None
        env.schedule(urgent, priority=URGENT)

        env.run()
        assert order == ["urgent", "normal"]


class TestDeliverDecisionExhaustion:
    def test_gives_up_after_retry_budget(self):
        system = build_paper_system(
            n_items=1,
            initial_stock=50.0,
            regular_fraction=0.0,
            seed=0,
            request_timeout=2.0,
            max_immediate_retries=3,
        )
        imm = system.site("site1").accelerator.immediate
        system.site("site2").crash()

        proc = system.env.process(
            imm._deliver_decision("site2", "imm.commit", "imm:1:site1")
        )
        system.run()
        assert proc.ok and proc.value is None
        assert imm.retries == 3


class TestCatchUp:
    def test_catch_up_with_no_reachable_source(self):
        system = build_paper_system(
            n_items=2,
            initial_stock=50.0,
            regular_fraction=0.0,
            seed=0,
            request_timeout=2.0,
        )
        system.site("site0").crash()
        system.site("site1").crash()
        imm = system.site("site2").accelerator.immediate
        proc = system.env.process(imm.catch_up())
        system.run()
        assert proc.value == 0  # stayed stale, did not hang or crash

    def test_catch_up_skips_regular_items(self):
        system = build_paper_system(
            n_items=2, initial_stock=50.0, regular_fraction=0.5, seed=0,
            request_timeout=2.0,
        )
        # Diverge the regular item at site2 via a local delay update at
        # site1 (unsynced), and the non-regular via direct immediate.
        p = system.update("site1", "item0", -5)
        system.run()
        imm = system.site("site2").accelerator.immediate
        proc = system.env.process(imm.catch_up())
        system.run()
        # Only the (already consistent) non-regular item was pulled;
        # the regular item's replica stays under lazy-sync control.
        assert proc.value == 1
        assert system.site("site2").value("item0") == 50.0


class TestReadUnderFaults:
    def test_reconciled_read_skips_crashed_peer(self):
        from repro.core.reads import ReadConsistency

        system = build_paper_system(
            n_items=1, initial_stock=90.0, seed=0, request_timeout=2.0
        )
        p = system.update("site2", "item0", -10)
        system.run()
        system.site("site2").crash()
        proc = system.site("site1").accelerator.read(
            "item0", ReadConsistency.RECONCILED
        )
        system.run()
        # site2 (which owes us -10) is unreachable: the read degrades to
        # what the reachable peers know.
        assert proc.value.peers_asked == 1
        assert proc.value.value == 90.0


class TestRebalancerEdge:
    def test_no_known_beliefs_no_push(self):
        from repro.core import AVRebalancer
        from repro.core.beliefs import BeliefTable

        system = build_paper_system(n_items=1, initial_stock=90.0, seed=0)
        accel = system.maker.accelerator
        accel.beliefs = BeliefTable(accel.site)  # wipe bootstrap beliefs
        accel.av_table.add("item0", 500.0)  # huge surplus
        system.collector.ledger.record_delta("item0", 500.0)  # keep books
        reb = AVRebalancer(accel, surplus_factor=1.1, needy_factor=0.9)
        assert reb.rebalance_once() == 0  # local info only: nothing known

    def test_frozen_item_skipped(self):
        from repro.core import AVRebalancer

        system = build_paper_system(n_items=1, initial_stock=90.0, seed=0)
        accel = system.maker.accelerator
        accel.freeze("item0")
        reb = AVRebalancer(accel, surplus_factor=1.1, needy_factor=0.99)
        assert reb.rebalance_once() == 0
        accel.unfreeze("item0")


class TestStrs:
    def test_update_request_and_result_strs(self):
        req = UpdateRequest(site="site1", item="A", delta=-3.0)
        assert "A-3" in str(req)
        res = UpdateResult(
            request=req,
            kind=UpdateKind.DELAY,
            outcome=UpdateOutcome.COMMITTED,
            local_only=True,
            finished_at=2.0,
        )
        assert "local" in str(res) and "committed" in str(res)
        assert res.latency == 2.0

    def test_update_request_and_result_fields_and_defaults(self):
        a = UpdateRequest("site1", "A", -3.0)
        b = UpdateRequest("site1", "A", -3.0, issued_at=1.5)
        assert b.request_id == a.request_id + 1  # drawn when not given
        req = UpdateRequest("site2", "B", 4.0, 1.0, request_id=7)
        assert (req.site, req.item, req.delta, req.issued_at,
                req.request_id) == ("site2", "B", 4.0, 1.0, 7)
        assert str(req) == "upd#7 B+4.0 @site2"
        assert repr(req) == (
            "UpdateRequest(site='site2', item='B', delta=4.0,"
            " issued_at=1.0, request_id=7)"
        )
        res = UpdateResult(req, UpdateKind.IMMEDIATE, UpdateOutcome.ABORTED)
        assert (res.local_only, res.finished_at, res.av_requests,
                res.av_obtained, res.retry_after) == (False, 0.0, 0, 0.0, 0.0)
        assert not res.committed and res.latency == -1.0
        assert str(res) == (
            "upd#7 B+4.0 @site2 -> aborted [immediate, 0 av-req, t=0]"
        )

    @pytest.mark.parametrize("field", ["delta", "request_id", "site"])
    def test_update_request_fields_are_read_only(self, field):
        req = UpdateRequest("site1", "A", -3.0, request_id=1)
        with pytest.raises(AttributeError):
            setattr(req, field, 0)
        assert req == UpdateRequest("site1", "A", -3.0, 0.0, 1)

    @pytest.mark.parametrize("field", ["outcome", "finished_at", "local_only"])
    def test_update_result_fields_are_read_only(self, field):
        req = UpdateRequest("site1", "A", -3.0, request_id=1)
        res = UpdateResult(req, UpdateKind.DELAY, UpdateOutcome.COMMITTED)
        with pytest.raises(AttributeError):
            setattr(res, field, None)
        assert res.outcome is UpdateOutcome.COMMITTED and res.committed

    def test_message_reply_str(self):
        req = Message("a", "b", "k", expects_reply=True)
        rep = Message("b", "a", "k.reply", reply_to=req.msg_id)
        assert f"reply_to={req.msg_id}" in str(rep)


class TestFrozenGateReroute:
    def test_update_waiting_at_gate_reroutes_to_immediate(self):
        """Freeze, let an update queue at the gate, reclassify to
        non-regular, unfreeze: the queued update must take the
        Immediate path (its item no longer has AV)."""
        system = build_paper_system(n_items=1, initial_stock=90.0, seed=0)
        accel1 = system.site("site1").accelerator

        # Manually freeze everywhere and strip AV (simulating the
        # commit phase of make_non_regular around a queued update).
        for site in system.sites.values():
            site.accelerator.freeze("item0")
        proc = system.update("site1", "item0", -5)
        system.run()
        assert not proc.triggered  # parked at the gate

        for site in system.sites.values():
            site.accelerator.av_table.undefine("item0")
        for site in system.sites.values():
            site.accelerator.unfreeze("item0")
        system.run()
        assert proc.value.kind is UpdateKind.IMMEDIATE
        assert proc.value.committed
        for site in system.sites.values():
            assert site.value("item0") == 85.0


class TestLatePriority:
    def test_deadline_equal_to_rtt_favors_reply(self):
        """A request timeout exactly equal to the round trip must not
        spuriously fire (LATE-priority deadline)."""
        from repro.net import ConstantLatency, Network
        from repro.sim import RngRegistry

        env = Environment()
        net = Network(
            env,
            latency=ConstantLatency(1.0),
            rng=RngRegistry(0).stream("net.latency"),
        )
        a, b = net.endpoint("a"), net.endpoint("b")
        b.on("ping", lambda m: "pong")

        def client(env):
            return (yield a.request("b", "ping", timeout=2.0))  # == RTT

        proc = env.process(client(env))
        env.run()
        assert proc.ok and proc.value == "pong"
