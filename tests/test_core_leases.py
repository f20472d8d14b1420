"""AV grant leases: granted-but-unacked volume reverts, never vanishes."""

import pytest

from repro.cluster import build_paper_system
from repro.net import ReliabilityParams
from repro.net.message import Message
from repro.obs.hub import EVENT_KINDS

PARAMS = ReliabilityParams(
    ack_timeout=3.0,
    backoff=2.0,
    jitter=0.0,
    max_attempts=2,
    probe_interval=4.0,
    lease_timeout=10.0,
)

ITEM = "item0"


def make_system(**kw):
    defaults = dict(
        n_items=1,
        n_retailers=1,  # transfers can only target the maker
        initial_stock=100.0,
        seed=0,
        request_timeout=5.0,
        max_rounds=1,
        reliability=PARAMS,
    )
    defaults.update(kw)
    return build_paper_system(**defaults)


class _Recorder:
    """A subscriber on a real hub capturing lease lifecycle events."""

    def __init__(self, obs):
        obs.subscribe_fields(
            self._on_emit, [k for k in EVENT_KINDS if k.startswith("av.lease.")]
        )
        self.events = []

    def _on_emit(self, name, now, fields):
        self.events.append((name, fields))

    def names(self):
        return [name for name, _ in self.events]


class TestLeaseLifecycle:
    def test_grant_transfer_ack_discharges(self):
        system = make_system()
        maker = system.site("site0").accelerator
        proc = system.update("site1", ITEM, -60)  # local AV is 50: gather
        system.run()
        assert proc.value.committed
        assert maker.leases.opened == 1
        assert maker.leases.discharged == 1
        assert maker.leases.reverted == 0
        assert maker.leases.open_leases == 0
        # AV fully accounted: maker gave 10, site1 consumed 60 of 60.
        assert system.av_total(ITEM) == pytest.approx(40.0)

    def test_lost_reply_reverts_lease(self):
        system = make_system()
        faults = system.network.faults
        maker = system.site("site0").accelerator
        av_before = maker.av_table.get(ITEM)
        # Forward path clean (the request arrives, the grant happens);
        # reply path dead (the granted volume never reaches site1).
        faults.link_down("site0", "site1")
        proc = system.update("site1", ITEM, -60)
        system.run(until=30.0)
        assert proc.value is not None and not proc.value.committed
        assert maker.leases.opened == 1
        faults.link_up("site0", "site1")
        system.run()
        # The probe's definitive "not received" reclaimed the volume.
        assert maker.leases.reverted == 1
        assert maker.leases.open_leases == 0
        assert maker.av_table.get(ITEM) == pytest.approx(av_before)
        assert system.av_total(ITEM) == pytest.approx(100.0)

    def test_ack_racing_expiry_resolves_once(self):
        # lease_timeout between the one-way and round-trip latency: the
        # expiry probe departs while the ack is still in flight.
        params = ReliabilityParams(
            ack_timeout=3.0, jitter=0.0, probe_interval=4.0, lease_timeout=1.5
        )
        system = make_system(reliability=params)
        maker = system.site("site0").accelerator
        proc = system.update("site1", ITEM, -60)
        system.run()
        assert proc.value.committed
        # The ack won: exactly one resolution, no revert, no double-mint.
        assert maker.leases.opened == 1
        assert maker.leases.discharged == 1
        assert maker.leases.reverted == 0
        assert system.av_total(ITEM) == pytest.approx(40.0)

    def test_ack_after_revert_raises_conflict(self):
        system = make_system()
        maker = system.site("site0").accelerator
        recorder = _Recorder(maker.obs)
        lease = maker.leases.grant(ITEM, 5.0, "site1")
        maker.leases._revert(lease)
        maker.leases._handle_ack(
            Message(src="site1", dst="site0", kind="av.lease.ack",
                    payload={"lease": lease.lease_id})
        )
        assert recorder.names() == [
            "av.lease.open", "av.lease.revert", "av.lease.conflict"
        ]

    def test_resolution_is_idempotent(self):
        system = make_system()
        maker = system.site("site0").accelerator
        lease = maker.leases.grant(ITEM, 5.0, "site1")
        assert maker.leases.discharge(lease.lease_id)
        assert not maker.leases.discharge(lease.lease_id)
        maker.leases._revert(lease)  # already resolved: no-op
        assert maker.leases.reverted == 0
        assert maker.leases.discharged == 1


class TestHolderSide:
    def test_duplicate_leased_push_not_reapplied(self):
        system = make_system()
        maker = system.site("site0")
        s1 = system.site("site1")
        av_before = s1.accelerator.av_table.get(ITEM)
        lease = maker.accelerator.leases.grant(ITEM, 5.0, "site1")
        maker.accelerator.av_table.take(ITEM, 5.0)
        payload = {
            "item": ITEM,
            "amount": 5.0,
            "sender_av": maker.accelerator.av_table.get(ITEM),
            "lease": lease.lease_id,
        }
        maker.endpoint.send("site1", "av.push", payload, tag="av")
        maker.endpoint.send("site1", "av.push", payload, tag="av")
        system.run()
        # Applied once, acked twice, discharged once.
        assert s1.accelerator.av_table.get(ITEM) == pytest.approx(av_before + 5.0)
        assert s1.accelerator.leases.acks_sent == 2
        assert maker.accelerator.leases.discharged == 1
        assert system.av_total(ITEM) == pytest.approx(100.0)

    def test_receive_records_receipt_once(self):
        system = make_system()
        lt = system.site("site1").accelerator.leases
        assert lt.receive("site0", 7) is True
        assert lt.receive("site0", 7) is False
        system.run()
        assert lt.acks_sent == 2

    def test_outstanding_view(self):
        system = make_system()
        lt = system.site("site0").accelerator.leases
        lt.grant(ITEM, 5.0, "site1")
        lt.grant(ITEM, 2.5, "site1")
        assert lt.outstanding() == pytest.approx(7.5)
        assert lt.outstanding(ITEM) == pytest.approx(7.5)
        assert lt.outstanding("other") == 0.0


class TestSanitizerIntegration:
    def test_clean_run_audits_clean(self):
        system = make_system(sanitize=True)
        proc = system.update("site1", ITEM, -60)
        system.run()
        assert proc.value.committed
        report = system.sanitizer.finish()
        assert report.ok
        assert not report.by_rule("lease.unresolved")
        assert report.counters["leases_opened"] == 1
        assert report.counters["leases_discharged"] == 1

    def test_leased_loss_is_covered_not_warned(self):
        system = make_system(sanitize=True)
        faults = system.network.faults
        faults.link_down("site0", "site1")
        system.update("site1", ITEM, -60)
        system.run(until=30.0)
        faults.link_up("site0", "site1")
        system.run()
        report = system.sanitizer.finish()
        assert report.ok
        # The dropped grant reply was lease-covered: counted, not warned.
        assert report.counters["lease_covered_drops"] == 1
        assert not report.by_rule("av.grant-lost")
        assert report.counters["leases_reverted"] == 1
