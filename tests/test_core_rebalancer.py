"""Tests for the proactive AV rebalancer."""

import pytest

from repro.cluster import build_paper_system
from repro.core import AVRebalancer
from repro.core.rebalancer import TAG_REBALANCE


@pytest.fixture
def system():
    return build_paper_system(n_items=1, initial_stock=90.0, seed=0)


ITEM = "item0"


class TestValidation:
    def test_parameter_checks(self, system):
        accel = system.maker.accelerator
        with pytest.raises(ValueError):
            AVRebalancer(accel, interval=0)
        with pytest.raises(ValueError):
            AVRebalancer(accel, surplus_factor=1.0)
        with pytest.raises(ValueError):
            AVRebalancer(accel, needy_factor=1.0)
        with pytest.raises(ValueError):
            AVRebalancer(accel, push_fraction=0.0)


class TestRebalancing:
    def drain_site1(self, system):
        """site1 spends its AV; the maker learns via the transfer."""
        p = system.update("site1", ITEM, -40)  # 30 own + transfer
        system.run()
        assert p.value.committed

    def test_no_push_without_surplus(self, system):
        reb = AVRebalancer(system.maker.accelerator)
        assert reb.rebalance_once() == 0  # balanced bootstrap: 30/30/30

    def test_push_flows_to_believed_poorest(self, system):
        self.drain_site1(system)
        # Maker mints a large surplus.
        p = system.update("site0", ITEM, +100)
        system.run()
        # Beliefs are stale by design (the paper's "may not be current
        # data"): the maker still believes both retailers hold their
        # bootstrap 30, so the watermarks must be set accordingly.
        reb = AVRebalancer(
            system.maker.accelerator, surplus_factor=1.2, needy_factor=0.9
        )
        before = system.site("site1").av_table.get(ITEM)
        sent = reb.rebalance_once()
        system.run()
        assert sent == 1
        assert reb.pushes_sent == 1 and reb.volume_pushed > 0
        assert system.site("site1").av_table.get(ITEM) > before
        assert system.stats.by_tag[TAG_REBALANCE] == 1
        system.check_invariants()

    def test_push_conserves_av(self, system):
        self.drain_site1(system)
        p = system.update("site0", ITEM, +100)
        system.run()
        total_before = system.av_total(ITEM)
        reb = AVRebalancer(
            system.maker.accelerator, surplus_factor=1.2, needy_factor=0.9
        )
        reb.rebalance_once()
        system.run()
        assert system.av_total(ITEM) == total_before

    def test_periodic_loop_reduces_on_demand_transfers(self):
        """With the rebalancer streaming maker mints to retailers, the
        retailers' blocked-on-AV transfers mostly disappear."""

        def run(with_rebalancer):
            system = build_paper_system(n_items=1, initial_stock=90.0, seed=3)
            if with_rebalancer:
                reb = AVRebalancer(
                    system.maker.accelerator, interval=10.0,
                    surplus_factor=1.2, needy_factor=0.9,
                )
                reb.start()

            def driver(env):
                for i in range(30):
                    yield system.update("site0", ITEM, +12)
                    yield env.timeout(5)
                    yield system.update("site1", ITEM, -8)
                    yield env.timeout(5)

            system.env.process(driver(system.env))
            system.run(until=400)
            return sum(r.av_requests for r in system.collector.results)

        assert run(True) < run(False)

    def test_bounced_push_returns_volume(self, system):
        """Pushing to a site that dropped the item bounces back."""
        self.drain_site1(system)
        p = system.update("site0", ITEM, +100)
        system.run()
        # site1 secretly undefines the item (simulates a mid-flight
        # reclassification the maker hasn't heard about).
        system.site("site1").accelerator.av_table.undefine(ITEM)
        maker_before = system.maker.av_table.get(ITEM)
        reb = AVRebalancer(
            system.maker.accelerator, surplus_factor=1.2, needy_factor=0.9
        )
        sent = reb.rebalance_once()
        assert sent == 1
        system.run()
        # Volume came home.
        assert system.maker.av_table.get(ITEM) == maker_before

    def test_crashed_site_pauses_loop(self, system):
        reb = AVRebalancer(system.maker.accelerator, interval=5.0)
        reb.start()
        system.site("site0").crash()
        system.run(until=50)
        assert reb.pushes_sent == 0

    def test_start_idempotent(self, system):
        reb = AVRebalancer(system.maker.accelerator)
        p1 = reb.start()
        p2 = reb.start()
        assert p1 is p2
