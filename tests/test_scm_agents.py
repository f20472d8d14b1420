"""Tests for the SCM agents (maker/retailer) and the scenario runner."""

import pytest

from repro.cluster import build_paper_system
from repro.workload import MakerAgent, RetailerAgent, SCMSimulation


def make_system(**kw):
    defaults = dict(n_items=5, initial_stock=200.0, seed=2)
    defaults.update(kw)
    return build_paper_system(**defaults)


class TestRetailerAgent:
    def test_serves_customers(self):
        system = make_system()
        agent = RetailerAgent(
            system, "site1", system.rngs.stream("orders"), mean_interarrival=5.0
        )
        system.env.process(agent.run(until=500.0))
        system.run()
        assert agent.report.served > 10
        assert agent.report.revenue_units > 0
        assert agent.report.service_level > 0.5

    def test_lost_sales_on_exhaustion(self):
        system = make_system(n_items=1, initial_stock=30.0)
        agent = RetailerAgent(
            system, "site1", system.rngs.stream("orders"),
            mean_interarrival=2.0, max_quantity=10,
        )
        system.env.process(agent.run(until=400.0))
        system.run()
        assert agent.report.lost > 0  # demand far exceeds 30 units
        system.check_invariants()

    def test_validation(self):
        system = make_system()
        with pytest.raises(ValueError):
            RetailerAgent(system, "site1", system.rngs.stream("x"),
                          mean_interarrival=0)


class TestMakerAgent:
    def test_manufactures(self):
        system = make_system()
        agent = MakerAgent(system, system.rngs.stream("mfg"), interval=10.0)
        system.env.process(agent.run(until=300.0))
        system.run()
        assert agent.manufactured_units > 0
        # Minting raises the maker's AV above its bootstrap share.
        total_av = sum(
            system.av_total(item) for item in system.catalog.items()
        )
        initial_av = sum(
            p.initial_stock for p in system.catalog
        )
        assert total_av > initial_av * 0.9

    def test_validation(self):
        system = make_system()
        with pytest.raises(ValueError):
            MakerAgent(system, system.rngs.stream("x"), interval=0)


class TestSCMSimulation:
    def test_full_scenario_outcome(self):
        system = make_system(n_retailers=2, regular_fraction=0.8, n_items=10)
        sim = SCMSimulation(system, mean_interarrival=4.0, maker_interval=8.0)
        outcome = sim.run(until=800.0)
        assert outcome.total_served > 50
        assert 0.0 <= outcome.service_level <= 1.0
        assert outcome.local_ratio > 0.3
        assert set(outcome.retailer_reports) == {"site1", "site2"}
        system.check_invariants()

    def test_local_ratio_without_delay_updates(self):
        """No regular items means no delay updates: nothing needed the
        network that could have avoided it, so the ratio is 1.0."""
        system = make_system(regular_fraction=0.0)
        outcome = SCMSimulation(system, mean_interarrival=10.0).run(until=100.0)
        assert system.collector.total > 0
        assert outcome.local_ratio == 1.0

    def test_quiescent_after_run(self):
        """The drain pass leaves no in-flight protocol state."""
        system = make_system(regular_fraction=0.5)
        sim = SCMSimulation(system, mean_interarrival=5.0)
        sim.run(until=300.0)
        for site in system.sites.values():
            assert not site.accelerator.immediate._pending
            for item in system.catalog.non_regular_items():
                assert not site.accelerator.locks.is_locked(item)

    def test_zipf_demand(self):
        system = make_system(n_items=10)
        sim = SCMSimulation(system, mean_interarrival=3.0, zipf_skew=1.3)
        outcome = sim.run(until=400.0)
        assert outcome.total_served > 0


class TestReplenishment:
    """The paper's §1.1 loop: out-of-stock retailers order from the maker."""

    def test_replenishment_fills_backorders(self):
        system = make_system(n_items=1, initial_stock=30.0)
        agent = RetailerAgent(
            system, "site1", system.rngs.stream("orders"),
            mean_interarrival=2.0, max_quantity=10, replenish=True,
        )
        maker = MakerAgent(system, system.rngs.stream("mfg"), interval=1e9)
        system.env.process(agent.run(until=400.0))
        system.run()
        assert agent.report.replenishments_requested > 0
        assert agent.report.backorders_filled > 0
        assert maker.replenishments_served == agent.report.backorders_filled
        system.check_invariants()

    def test_replenishment_improves_service_level(self):
        def run(replenish):
            system = make_system(n_items=2, initial_stock=40.0, seed=5)
            sim = SCMSimulation(
                system, mean_interarrival=2.5, maker_interval=1e9,
                max_quantity=8, replenish=replenish,
            )
            return sim.run(until=500.0).service_level

        assert run(True) > run(False) + 0.2

    def test_no_replenishment_when_maker_crashed(self):
        system = make_system(n_items=1, initial_stock=20.0)
        MakerAgent(system, system.rngs.stream("mfg"), interval=1e9)
        agent = RetailerAgent(
            system, "site1", system.rngs.stream("orders"),
            mean_interarrival=2.0, max_quantity=10, replenish=True,
        )
        system.site("site0").crash()
        system.env.process(agent.run(until=200.0))
        system.run()
        assert agent.report.replenishments_requested == 0
        assert agent.report.lost > 0

    def test_validation(self):
        system = make_system()
        with pytest.raises(ValueError):
            RetailerAgent(
                system, "site1", system.rngs.stream("x"),
                replenish=True, replenish_batch=0.5,
            )
