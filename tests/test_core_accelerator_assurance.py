"""Unit tests for the accelerator facade and assurance metrics."""

import pytest

from repro.cluster import build_paper_system
from repro.core import (
    InvalidVolume,
    UpdateKind,
    UpdateOutcome,
    assurance_report,
    jain_index,
    max_spread,
)


class TestAccelerator:
    def test_check_routes_by_av_definition(self):
        system = build_paper_system(
            n_items=4, initial_stock=50.0, regular_fraction=0.5
        )
        accel = system.site("site1").accelerator
        assert accel.check("item0") is UpdateKind.DELAY
        assert accel.check("item3") is UpdateKind.IMMEDIATE

    def test_update_counter(self):
        system = build_paper_system(n_items=1, initial_stock=50.0)
        system.update("site1", "item0", -1)
        system.update("site1", "item0", -1)
        system.run()
        assert system.site("site1").accelerator.updates_started == 2

    def test_live_peers_excludes_crashed(self):
        system = build_paper_system(n_items=1, initial_stock=50.0)
        accel = system.site("site1").accelerator
        assert accel.live_peers() == ["site0", "site2"]
        system.site("site0").crash()
        assert accel.live_peers() == ["site2"]

    def test_failed_update_when_site_crashes_midway(self):
        system = build_paper_system(
            n_items=1, initial_stock=90.0, latency_mean=5.0, request_timeout=3.0
        )
        # site1 needs a transfer (AV 30 < 45); crash it mid-request. The
        # in-flight ask times out, and the retry attempt fails loudly
        # because the site itself is dead.
        proc = system.update("site1", "item0", -45)

        def crasher(env):
            yield env.timeout(1)
            system.site("site1").crash()

        system.env.process(crasher(system.env))
        system.run()
        assert proc.ok
        assert proc.value.outcome is UpdateOutcome.FAILED

    def test_update_fails_when_crashed_midflight_without_timeout(self):
        """The crash ends the requester's update, timeout or not: it is
        FAILED, not stuck waiting for a reply to a dead site."""
        system = build_paper_system(
            n_items=1, initial_stock=90.0, latency_mean=5.0
        )
        proc = system.update("site1", "item0", -45)

        def crasher(env):
            yield env.timeout(1)
            system.site("site1").crash()

        system.env.process(crasher(system.env))
        system.run()
        assert proc.ok and proc.value.outcome is UpdateOutcome.FAILED
        assert system.env.owned("site1") == []

    def test_fractional_delta_rejected_before_any_state_moves(self):
        """A volume is a whole number of units: a fractional delta
        raises at once, on the delay and the immediate path alike, and
        leaves every table, the ledger and the request ids as they were."""
        system = build_paper_system(
            n_items=2, initial_stock=50.0, regular_fraction=0.5
        )
        accel = system.site("site1").accelerator
        ledger = system.collector.ledger

        def state():
            return (
                {name: (list(site.store.items()), list(site.av_table.items()))
                 for name, site in sorted(system.sites.items())},
                [(item, ledger.true_value(item)) for item in ledger.items()],
                len(system.collector.results),
                accel.updates_started,
            )

        before = state()
        for item in ("item0", "item1"):  # delay, immediate
            with pytest.raises(InvalidVolume):
                system.update("site1", item, 0.5)
        system.run()
        assert state() == before
        done = system.update("site1", "item0", -1.0)
        system.run()
        assert done.value.request.request_id == 1

    def test_repr(self):
        system = build_paper_system(n_items=1, initial_stock=50.0)
        assert "site1" in repr(system.site("site1").accelerator)


class TestJainIndex:
    def test_perfect_fairness(self):
        assert jain_index([5, 5, 5]) == pytest.approx(1.0)

    def test_single_bearer(self):
        assert jain_index([9, 0, 0]) == pytest.approx(1 / 3)

    def test_empty_and_zero_fair_by_convention(self):
        assert jain_index([]) == 1.0
        assert jain_index([0, 0]) == 1.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            jain_index([1, -1])

    def test_bounds(self):
        vals = [3, 1, 4, 1, 5]
        j = jain_index(vals)
        assert 1 / len(vals) <= j <= 1.0


class TestMaxSpread:
    def test_equal_values(self):
        assert max_spread([4, 4, 4]) == 0.0

    def test_spread(self):
        assert max_spread([2, 4]) == pytest.approx(2 / 3)

    def test_empty_and_zero(self):
        assert max_spread([]) == 0.0
        assert max_spread([0, 0]) == 0.0


class TestAssuranceReport:
    def test_report_fields(self):
        rep = assurance_report(
            retailer_correspondences={"site1": 10, "site2": 11},
            delay_total=100,
            delay_local=80,
            delay_committed=95,
        )
        assert rep.retailer_fairness > 0.99
        assert rep.local_completion_ratio == 0.8
        assert rep.commit_ratio == 0.95
        assert rep.assured

    def test_not_assured_when_unfair(self):
        rep = assurance_report(
            retailer_correspondences={"site1": 100, "site2": 1},
            delay_total=10,
            delay_local=9,
            delay_committed=10,
        )
        assert not rep.assured

    def test_not_assured_when_chatty(self):
        rep = assurance_report(
            retailer_correspondences={"site1": 10, "site2": 10},
            delay_total=100,
            delay_local=10,
            delay_committed=100,
        )
        assert not rep.assured

    def test_empty_run_is_vacuously_assured(self):
        rep = assurance_report({}, 0, 0, 0)
        assert rep.assured
        assert rep.local_completion_ratio == 1.0

    def test_str(self):
        rep = assurance_report({"site1": 1}, 1, 1, 1)
        assert "fairness" in str(rep)
