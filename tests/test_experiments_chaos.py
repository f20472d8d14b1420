"""Chaos harness: fault schedules must end in convergence + clean audit."""

from repro.cluster import paper_config
from repro.experiments.chaos import (
    FULL_SCENARIOS,
    LOSS_RULES,
    SMALL_SCENARIOS,
    ChaosScenario,
    run_chaos,
    run_chaos_scenario,
)
from repro.net.faults import FaultSchedule


class TestScenarios:
    def test_small_suite_covers_required_schedules(self):
        names = [s.name for s in SMALL_SCENARIOS]
        assert names == [
            "maker-crash", "retailer-crash", "partition-loss", "overload",
        ]
        assert set(names) < {s.name for s in FULL_SCENARIOS}

    def test_schedules_build_for_paper_config(self):
        config = paper_config()
        for scenario in FULL_SCENARIOS:
            schedule = scenario.build(config)
            if scenario.name == "overload":
                # Workload is the adversary: the network stays healthy.
                assert len(schedule) == 0
                continue
            assert len(schedule) > 0
            assert schedule.last_time > 0


class TestChaosRuns:
    def test_maker_crash_converges(self):
        result = run_chaos_scenario(SMALL_SCENARIOS[0], n_updates=45)
        assert result.ok
        assert result.converged
        assert result.report.ok
        assert not result.loss_warnings
        assert "PASS" in result.render()

    def test_partition_loss_exercises_robustness_layer(self):
        result = run_chaos_scenario(SMALL_SCENARIOS[2], n_updates=45)
        assert result.ok
        counters = result.report.counters
        # 5% loss must actually bite — and be absorbed, not warned about.
        assert counters["rel_covered_drops"] > 0
        assert (
            counters["leases_opened"]
            == counters["leases_discharged"] + counters["leases_reverted"]
        )
        for rule in LOSS_RULES:
            assert not result.report.by_rule(rule)

    def test_overload_surge_sheds_degrades_and_recovers(self):
        result = run_chaos_scenario(SMALL_SCENARIOS[3], n_updates=45)
        assert result.ok
        assert not result.extra_failures
        counters = result.report.counters
        # The surge must actually bite: requests shed with retry hints,
        # items demoted to the delay path — and every demotion reversed.
        assert counters["overload_sheds"] > 0
        assert counters["overload_demotions"] > 0
        assert counters["overload_demotions"] == counters["overload_promotions"]
        assert counters["overload_transitions"] > 0

    def test_overload_short_bursts_keep_replicas_on_the_ledger(self, monkeypatch):
        # PR 11's lost update: the overload scenario's own trace, cut into
        # bursts of 40, demotes and promotes often enough that a
        # promotion's reclassify meets a sync push still on the wire for
        # item3. Before quiesce fenced those pushes, the replicas ended 2
        # short of the committed deltas.
        from repro.experiments import chaos

        flash_sale = chaos.FlashSaleWorkload
        monkeypatch.setattr(
            chaos, "FlashSaleWorkload",
            lambda **kw: flash_sale(**{**kw, "burst": 40}),
        )
        result = run_chaos_scenario(
            chaos._OVERLOAD_SCENARIO, n_updates=2000, seed=31, n_items=6
        )
        assert result.converged, result.render()
        assert result.ok

    def test_recover_step_for_a_live_site_is_a_no_op(self):
        # A recover step with no crash before it must not restart the
        # site: the run ends as if there were no schedule, but for the
        # one kernel event of the schedule's own timer.
        stray = run_chaos_scenario(ChaosScenario(
            "stray-recover",
            lambda config: FaultSchedule().recover(60.0, config.retailers[0]),
        ))
        calm = run_chaos_scenario(
            ChaosScenario("calm", lambda config: FaultSchedule())
        )
        assert stray.ok and calm.ok
        assert stray.events_processed == calm.events_processed + 1
        assert stray.report.counters == calm.report.counters
        assert stray.telemetry == {
            **calm.telemetry, "events_processed": stray.events_processed
        }
        assert stray.obs.recorder.fingerprint() == calm.obs.recorder.fingerprint()
        assert stray.render().replace("stray-recover", "calm") == calm.render()

    def test_small_report_aggregates(self):
        report = run_chaos(small=True, n_updates=45)
        assert report.ok
        assert len(report.results) == 4
        assert "4/4" in report.render()

    def test_cli_smoke(self):
        from repro.cli import main

        assert main(["chaos", "--small", "--updates", "30"]) == 0
