"""Cross-module integration tests: full runs, faults, trace determinism."""

import pytest

from repro.cluster import build_paper_system
from repro.core import UpdateOutcome
from repro.experiments import make_paper_trace
from repro.workload import run_closed, run_open, split_by_site


class TestPaperScenarioEndToEnd:
    def test_thousand_update_run_invariants(self):
        system = build_paper_system(n_items=10, seed=42)
        trace = make_paper_trace(1000, seed=42, n_items=10)
        results = run_closed(system, trace)
        assert len(results) == 1000
        system.check_invariants()
        committed = sum(1 for r in results if r.committed)
        assert committed / len(results) > 0.9

    def test_trace_fingerprint_deterministic(self):
        """Same seed: the same span tree and the same message stream."""

        def run():
            system = build_paper_system(n_items=5, seed=9, observe=True)
            messages = []

            def on_message(kind, time, fields):
                if kind.startswith("msg."):
                    msg = fields["msg"]
                    messages.append((kind, time, msg.src, msg.dst, msg.kind))

            system.obs.subscribe_fields(on_message)
            trace = make_paper_trace(200, seed=9, n_items=5)
            run_closed(system, trace)
            recorder = system.obs.recorder
            return recorder.fingerprint(), len(recorder), messages

        first = run()
        assert first[1] > 0 and first[2]
        assert run() == first

    def test_av_circulates_maker_to_retailers(self):
        """Net AV flow goes from the minting maker to consuming retailers."""
        system = build_paper_system(n_items=5, seed=1)
        trace = make_paper_trace(600, seed=1, n_items=5)
        run_closed(system, trace)
        maker_granted = system.maker.accelerator.delay.volume_granted
        retailer_granted = sum(
            r.accelerator.delay.volume_granted for r in system.retailers
        )
        assert maker_granted > retailer_granted

    def test_open_and_closed_drivers_commit_same_updates(self):
        """Arrival discipline affects interleaving, not business outcomes
        (this workload never runs globally dry)."""
        trace = make_paper_trace(150, seed=5, n_items=10)

        sys_closed = build_paper_system(n_items=10, seed=5)
        closed = run_closed(sys_closed, trace)

        sys_open = build_paper_system(n_items=10, seed=5)
        open_ = run_open(sys_open, split_by_site(trace), interarrival=3.0)

        assert sum(1 for r in closed if r.committed) == 150
        assert sum(1 for r in open_ if r.committed) == 150
        sys_closed.check_invariants()
        sys_open.check_invariants()


class TestFaultsIntegration:
    def test_partition_isolates_but_local_updates_continue(self):
        system = build_paper_system(
            n_items=2, initial_stock=90.0, seed=0, request_timeout=5.0
        )
        system.network.faults.partition([["site0"], ["site1", "site2"]])

        # Local-AV-covered update at a retailer still commits.
        p1 = system.update("site1", "item0", -20)
        system.run()
        assert p1.value.committed and p1.value.local_only

        # A transfer that must cross the partition can still be served
        # by the same-side peer (site2).
        p2 = system.update("site1", "item0", -35)
        system.run()
        assert p2.value.committed
        assert p2.value.av_requests >= 1

        system.network.faults.heal()
        p3 = system.update("site1", "item0", -30)
        system.run()
        assert p3.value.committed

    def test_maker_crash_recover_cycle(self):
        system = build_paper_system(
            n_items=1, initial_stock=90.0, seed=0, request_timeout=5.0
        )
        ITEM = "item0"
        # Drain retailer AV so the next update needs the maker.
        p = system.update("site1", ITEM, -30)
        system.run()
        assert p.value.committed

        system.site("site0").crash()
        # site2 still has 30 AV; believed-richest will find it after the
        # crashed maker is excluded from live_peers.
        p = system.update("site1", ITEM, -20)
        system.run()
        assert p.value.committed

        # Now the system (minus maker) is nearly dry: a big ask fails.
        p = system.update("site1", ITEM, -35)
        system.run()
        assert p.value.outcome is UpdateOutcome.REJECTED

        system.site("site0").restart()
        p = system.update("site1", ITEM, -35)
        system.run()
        assert p.value.committed
        system.check_invariants()

    def test_crashed_grantor_loses_no_volume(self):
        """AV held by a crashed site is unavailable but not destroyed."""
        system = build_paper_system(
            n_items=1, initial_stock=90.0, seed=0, request_timeout=5.0
        )
        system.site("site0").crash()
        p = system.update("site1", "item0", -50)
        system.run()
        # 30 (own) + 30 (site2) = 60 reachable >= 50 -> commits.
        assert p.value.committed
        # Total AV = 90 - 50 = 40, of which 30 sits at the dead maker.
        assert system.av_total("item0") == 40.0
        assert system.site("site0").av_table.get("item0") == 30.0


class TestMixedCatalogIntegration:
    def test_delay_and_immediate_interleave_cleanly(self):
        system = build_paper_system(
            n_items=4, initial_stock=60.0, regular_fraction=0.5, seed=0
        )
        procs = [
            system.update("site1", "item0", -10),  # delay
            system.update("site2", "item2", -10),  # immediate
            system.update("site0", "item1", +10),  # delay mint
            system.update("site1", "item3", -5),   # immediate
        ]
        system.run()
        assert all(p.value.committed for p in procs)
        system.check_invariants()
        # Tags kept separate for accounting.
        assert system.stats.by_tag["imm"] > 0
        assert system.stats.by_tag.get("av", 0) == 0  # all delay were local
