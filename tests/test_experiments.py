"""Tests for the experiment harness (small sizes; benches run the real ones)."""

import pytest

from repro.experiments import (
    Checkpoint,
    checkpoint_schedule,
    make_paper_trace,
    run_counted,
    run_fault_experiment,
    run_fig6,
    run_latency_experiment,
    run_table1,
)
from repro.experiments.sweep import (
    SWEEP_HEADERS,
    sweep_av_fraction,
    sweep_items,
    sweep_rows,
)
from repro.cluster import DistributedSystem, paper_config


class TestCheckpointSchedule:
    def test_regular_schedule(self):
        assert checkpoint_schedule(100, 25) == [25, 50, 75, 100]

    def test_uneven_includes_final(self):
        assert checkpoint_schedule(105, 25) == [25, 50, 75, 100, 105]

    def test_validation(self):
        with pytest.raises(ValueError):
            checkpoint_schedule(0, 10)
        with pytest.raises(ValueError):
            checkpoint_schedule(10, 0)


class TestRunCounted:
    def test_checkpoints_sampled(self):
        trace = make_paper_trace(60, seed=0, n_items=5)
        system = DistributedSystem.build(paper_config(n_items=5, seed=0))
        run = run_counted(system, trace, "x", checkpoints=[20, 40, 60])
        assert [cp.updates for cp in run.checkpoints] == [20, 40, 60]
        assert len(run.results) == 60
        assert isinstance(run.final(), Checkpoint)

    def test_checkpoint_beyond_trace_rejected(self):
        trace = make_paper_trace(10, seed=0, n_items=5)
        system = DistributedSystem.build(paper_config(n_items=5, seed=0))
        with pytest.raises(ValueError):
            run_counted(system, trace, "x", checkpoints=[11])


class TestFig6:
    def test_structure_and_claims_small(self):
        result = run_fig6(n_updates=300, seed=0, n_items=10)
        assert result.reduction > 0.4
        assert result.local_ratio > 0.5
        corr = [cp.total_correspondences for cp in result.proposal.checkpoints]
        assert all(b >= a for a, b in zip(corr, corr[1:]))
        final = result.conventional.final()
        assert final.total_correspondences / final.updates == 1.0
        assert "Fig. 6" in result.render()

    def test_same_seed_reproduces(self):
        a = run_fig6(n_updates=200, seed=3, n_items=10)
        b = run_fig6(n_updates=200, seed=3, n_items=10)
        assert a.proposal.checkpoints == b.proposal.checkpoints
        assert a.conventional.checkpoints == b.conventional.checkpoints

    def test_different_seeds_differ(self):
        a = run_fig6(n_updates=200, seed=3, n_items=10)
        b = run_fig6(n_updates=200, seed=4, n_items=10)
        assert [cp.total_correspondences for cp in a.proposal.checkpoints] != [
            cp.total_correspondences for cp in b.proposal.checkpoints
        ]


class TestTable1:
    def test_structure_and_claims_small(self):
        result = run_table1(n_updates=400, seed=0, n_items=10)
        report = result.assurance()
        assert report.retailer_fairness > 0.9
        final = result.proposal.final()
        assert set(final.per_site) == {"site0", "site1", "site2"}
        assert "Table 1" in result.render()

    def test_growth_below_conventional(self):
        result = run_table1(n_updates=400, seed=0, n_items=10)
        for retailer in result.retailers:
            assert result.per_site_growth(retailer) < 0.5

    def test_last_checkpoint_is_the_last_update(self):
        # 125 is not a multiple of the default step (12): the table must
        # still end where the results do.
        result = run_table1(n_updates=125)
        assert result.proposal.final().updates == 125
        assert len(result.proposal.results) == 125

    def test_columns_are_fig6s_curve(self):
        """Table 1 and Fig. 6 read one simulation: same run, and each
        per-site column set adds up to the total it splits."""
        checkpoints = checkpoint_schedule(130, 20)
        table = run_table1(n_updates=130, seed=5, checkpoints=checkpoints)
        figure = run_fig6(n_updates=130, seed=5, checkpoints=checkpoints)
        assert table.proposal.results == figure.proposal.results
        assert table.replicas == figure.replicas
        assert figure.proposal.final().total_correspondences > 0
        for table_run, figure_run, sites_per_correspondence in (
            # a proposal correspondence has two sites; a conventional
            # one a site and the server, which is no column of the table
            (table.proposal, figure.proposal, 2),
            (table.conventional, figure.conventional, 1),
        ):
            assert table_run.checkpoints == figure_run.checkpoints
            for cp in table_run.checkpoints:
                assert sum(cp.per_site.values()) == (
                    sites_per_correspondence * cp.total_correspondences
                )


#: the paper's shape at n = 1000 over seeds 0-9 (EXPERIMENTS.md, "The
#: paper's shape, gated"). The bands were set once from the measured
#: numbers; a change that falls outside one is a finding to explain,
#: never a reason to widen it.
SHAPE_SEEDS = range(10)
REDUCTION_MEDIAN_BAND = (0.74, 0.81)  # measured median 0.774
REDUCTION_FLOOR = 0.68                # measured minimum 0.709
LOCAL_FLOOR = 0.80                    # measured 0.832-0.867
JAIN_FLOOR = 0.99                     # measured 0.9972-1.0000
LATE_GROWTH_CEILING = 0.40            # measured 0.092-0.32 corr/update


@pytest.fixture(scope="module")
def fig6_runs():
    return [run_fig6(n_updates=1000, seed=seed) for seed in SHAPE_SEEDS]


@pytest.fixture(scope="module")
def table1_runs():
    return [run_table1(n_updates=1000, seed=seed) for seed in SHAPE_SEEDS]


class TestPaperShape:
    """The paper's contract over ten seeds: a ≈75 % correspondence
    reduction with mostly local completion (Fig. 6), and retailer counts
    that are almost the same and grow slowly (Table 1)."""

    def test_reduction_median_sits_in_its_band(self, fig6_runs):
        reductions = sorted(r.reduction for r in fig6_runs)
        median = (reductions[4] + reductions[5]) / 2
        low, high = REDUCTION_MEDIAN_BAND
        assert low <= median <= high, reductions

    def test_every_seed_clears_the_floors(self, fig6_runs):
        for seed, result in zip(SHAPE_SEEDS, fig6_runs):
            assert result.reduction >= REDUCTION_FLOOR, seed
            assert result.local_ratio >= LOCAL_FLOOR, seed

    def test_conventional_pays_one_correspondence_per_update(self, fig6_runs):
        for result in fig6_runs:
            checkpoints = result.conventional.checkpoints
            assert all(
                cp.total_correspondences == cp.updates for cp in checkpoints
            )
            final = checkpoints[-1]
            assert final.total_correspondences / final.updates == 1.0

    def test_retailers_stay_even_and_grow_slowly(self, table1_runs):
        for seed, result in zip(SHAPE_SEEDS, table1_runs):
            assert result.assurance().retailer_fairness >= JAIN_FLOOR, seed
            for retailer in result.retailers:
                growth = result.per_site_growth(retailer)
                assert growth <= LATE_GROWTH_CEILING, (seed, retailer)


class TestMakePaperTrace:
    def test_balanced_defaults_for_more_retailers(self):
        trace = make_paper_trace(100, seed=0, n_items=5, n_retailers=4)
        maker_deltas = [e.delta for e in trace if e.site == "site0"]
        # increase cap defaults to 4 x 10% = 40% of initial (100) = 40
        assert max(maker_deltas) > 20

    def test_trace_is_deterministic(self):
        a = make_paper_trace(50, seed=1, n_items=5)
        b = make_paper_trace(50, seed=1, n_items=5)
        assert a == b


class TestFaultExperiment:
    def test_availability_ordering(self):
        result = run_fault_experiment(
            n_updates=240, fault_start=150.0, fault_end=500.0, seed=0
        )
        prop = result.retailer_availability_during_fault(
            "proposal", ["site1", "site2"]
        )
        conv = result.retailer_availability_during_fault(
            "centralized", ["site1", "site2"]
        )
        assert prop > conv
        assert conv == 0.0
        assert len(result.rows()) == 6


class TestLatencyExperiment:
    def test_proposal_faster(self):
        result = run_latency_experiment(n_updates=240, seed=0)
        assert result.summaries["proposal"].mean < result.summaries[
            "centralized"
        ].mean
        assert result.speedup() > 2.0


class TestSweep:
    def test_items_sweep_rows(self):
        points = sweep_items(item_counts=(5, 20), n_updates=200, seed=0)
        rows = sweep_rows(points)
        assert len(rows) == 2
        assert len(rows[0]) == len(SWEEP_HEADERS)
        assert points[1].reduction >= points[0].reduction - 0.1

    def test_every_point_checks_the_proposals_invariants(self, monkeypatch):
        def broken(self):
            raise AssertionError("invariants checked")

        monkeypatch.setattr(DistributedSystem, "check_invariants", broken)
        with pytest.raises(AssertionError, match="invariants checked"):
            sweep_av_fraction(fractions=(0.5,), n_updates=60)


class TestPartitionExperiment:
    def test_partition_better_than_crash_for_retailers(self):
        from repro.experiments import run_partition_experiment

        part = run_partition_experiment(
            n_updates=240, fault_start=150.0, fault_end=500.0, seed=0
        )
        crash = run_fault_experiment(
            n_updates=240, fault_start=150.0, fault_end=500.0, seed=0
        )
        retailers = ["site1", "site2"]
        part_avail = part.retailer_availability_during_fault(
            "proposal", retailers
        )
        crash_avail = crash.retailer_availability_during_fault(
            "proposal", retailers
        )
        # With the maker partitioned (not crashed) the retailers can
        # still trade AV with each other.
        assert part_avail >= crash_avail
        assert part.retailer_availability_during_fault(
            "centralized", retailers
        ) == 0.0
