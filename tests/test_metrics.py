"""Unit tests for the metrics package."""

import pytest

from repro.core.types import (
    UpdateKind,
    UpdateOutcome,
    UpdateRequest,
    UpdateResult,
)
from repro.experiments.runner import CountedRun, correspondence_reduction
from repro.metrics import (
    AvailabilityTracker,
    GlobalLedger,
    MetricsCollector,
    summarize,
    text_table,
)


def make_result(
    site="site1",
    item="A",
    delta=-5.0,
    kind=UpdateKind.DELAY,
    outcome=UpdateOutcome.COMMITTED,
    local=False,
    issued=0.0,
    finished=1.0,
    av_requests=0,
):
    return UpdateResult(
        request=UpdateRequest(site=site, item=item, delta=delta, issued_at=issued),
        kind=kind,
        outcome=outcome,
        local_only=local,
        finished_at=finished,
        av_requests=av_requests,
    )


class TestGlobalLedger:
    def test_true_value_tracks_deltas(self):
        ledger = GlobalLedger()
        ledger.set_initial("A", 100.0)
        ledger.record_delta("A", -30)
        ledger.record_delta("A", +5)
        assert ledger.true_value("A") == 75.0

    def test_unknown_item_rejected(self):
        with pytest.raises(KeyError):
            GlobalLedger().record_delta("ghost", 1)

    def test_total_and_views(self):
        ledger = GlobalLedger()
        ledger.set_initial("A", 10.0)
        ledger.set_initial("B", 20.0)
        ledger.record_delta("B", -5.0)
        assert list(ledger.items()) == ["A", "B"]
        assert sum(ledger.true_value(i) for i in ledger.items()) == 25.0


class TestMetricsCollector:
    def test_record_aggregates(self):
        c = MetricsCollector()
        c.ledger.set_initial("A", 100.0)
        c.record(make_result(local=True))
        c.record(make_result(outcome=UpdateOutcome.REJECTED))
        c.record(make_result(kind=UpdateKind.IMMEDIATE))
        assert c.total == 3
        assert c.registry.counter("updates.committed").value == 2
        assert c.registry.counter("updates.rejected").value == 1
        # only committed deltas hit the ledger
        assert c.ledger.true_value("A") == 90.0

    def test_latencies_filtering(self):
        """Only committed updates reach the latency histograms."""
        c = MetricsCollector()
        c.ledger.set_initial("A", 100.0)
        c.record(make_result(issued=0, finished=4))
        c.record(make_result(site="site2", issued=0, finished=2))
        c.record(make_result(outcome=UpdateOutcome.REJECTED, issued=0, finished=9))
        c.record(make_result(kind=UpdateKind.IMMEDIATE, issued=0, finished=3))
        latency = c.registry.histogram("update.latency")
        assert (latency.count, latency.max) == (3, 4.0)
        delay = c.registry.histogram("update.latency.delay")
        assert (delay.count, delay.max) == (2, 4.0)
        immediate = c.registry.histogram("update.latency.immediate")
        assert (immediate.count, immediate.max) == (1, 3.0)

    def test_av_requests_counter(self):
        c = MetricsCollector()
        c.ledger.set_initial("A", 100.0)
        c.record(make_result(av_requests=3))
        c.record(make_result(av_requests=2))
        assert c.registry.counter("av.requests").value == 5

    @pytest.mark.parametrize("read_at", [None, 0, 7, 20])
    def test_lazy_private_registry_equals_eager_shared_one(self, read_at):
        """A collector's own registry and one it is handed are both fed
        when read; both must hold the same instruments, fed in the same
        order (float sums included), wherever the read falls."""
        from repro.obs.registry import MetricRegistry

        outcomes = list(UpdateOutcome)
        results = [
            make_result(
                site=f"site{i % 3}",
                delta=(-1.0) ** i * (i + 0.1),
                kind=UpdateKind.DELAY if i % 4 else UpdateKind.IMMEDIATE,
                outcome=(
                    UpdateOutcome.COMMITTED if i % 3 else outcomes[i % len(outcomes)]
                ),
                issued=i * 0.3,
                finished=i * 0.3 + (i % 5) * 0.7,
                av_requests=i % 3,
            )
            for i in range(20)
        ]
        lazy = MetricsCollector()
        eager = MetricsCollector(registry=MetricRegistry())
        for collector in (lazy, eager):
            collector.ledger.set_initial("A", 1000.0)
        for i, result in enumerate(results):
            if i == read_at:
                assert lazy.registry.snapshot() == eager.registry.snapshot()
            lazy.record(result)
            eager.record(result)
        assert lazy.registry.snapshot() == eager.registry.snapshot()
        assert lazy.registry.counter("updates.committed").value == sum(
            r.committed for r in results
        )
        assert lazy.ledger.true_value("A") == eager.ledger.true_value("A")
        assert lazy.results == eager.results


class TestCorrespondenceReduction:
    """The Fig. 6 curve is a run's checkpoints; the reduction is taken
    from the two runs' final totals."""

    def test_final_on_empty(self):
        with pytest.raises(ValueError):
            CountedRun("x").final()

    def test_reduction(self):
        assert correspondence_reduction(25.0, 100.0) == 0.75

    def test_reduction_zero_baseline(self):
        assert correspondence_reduction(0.0, 0.0) == 0.0
        assert correspondence_reduction(3.0, 0.0) == 0.0


class TestLatencySummary:
    def test_summary_values(self):
        s = summarize([1.0, 2.0, 3.0, 4.0])
        assert s.count == 4
        assert s.mean == 2.5
        assert s.p50 == 2.5
        assert s.max == 4.0

    def test_empty(self):
        assert summarize([]).count == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            summarize([-1.0])

    def test_str(self):
        assert "p90" in str(summarize([1.0]))


class TestAvailabilityTracker:
    def test_window_classification(self):
        t = AvailabilityTracker(10.0, 20.0)
        assert not t.in_fault_window(5)
        assert t.in_fault_window(10)
        assert t.in_fault_window(20)
        assert not t.in_fault_window(21)

    def test_open_window(self):
        t = AvailabilityTracker(10.0)
        assert t.in_fault_window(1e9)

    def test_invalid_window(self):
        with pytest.raises(ValueError):
            AvailabilityTracker(10.0, 5.0)

    def test_availability_math(self):
        t = AvailabilityTracker(10.0, 20.0)
        t.record(make_result(issued=5, finished=6))  # normal, ok
        t.record(make_result(issued=15, finished=16))  # fault, ok
        t.record(
            make_result(
                issued=16, finished=17, outcome=UpdateOutcome.REJECTED
            )
        )  # fault, fail
        assert t.availability("site1", False) == 1.0
        assert t.availability("site1", True) == 0.5
        assert t.stats("site1", True).attempted == 2
        assert t.sites() == ["site1"]

    def test_silent_site_fully_available(self):
        t = AvailabilityTracker(0.0)
        assert t.availability("ghost", True) == 1.0


class TestReport:
    def test_text_table_alignment(self):
        out = text_table(["a", "long"], [[1, 2.5], [10, 3.0]])
        lines = out.splitlines()
        assert lines[0] == "a  | long"
        assert lines[1] == "---+-----"
        assert lines[2] == "1  | 2.50"
        assert lines[3] == "10 | 3"

    def test_text_table_title(self):
        out = text_table(["a"], [[1]], title="T")
        assert out.startswith("T\n")

    def test_row_width_mismatch(self):
        with pytest.raises(ValueError):
            text_table(["a", "b"], [[1]])
