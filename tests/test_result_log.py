"""The result log's contract: columns in, equal tuples out.

:class:`~repro.metrics.collector.ResultLog` keeps up to ``CHUNK``
results as the recorded tuples and packs the rest into columns; every
read must give back tuples equal to the recorded ones, ``repr`` for
``repr``, with the enum members and ``bool`` restored. The drivers
return a live view of the log, which must equal what they saw
completing.
"""

import gc
import tracemalloc

import pytest

from repro.cluster import DistributedSystem, paper_config
from repro.core.types import UpdateKind, UpdateOutcome, UpdateRequest, UpdateResult
from repro.experiments.fig6 import make_paper_trace
from repro.metrics.collector import CHUNK, FIELDS, MetricsCollector, ResultLog
from repro.workload.driver import run_closed, run_open, split_by_site

ITEMS = ("a", "b", "c")
LENGTHS = (0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 3000)


def make_result(i: int) -> UpdateResult:
    """The i-th of a stream that covers every field's variants: int and
    float deltas, both kinds, every outcome, SHED with a retry-after."""
    outcomes = tuple(UpdateOutcome)
    outcome = outcomes[i % len(outcomes)]
    delta = -(i % 7) if i % 2 else -0.5 * (i % 5)
    return UpdateResult(
        UpdateRequest(f"site{i % 4}", ITEMS[i % 3], delta,
                      issued_at=i * 0.25, request_id=10_000 + i),
        UpdateKind.DELAY if i % 3 else UpdateKind.IMMEDIATE,
        outcome,
        local_only=i % 5 == 0,
        finished_at=i * 0.25 + (i % 11) / 3,
        av_requests=i % 4,
        av_obtained=float(i % 6),
        retry_after=1.5 + i % 3 if outcome is UpdateOutcome.SHED else 0.0,
    )


def recorded(n: int):
    """A collector that recorded ``make_result(0..n-1)``, and the list."""
    collector = MetricsCollector()
    for item in ITEMS:
        collector.ledger.set_initial(item, 0.0)
    expected = [make_result(i) for i in range(n)]
    for result in expected:
        collector.record(result)
    return collector, expected


def assert_same(got, expected):
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == e
        assert repr(g) == repr(e)
        assert type(g) is UpdateResult and type(g.request) is UpdateRequest
        assert g.kind is e.kind and g.outcome is e.outcome
        assert type(g.local_only) is bool
        assert type(g.request.delta) is type(e.request.delta)


@pytest.mark.parametrize("n", LENGTHS)
class TestReadsGiveTheRecordedTuples:
    def test_iteration_and_equality(self, n):
        collector, expected = recorded(n)
        log = collector.results
        assert len(log) == n == collector.total
        assert_same(list(log), expected)
        unpacked = n - n % CHUNK  # the tail reads as the recorded objects
        assert all(g is e for g, e in zip(list(log)[unpacked:], expected[unpacked:]))
        assert log == expected and expected == log
        assert not (log != expected)
        assert log == tuple(expected)
        if n:
            assert log != expected[:-1]
            assert log != [*expected[:-1], make_result(n)]

    def test_index_negative_index_and_slices(self, n):
        collector, expected = recorded(n)
        log = collector.results
        assert_same([log[i] for i in range(n)], expected)
        assert_same([log[-i] for i in range(1, n + 1)], expected[::-1])
        for bad in (n, -n - 1):
            with pytest.raises(IndexError):
                log[bad]
        for cut in (
            slice(None), slice(1, None), slice(None, -1), slice(5, 2),
            slice(CHUNK - 3, CHUNK + 3), slice(None, None, 7),
            slice(None, None, -3), slice(-CHUNK - 2, None),
        ):
            assert_same(log[cut], expected[cut])

    def test_columns_read_the_fields(self, n):
        collector, expected = recorded(n)
        log = collector.results
        for name in FIELDS:
            source = "request" if name in UpdateRequest._fields else None
            want = [
                getattr(r.request if source else r, name) for r in expected
            ]
            got = list(log.column(name))
            assert got == want and list(map(type, got)) == list(map(type, want))
            assert list(log.column(name, start=n // 2)) == want[n // 2:]
        assert list(log.columns("item", "outcome", start=1)) == [
            (r.request.item, r.outcome) for r in expected[1:]
        ]


def test_since_is_a_live_view():
    collector, expected = recorded(CHUNK - 5)
    log = collector.results
    view = log.since(CHUNK - 10)
    assert_same(list(view), expected[CHUNK - 10:])
    for i in range(CHUNK - 5, 2 * CHUNK + 7):  # packs twice
        collector.record(make_result(i))
        expected.append(make_result(i))
    assert len(view) == len(expected) - (CHUNK - 10)
    assert view == expected[CHUNK - 10:]
    assert_same([view[0], view[-1]], [expected[CHUNK - 10], expected[-1]])
    assert view.since(3) == expected[CHUNK - 7:]
    assert list(view.column("request_id")) == [
        r.request.request_id for r in expected[CHUNK - 10:]
    ]
    assert log.since(len(log)) == []
    with pytest.raises(IndexError):
        log.since(len(log) + 1)


def test_an_iterator_covers_the_records_there_were_when_it_was_made():
    collector, expected = recorded(CHUNK - 2)
    for start in (0, CHUNK - 4):
        rows = iter(collector.results.since(start))
        ids = collector.results.column("request_id", start=start)
        for i in range(len(expected), len(expected) + CHUNK):  # packs
            collector.record(make_result(i))
        assert_same(list(rows), expected[start:])
        assert list(ids) == [r.request.request_id for r in expected[start:]]
        expected = list(collector.results)


def test_an_empty_log_equals_an_empty_sequence():
    assert ResultLog() == [] and ResultLog() == ()
    with pytest.raises(TypeError):
        hash(ResultLog())


def test_a_fold_across_packs_equals_one_fold_at_the_end():
    """Reads between packs fold the records from the cursor on: the
    instruments end as one fold of the whole log leaves them."""
    stepwise, expected = recorded(0)
    for i in range(3 * CHUNK + 5):
        stepwise.record(make_result(i))
        if i % 700 == 0:
            stepwise.registry.snapshot()
    at_end, _ = recorded(3 * CHUNK + 5)
    assert stepwise.registry.snapshot() == at_end.registry.snapshot()
    committed = [r for r in at_end.results if r.committed]
    latency = at_end.registry.histogram("update.latency").summary()
    assert latency["count"] == len(committed)


def _on_complete_and_log(drive):
    seen = []
    results = drive(lambda i, event, result: seen.append(result))
    return seen, results


def test_run_open_returns_what_it_saw_complete_on_the_pinned_2pc_run():
    system = DistributedSystem.build(paper_config(
        n_items=10, n_retailers=2, regular_fraction=0.0, seed=0,
    ))
    streams = split_by_site(make_paper_trace(600, 0, n_items=10, n_retailers=2))
    seen, results = _on_complete_and_log(
        lambda hook: run_open(system, streams, interarrival=0.5, on_complete=hook)
    )
    assert len(seen) == 600
    assert results == seen
    assert_same(list(results), seen)


def test_run_closed_returns_what_it_saw_complete_on_the_pinned_wide_episode():
    system = DistributedSystem.build(paper_config(n_items=10, n_retailers=8, seed=0))
    trace = make_paper_trace(3000, 0, n_items=10, n_retailers=8)
    seen, results = _on_complete_and_log(
        lambda hook: run_closed(system, trace, on_complete=hook)
    )
    assert len(seen) == 3000
    assert results == seen
    assert_same(list(results), seen)
    # A second drive on the same system returns only its own results.
    more, again = _on_complete_and_log(
        lambda hook: run_closed(system, trace[:50], on_complete=hook)
    )
    assert again == more and len(again) == 50
    assert system.collector.results == seen + more


#: retained bytes per result over the 20 000-update 8-retailer episode:
#: 273 B with an UpdateResult and an UpdateRequest per update in both the
#: collector's and the driver's list, 106 B with the columnar log
BYTES_PER_RESULT = 128


def test_retained_bytes_per_result_are_bounded():
    """Everything a 20 000-update ``run_closed`` keeps, per result."""
    system = DistributedSystem.build(paper_config(n_items=10, n_retailers=8, seed=0))
    trace = make_paper_trace(20_000, 0, n_items=10, n_retailers=8)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = run_closed(system, trace)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(results) == 20_000
    assert retained / len(results) <= BYTES_PER_RESULT
