"""Behavioural tests for the Immediate Update (primary-copy) protocol."""

import gc
import hashlib
import sys
from collections import Counter

import pytest

from repro.cluster import DistributedSystem, build_paper_system, paper_config
from repro.core import UpdateKind, UpdateOutcome
from repro.db.locks import LockManager
from repro.experiments.fig6 import make_paper_trace
from repro.workload.driver import run_open, split_by_site


@pytest.fixture
def system():
    # 2 items, both non-regular -> every update is Immediate.
    return build_paper_system(
        n_items=2, initial_stock=50.0, regular_fraction=0.0, seed=0
    )


ITEM = "item0"


def run_one(system, site, item, delta):
    proc = system.update(site, item, delta)
    system.run()
    assert proc.ok
    return proc.value


#: Python calls of the pinned open-loop 2PC run (see
#: ``TestContention.test_open_loop_2pc_python_calls_are_pinned``)
CALLS_2PC = 68299


def open_loop_2pc_calls():
    """Build the pinned 600-update open-loop 2PC run and count the
    Python calls ``run_open`` makes; returns the system and the count."""
    system = DistributedSystem.build(paper_config(
        n_items=10, n_retailers=2, regular_fraction=0.0, seed=0,
    ))
    streams = split_by_site(make_paper_trace(600, 0, n_items=10, n_retailers=2))
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # A cyclic collection would finalise whatever suspended generators
    # the process left behind, inside the count, at a point set by
    # everything allocated before this call.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        run_open(system, streams, interarrival=0.5)
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return system, calls


class TestCommitPath:
    def test_routing_via_checking_function(self, system):
        accel = system.site("site1").accelerator
        assert accel.check(ITEM) is UpdateKind.IMMEDIATE

    def test_commit_updates_every_replica(self, system):
        result = run_one(system, "site1", ITEM, -7)
        assert result.committed and result.kind is UpdateKind.IMMEDIATE
        assert not result.local_only
        for site in system.sites.values():
            assert site.value(ITEM) == 43.0
        system.check_invariants()

    def test_message_cost_is_4_per_peer_pair(self, system):
        run_one(system, "site1", ITEM, -7)
        # 3 sites: 2 peers x (prepare+ready+commit+ack) = 8 messages.
        assert system.stats.sent_total == 8
        assert system.stats.correspondences_total == 4.0
        assert set(system.stats.by_tag) == {"imm"}

    def test_coordinator_at_base_works_too(self, system):
        result = run_one(system, "site0", ITEM, +10)
        assert result.committed
        for site in system.sites.values():
            assert site.value(ITEM) == 60.0

    def test_locks_released_after_commit(self, system):
        run_one(system, "site1", ITEM, -7)
        for site in system.sites.values():
            assert not site.accelerator.locks.is_locked(ITEM)


class TestAbortPath:
    def test_negative_result_aborts_globally(self, system):
        result = run_one(system, "site2", ITEM, -51)
        assert result.outcome is UpdateOutcome.ABORTED
        for site in system.sites.values():
            assert site.value(ITEM) == 50.0
            assert not site.accelerator.locks.is_locked(ITEM)

    def test_abort_then_commit_sequence(self, system):
        run_one(system, "site2", ITEM, -51)
        result = run_one(system, "site2", ITEM, -50)
        assert result.committed
        for site in system.sites.values():
            assert site.value(ITEM) == 0.0


class TestContention:
    def test_concurrent_updates_same_item_all_commit(self, system):
        """Two racing coordinators: no deadlock, serialized outcome."""
        p1 = system.update("site1", ITEM, -5)
        p2 = system.update("site2", ITEM, -5)
        system.run()
        assert p1.ok and p2.ok
        outcomes = {p1.value.outcome, p2.value.outcome}
        assert outcomes == {UpdateOutcome.COMMITTED}
        for site in system.sites.values():
            assert site.value(ITEM) == 40.0

    def test_concurrent_updates_different_items_parallel(self, system):
        p1 = system.update("site1", "item0", -5)
        p2 = system.update("site2", "item1", -5)
        system.run()
        assert p1.value.committed and p2.value.committed
        assert system.site("site0").value("item0") == 45.0
        assert system.site("site0").value("item1") == 45.0

    def test_many_racing_updates_serialize_correctly(self, system):
        procs = [system.update(f"site{(i % 2) + 1}", ITEM, -2) for i in range(10)]
        system.run()
        committed = sum(1 for p in procs if p.value.committed)
        assert committed == 10
        for site in system.sites.values():
            assert site.value(ITEM) == 30.0
        system.check_invariants()

    def test_contention_resolves_by_queuing_not_retrying(self, system):
        system.update("site1", ITEM, -5)
        system.update("site2", ITEM, -5)
        system.run()
        total_retries = sum(
            s.accelerator.immediate.retries for s in system.sites.values()
        )
        assert total_retries == 0  # canonical-order locking: waits, no aborts

    def test_open_loop_2pc_is_pinned_event_for_event(self, monkeypatch):
        """The benchmark's immediate-2pc shape: no regular item, per-site
        open-loop streams whose 2PC rounds overlap and queue on locks.
        Every value was computed before the envelope / vote fast paths
        landed; any reordering of same-timestamp work moves them."""
        waits = []
        acquire = LockManager.acquire

        def counted(self, *args, **kwargs):
            event = acquire(self, *args, **kwargs)
            if not event.triggered:
                waits.append(args[0])
            return event

        monkeypatch.setattr(LockManager, "acquire", counted)
        system = DistributedSystem.build(paper_config(
            n_items=10, n_retailers=2, regular_fraction=0.0, seed=0,
        ))
        trace = make_paper_trace(600, 0, n_items=10, n_retailers=2)
        run_open(system, split_by_site(trace), interarrival=0.5)
        rows = [
            (r.request.site, r.request.request_id, r.outcome.value,
             r.finished_at)
            for r in system.collector.results
        ]
        assert Counter(r[2] for r in rows) == {"committed": 591, "aborted": 9}
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
            "9928394cb8ae9c95c5688b3c1c65a5095127a9798c9229f735b76dbc9a05cb62"
        )
        assert system.env.events_processed == 13689
        assert system.network.stats.sent_total == 4746
        assert sum(
            len(site.accelerator.txns.wal) for site in system.sites.values()
        ) == 5319
        assert len(waits) == 101

    def test_open_loop_2pc_python_calls_are_pinned(self):
        """The same 600-update run, counted in Python calls: every
        ``sys.setprofile`` "call" event around ``run_open``. An exact,
        host-independent count of the work the kernel and the transport
        do per update (the same under any ``PYTHONHASHSEED``).

        The kernel with same-timestamp FIFO buckets made 196 616 calls
        here: one ``Environment.step`` per event, a delivery trampoline
        and a channel-table call per message, a ``next_msg_id`` call per
        request and reply. One kernel heap made 153 234; building each
        envelope, kernel event, spawn and WAL record where it is used
        made 112 200; building each WAL record, lock grant, commit
        barrier, timer and update tuple inside the function that uses
        it made 70 890; returning a view of the columnar result log
        instead of the driver's own list made 70 893. Caching each
        site's peer tuples per interest set rather than per item saves
        111 (81 generator frames, 30 ``sites_for`` calls); iterating the
        three per-site columnar traces adds 6 (``__iter__`` and
        ``events_of`` each): 70 788. A process settling its own event
        instead of calling ``succeed`` (1 794), ``env.all_of`` building
        its ``AllOf`` without the ``__init__`` hop (600) and the lock
        queue's waiter built without a dataclass ``__init__`` (101) save
        2 495: 68 293. Per-pair links add 6 calls, one per directed
        pair's first send (``NetworkStats.link``); each count cell's
        first use calls ``first_use`` where the ledger called
        ``Counter.__missing__`` (24 each): 68 299. A rise means
        per-event or per-message work came back; a fall is a change to
        re-pin with a CHANGES.md note.
        """
        system, calls = open_loop_2pc_calls()
        assert system.env.events_processed == 13689
        assert calls == CALLS_2PC

    def test_open_loop_2pc_same_shape_twice_makes_equal_calls(self):
        """Two runs of one config shape in one process do the same work:
        configs of one shape share a topology, and nothing a run caches
        (per-site peer lists) may carry into the next."""
        counts = [open_loop_2pc_calls()[1] for _ in range(2)]
        assert counts == [CALLS_2PC, CALLS_2PC]

    def test_interleaved_with_racing_aborts(self, system):
        """Overdraw races: exactly the affordable prefix commits."""
        # stock 50; ten racing -12s -> only 4 can commit.
        procs = [system.update(f"site{(i % 2) + 1}", ITEM, -12) for i in range(10)]
        system.run()
        committed = sum(1 for p in procs if p.value.committed)
        assert committed == 4
        for site in system.sites.values():
            assert site.value(ITEM) == 2.0
        system.check_invariants()
