"""Behavioural tests for the Delay Update protocol on a real 3-site system."""

import gc
import hashlib
import sys
from collections import Counter

import pytest

from repro.cluster import (
    DistributedSystem,
    SystemConfig,
    build_paper_system,
    paper_config,
)
from repro.core import UpdateKind, UpdateOutcome
from repro.core.types import UpdateRequest
from repro.core.overload import OverloadParams
from repro.db.errors import UnknownItem
from repro.experiments.fig6 import make_paper_trace
from repro.sim.process import Process
from repro.workload.driver import run_closed, run_open, split_by_site


def run_one(system, site, item, delta):
    proc = system.update(site, item, delta)
    system.run()
    assert proc.ok
    return proc.value


@pytest.fixture
def system():
    # 1 item, stock 90 -> AV 30 per site.
    return build_paper_system(n_items=1, initial_stock=90.0, seed=0)


ITEM = "item0"


#: Python calls of the pinned 8-retailer episode (see ``TestAskPathWork``)
CALLS_WIDE = 231614


def wide_episode_calls():
    """Build the pinned 3 000-update 8-retailer episode and count the
    Python calls ``run_closed`` makes; returns the system and the count."""
    system = DistributedSystem.build(
        paper_config(n_items=10, n_retailers=8, seed=0)
    )
    trace = make_paper_trace(3000, 0, n_items=10, n_retailers=8)
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        if event == "call":
            calls += 1

    # As in the 2PC pin: no cyclic collection may run inside the count.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    sys.setprofile(count)
    try:
        run_closed(system, trace)
    finally:
        sys.setprofile(None)
        if gc_was_enabled:
            gc.enable()
    return system, calls


class TestAskPathWork:
    """The AV ask's round trip, counted in Python calls: the episode
    asks a peer for AV 5 809 times in 3 000 updates, so its count is
    dominated by the requester's loop, the grantor's handler, the
    envelopes and their delivery events. An exact,
    host-independent count (the same under any ``PYTHONHASHSEED``).

    Building each envelope, kernel event and spawn where it is used
    took it from 406 316 calls to 263 813; building timers, update
    tuples and constant-latency reads inline took it to 239 086. The
    columnar result log adds 5: the driver's view of it (3) and one pack
    per 1 024 results (2), 239 091 in all. Caching peer tuples per
    interest set rather than per item saves 819 (729 generator frames,
    90 ``sites_for`` calls), and the driver iterates the trace's rows
    (``rows``, one call) instead of a list of events (``__iter__``, one
    call): 238 272. ``record_unsynced`` reads the view's peer tuple in
    its own frame instead of through ``replica_peers`` and
    ``peers_for``: 2 per call of its 2 719, 1 for the 9 that fill the
    cache, 5 429 fewer; a process settles its own event instead of
    calling ``succeed``, 1 301 fewer: 231 542. Per-pair links add 72,
    one ``NetworkStats.link`` per directed pair's first send; each count
    cell's first use calls ``first_use`` where the ledger called
    ``Counter.__missing__`` (128 each): 231 614. A rise means
    per-ask or per-message work came back; a fall is a change to
    re-pin with a CHANGES.md note.
    """

    def test_wide_episode_python_calls_are_pinned(self):
        system, calls = wide_episode_calls()
        assert system.env.events_processed == 21729
        assert system.network.stats.sent_total == 11618
        assert calls == CALLS_WIDE

    def test_wide_episode_same_shape_twice_makes_equal_calls(self):
        counts = [wide_episode_calls()[1] for _ in range(2)]
        assert counts == [CALLS_WIDE, CALLS_WIDE]


class TestLocalPath:
    def test_decrement_within_av_is_local_and_silent(self, system):
        result = run_one(system, "site1", ITEM, -30)
        assert result.committed and result.local_only
        assert result.kind is UpdateKind.DELAY
        assert system.stats.sent_total == 0
        assert system.site("site1").av_table.get(ITEM) == 0.0
        assert system.site("site1").value(ITEM) == 60.0

    def test_increment_mints_av_locally(self, system):
        result = run_one(system, "site0", ITEM, +25)
        assert result.committed and result.local_only
        assert system.stats.sent_total == 0
        assert system.site("site0").av_table.get(ITEM) == 55.0
        assert system.collector.ledger.true_value(ITEM) == 115.0

    def test_zero_delta_is_local_noop_commit(self, system):
        result = run_one(system, "site1", ITEM, 0)
        assert result.committed and result.local_only
        assert system.site("site1").av_table.get(ITEM) == 30.0

    def test_replicas_diverge_without_propagation(self, system):
        run_one(system, "site1", ITEM, -10)
        assert system.site("site1").value(ITEM) == 80.0
        assert system.site("site0").value(ITEM) == 90.0  # not yet told


class TestTransferPath:
    def test_insufficient_av_triggers_one_transfer(self, system):
        result = run_one(system, "site1", ITEM, -45)
        assert result.committed and not result.local_only
        assert result.av_requests == 1
        # Believed-richest is a tie broken by name -> asks site0, which
        # grants ceil(30/2) = 15, just covering the shortage.
        assert result.av_obtained == 15.0
        assert system.stats.sent_total == 2  # request + grant
        assert system.av_total(ITEM) == 90.0 - 45.0

    def test_leftover_grant_stays_at_requester(self, system):
        # need 31, holds 30 -> shortage 1; grantor still gives half (15).
        result = run_one(system, "site1", ITEM, -31)
        assert result.committed
        assert system.site("site1").av_table.get(ITEM) == 14.0  # 45 - 31
        assert system.site("site0").av_table.get(ITEM) == 15.0

    def test_multiple_requests_until_covered(self, system):
        # need 75 > 30 local + 15 from first grant -> keeps asking.
        result = run_one(system, "site1", ITEM, -75)
        assert result.committed
        assert result.av_requests >= 2
        assert system.av_total(ITEM) == 15.0

    def test_reject_when_system_dry(self, system):
        result = run_one(system, "site1", ITEM, -91)  # > total stock 90
        assert result.outcome is UpdateOutcome.REJECTED
        # All accumulated AV returned: nothing lost.
        assert system.av_total(ITEM) == 90.0
        # The failed attempt cost messages (it had to discover dryness).
        assert system.stats.sent_total > 0
        # Value unchanged everywhere.
        assert all(s.value(ITEM) == 90.0 for s in system.sites.values())

    def test_rejected_update_recorded(self, system):
        run_one(system, "site1", ITEM, -91)
        assert [r.outcome for r in system.collector.results] == [
            UpdateOutcome.REJECTED
        ]
        assert system.collector.ledger.true_value(ITEM) == 90.0

    def test_exact_total_av_commits(self, system):
        result = run_one(system, "site1", ITEM, -90)
        assert result.committed
        assert system.av_total(ITEM) == 0.0
        assert system.collector.ledger.true_value(ITEM) == 0.0

    def test_beliefs_updated_from_grant_reply(self, system):
        run_one(system, "site1", ITEM, -45)
        accel = system.site("site1").accelerator
        # site0 granted 15 of 30; the reply piggybacked its remainder.
        assert accel.beliefs.believed_volume("site0", ITEM) == 15.0

    def test_grantor_learned_requester_is_broke(self, system):
        run_one(system, "site1", ITEM, -45)
        accel0 = system.site("site0").accelerator
        believed = accel0.beliefs.believed_volume("site1", ITEM)
        assert believed == 30.0  # the hold amount piggybacked on the ask


class TestPropagation:
    def test_propagation_converges_replicas(self):
        system = build_paper_system(
            n_items=1, initial_stock=90.0, seed=0, propagate=True
        )
        run_one(system, "site1", ITEM, -10)
        run_one(system, "site0", ITEM, +5)
        system.run()  # drain propagation
        for site in system.sites.values():
            assert site.value(ITEM) == 85.0
        system.check_invariants(quiescent=True)

    def test_propagation_tagged_separately(self):
        system = build_paper_system(
            n_items=1, initial_stock=90.0, seed=0, propagate=True
        )
        run_one(system, "site1", ITEM, -10)
        system.run()
        assert system.stats.by_tag["prop"] == 2  # one push per peer
        assert system.stats.by_tag.get("av", 0) == 0


class TestStaticEscrow:
    def test_no_transfers_reject_instead(self):
        system = DistributedSystem.build(
            SystemConfig(n_items=1, initial_stock=90.0, allow_transfers=False)
        )
        result = run_one(system, "site1", ITEM, -45)
        assert result.outcome is UpdateOutcome.REJECTED
        assert system.stats.sent_total == 0
        assert system.av_total(ITEM) == 90.0


class TestStraightLineLocalPath:
    """The zero-communication update runs inside ``update()``: no
    process, one completion event; everything that could make it wait
    still gets a process."""

    @pytest.mark.parametrize("site,delta", [("site1", -20.0), ("site0", +25.0)])
    def test_covered_update_costs_one_completion_event(self, system, site, delta):
        accel = system.site(site).accelerator
        wal_before = len(accel.txns.wal)
        events_before = system.env.events_processed
        done = system.update(site, ITEM, delta)
        assert not isinstance(done, Process)
        assert done.triggered and done.ok
        system.run()
        assert system.env.events_processed - events_before == 1
        [result] = system.collector.results
        assert result is done.value
        assert result.committed and result.local_only
        assert result.finished_at == result.request.issued_at == 0.0
        assert len(accel.txns.wal) - wal_before == 3
        assert accel.unsynced_items() == {ITEM}
        assert system.stats.sent_total == 0

    def test_uncovered_decrement_is_a_process(self, system):
        done = system.update("site1", ITEM, -45)
        assert isinstance(done, Process) and not done.triggered
        system.run()
        assert done.value.committed and done.value.av_requests == 1

    def test_frozen_item_waits_for_unfreeze(self, system):
        accel = system.site("site1").accelerator
        accel.freeze(ITEM)
        done = system.update("site1", ITEM, -5)
        assert isinstance(done, Process)
        system.run()
        assert not done.triggered
        assert accel.av_table.get(ITEM) == 30.0
        accel.unfreeze(ITEM)
        system.run()
        assert done.value.committed and done.value.local_only
        assert accel.av_table.get(ITEM) == 25.0

    def test_rejoin_gate_holds_the_update(self, system):
        accel = system.site("site1").accelerator
        gate = accel._rejoin_gate = system.env.event()
        done = system.update("site1", ITEM, -5)
        assert isinstance(done, Process)
        system.run()
        assert not done.triggered
        accel._rejoin_gate = None
        gate.succeed()
        system.run()
        assert done.value.committed and done.value.local_only

    def test_overload_sites_keep_the_admission_bracket(self):
        """A covered update on an overload site runs without a process,
        inside the admission bracket: in flight while its body runs, and
        shed with a retry-after hint while the budget is full."""
        system = DistributedSystem.build(SystemConfig(
            n_items=1, initial_stock=90.0, seed=0,
            overload=OverloadParams(inflight_budget=1),
        ))
        ovl = system.site("site1").accelerator.overload
        done = system.update("site1", ITEM, -5)
        assert done.triggered  # the body already ran
        system.run()
        assert done.value.committed and done.value.local_only
        assert ovl.peak_inflight == 1 and ovl.inflight == 0
        remote = system.update("site1", ITEM, -45)  # waits for AV
        system.env.step()
        assert ovl.inflight == 1
        shed = system.update("site1", ITEM, 5)
        assert shed.triggered
        system.run()
        assert shed.value.outcome is UpdateOutcome.SHED
        assert shed.value.kind is UpdateKind.DELAY
        assert shed.value.retry_after == ovl.params.retry_after
        assert shed.value.finished_at == shed.value.request.issued_at
        assert ovl.shed == 1
        assert remote.value.committed and ovl.inflight == 0

    def test_non_regular_item_is_a_process(self):
        system = build_paper_system(
            n_items=1, initial_stock=90.0, seed=0, regular_fraction=0.0
        )
        done = system.update("site1", ITEM, -5)
        assert isinstance(done, Process)
        system.run()
        assert done.value.kind is UpdateKind.IMMEDIATE and done.value.committed

    def test_guarded_emits_still_reach_subscribers(self):
        system = DistributedSystem.build(
            paper_config(n_items=10, seed=2, sanitize=True, observe=False)
        )
        seen = {"av.mint": 0, "av.spend": 0}

        def count(kind, _now, _fields):
            if kind in seen:
                seen[kind] += 1

        system.obs.subscribe_fields(count)
        results = run_closed(system, make_paper_trace(1000, 2, n_items=10))
        assert len(results) == 1000
        assert system.sanitizer.finish().violations == []
        local = [r for r in results if r.committed and r.local_only]
        mints = sum(1 for r in local if r.request.delta >= 0)
        assert mints and len(local) - mints
        assert seen == {"av.mint": mints, "av.spend": len(local) - mints}

    def test_observed_local_update_has_the_process_path_span_tree(self):
        def span_tree(system):
            spans = list(system.obs.recorder)
            by_id = {s.span_id: s for s in spans}
            return [
                (
                    s.name, s.site, s.trace_id, s.start, s.end, s.attrs,
                    by_id[s.parent_id].name if s.parent_id else None,
                )
                for s in spans
            ]

        def build():
            return build_paper_system(
                n_items=1, initial_stock=90.0, seed=0, observe=True
            )

        straight = build()
        done = straight.update("site1", ITEM, -20)
        assert not isinstance(done, Process)
        straight.run()

        gated = build()  # same update, forced through the process path
        gated.site("site1").accelerator.freeze(ITEM)
        proc = gated.update("site1", ITEM, -20)
        gated.site("site1").accelerator.unfreeze(ITEM)
        gated.run()
        assert isinstance(proc, Process) and proc.value.local_only

        assert span_tree(straight) == span_tree(gated) == [
            ("update", "site1", "site1:u1", 0.0, 0.0,
             {"item": ITEM, "delta": -20, "outcome": "committed"}, None),
            ("av.checking", "site1", "site1:u1", 0.0, 0.0,
             {"verdict": "delay"}, "update"),
            ("delay.apply", "site1", "site1:u1", 0.0, 0.0,
             {"item": ITEM, "delta": -20}, "update"),
        ]

    def test_completion_order_under_run_open_is_the_process_paths(self):
        """Pinned to what the process-per-update dispatch produced:
        completions stay NORMAL-priority kernel events, so same-timestamp
        updates of different sites record in the order they always did."""
        system = DistributedSystem.build(
            paper_config(n_items=10, n_retailers=4, seed=5)
        )
        trace = make_paper_trace(600, 5, n_items=10, n_retailers=4)
        run_open(system, split_by_site(trace), interarrival=0.5)
        order = [
            (r.request.site, r.request.request_id, r.finished_at)
            for r in system.collector.results
        ]
        assert len(order) == 600
        assert hashlib.sha256(repr(order).encode()).hexdigest() == (
            "254ed24de9a2f9bbb8b03b911886f57f0632ecd0ac129ec379117db8529487c3"
        )

    def test_eager_push_from_a_crashed_site_still_reports_failed(self):
        """What ``_run`` made of CrashedEndpointError, the straight-line
        path must too: a FAILED result, not a failed event."""
        system = build_paper_system(
            n_items=1, initial_stock=90.0, seed=0, propagate=True
        )
        system.site("site1").crash()
        done = system.update("site1", ITEM, -5)
        assert not isinstance(done, Process)
        system.run()
        assert done.ok and done.value.outcome is UpdateOutcome.FAILED
        assert system.collector.results == [done.value]

    def test_store_error_fails_the_event_not_the_call(self, system):
        system.site("site1").store.drop(ITEM)
        done = system.update("site1", ITEM, -5)  # must not raise here
        assert done.triggered and not done.ok
        assert isinstance(done.value, UnknownItem)
        caught = []

        def waiter(env):
            try:
                yield done
            except UnknownItem as exc:
                caught.append(exc)

        system.env.process(waiter(system.env))
        system.run()
        assert caught == [done.value]
        assert system.collector.results == []


def _wide_run(n_updates, regular_fraction=1.0):
    """8 retailers sharing one AV per item: about half the updates gather."""
    system = DistributedSystem.build(paper_config(
        n_items=10, n_retailers=8, seed=0,
        regular_fraction=regular_fraction,
    ))
    results = run_closed(
        system, make_paper_trace(n_updates, 0, n_items=10, n_retailers=8)
    )
    return system, results


def _outcome_digest(results):
    rows = [
        (r.request.site, r.request.item, r.outcome.value, r.av_requests,
         r.finished_at)
        for r in results
    ]
    return hashlib.sha256(repr(rows).encode()).hexdigest()


class TestUnreadTraceDetail:
    """The protocol paths render no request string, and the results
    carry every fact about each delay update. The digests are pinned."""

    WIDE = "2d552dbf444a84b3552596b18915a9d8bc00236bb69f17bc5d4fdaa081bf537a"
    ALL_2PC = "f37b201ff8c81f4c1439b24c74ce5392e61db2ee0407448397f8884ad056ac41"

    @pytest.fixture
    def unrenderable(self, monkeypatch):
        def refuse(self):
            raise AssertionError("an UpdateRequest was rendered")

        monkeypatch.setattr(UpdateRequest, "__str__", refuse)

    def test_untraced_gather_renders_no_request(self, unrenderable):
        _system, results = _wide_run(600)
        assert sum(not r.local_only for r in results) == 274
        assert _outcome_digest(results) == self.WIDE

    def test_untraced_2pc_renders_no_request(self, unrenderable):
        _system, results = _wide_run(300, regular_fraction=0.0)
        assert _outcome_digest(results) == self.ALL_2PC

    def test_wide_run_outcome_counts(self):
        _system, results = _wide_run(600)
        assert _outcome_digest(results) == self.WIDE
        gathered = [r for r in results if not r.local_only]
        assert sum(r.local_only for r in results) == 326
        assert len(gathered) == 274
        assert Counter(r.outcome for r in gathered) == {
            UpdateOutcome.COMMITTED: 203, UpdateOutcome.REJECTED: 71,
        }
        assert sum(r.av_requests for r in results) == 1321
