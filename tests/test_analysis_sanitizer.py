"""Tests for the runtime protocol sanitizer.

Structure: one clean-run gate (the §4 workload must produce zero
violations) plus one known-bad scenario per invariant, each asserting
that the resulting finding is structured — it names the rule and the
item/site/span that caused it.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import ProtocolSanitizer, run_check
from repro.cluster import build_paper_system
from repro.core import InvalidVolume
from repro.db.locks import LockManager
from repro.net.message import Message
from repro.obs.hub import Observability
from repro.sim import Environment


def sanitized_system(**overrides):
    overrides.setdefault("n_items", 2)
    overrides.setdefault("initial_stock", 90.0)
    overrides.setdefault("observe", True)
    overrides.setdefault("sanitize", True)
    return build_paper_system(**overrides)


class TestCleanRun:
    def test_paper_workload_sanitizes_clean(self):
        run = run_check(n_updates=120, seed=0)
        assert run.ok, run.render()
        assert run.report.violations == []
        counters = run.report.counters
        assert counters["holds_opened"] == counters["holds_closed"]
        assert counters["unsynced_balances"] == 0
        assert counters["events"] > 0

    def test_finish_is_idempotent(self):
        run = run_check(n_updates=30, seed=1)
        again = run.system.sanitizer.finish()
        assert again is run.report
        assert again.violations == run.report.violations

    def test_render_names_the_verdict(self):
        run = run_check(n_updates=30, seed=2)
        out = run.render()
        assert "PASS" in out
        assert "protocol sanitizer report" in out


class TestHoldLifecycle:
    def test_double_spend_hold_reported_with_context(self):
        """Consuming an already-consumed hold is the double-spend bug the
        paper's holds exist to prevent; the finding must carry the span
        context the hold was opened under."""
        system = sanitized_system()
        table = system.site("site1").av_table
        hold = table.hold("item0", ctx=("trace-dbl", 42))
        hold.add(table.take("item0", 10.0))
        hold.consume(10.0)
        with pytest.raises(InvalidVolume):
            hold.consume(5.0)
        report = system.sanitizer.report
        findings = report.by_rule("hold.double-close")
        assert len(findings) == 1
        v = findings[0]
        assert v.severity == "violation"
        assert v.item == "item0"
        assert v.site == "site1"
        assert v.trace_id == "trace-dbl"
        assert v.span_id == 42
        assert str(hold.hold_id) in v.detail

    def test_leaked_hold_reported_at_teardown(self):
        system = sanitized_system()
        table = system.site("site2").av_table
        hold = table.hold("item1", ctx=("trace-leak", 7))
        hold.add(table.take("item1", 5.0))
        report = system.sanitizer.finish()
        leaks = report.by_rule("hold.leak")
        assert len(leaks) == 1
        v = leaks[0]
        assert (v.item, v.site) == ("item1", "site2")
        assert v.trace_id == "trace-leak"
        assert v.span_id == 7
        assert report.counters["holds_opened"] == 1
        assert report.counters["holds_closed"] == 0
        # releasing repairs nothing after the fact — the report is fixed
        hold.release()


class TestConservation:
    def test_forged_volume_caught_immediately(self):
        """AV appearing out of thin air (no mint) breaks conservation."""
        system = sanitized_system()
        system.site("site1").av_table.add("item0", 1000.0)
        report = system.sanitizer.report
        findings = report.by_rule("av.conservation")
        assert findings, report.render()
        v = findings[0]
        assert v.item == "item0"
        assert v.site == "site1"
        assert "exceeds headroom" in v.detail

    def test_spend_and_mint_keep_accounts_balanced(self):
        system = sanitized_system()

        def flow(env):
            yield system.update("site1", "item0", -10.0)  # spend
            yield system.update("site0", "item0", +25.0)  # mint

        system.env.process(flow(system.env))
        system.run()
        report = system.sanitizer.finish()
        assert report.ok, report.render()


class _ReferenceConservation:
    """Conservation as four per-item sums, checked after every move —
    the reference the sanitizer's folds (inline ones included) must
    match violation for violation."""

    EPS = 1e-6

    def __init__(self):
        self.sums = {name: {} for name in ("tables", "holds", "moving", "headroom")}
        self.checks = 0
        self.findings = []

    def move(self, account, item, delta, site, now):
        sums = self.sums
        sums[account][item] = sums[account].get(item, 0.0) + delta
        self.checks += 1
        tables, holds, moving = (
            sums[name].get(item, 0.0) for name in ("tables", "holds", "moving")
        )
        total = tables + holds + moving
        bound = sums["headroom"].get(item, 0.0)
        if total > bound + self.EPS:
            self.findings.append(
                f"violation: av.conservation t={now:g} [item={item} site={site}]:"
                f" AV in system {total:g} exceeds headroom {bound:g}"
                f" (tables {tables:g} + holds {holds:g} + in-flight {moving:g})"
            )


class _Hold:
    def __init__(self, amount):
        self.amount = amount
        self.hold_id = 1
        self.item = "item0"
        self.ctx = None


#: event kind -> the reference's moves, each (account, sign)
_MOVES = {
    "av.add": (("tables", 1),),
    "av.take": (("tables", -1),),
    "av.mint": (("headroom", 1),),
    "av.spend": (("headroom", -1),),
    "av.define": (("headroom", 1), ("tables", 1)),
    "av.hold.add": (("holds", 1),),
    "av.hold.release": (("holds", -1),),
}


class TestConservationFolds:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(sorted(_MOVES) + ["av.hold.consume"]),
            st.sampled_from(["item0", "item1"]),
            st.sampled_from([0.0, 0.1, 0.2, 0.3, 1.0, 2.5, 7.0, 1e-7]),
        ),
        max_size=60,
    ))
    def test_folds_match_four_sums(self, events):
        san = ProtocolSanitizer()
        san.conservation.baseline("item0", 5.0)
        ref = _ReferenceConservation()
        ref.sums["tables"]["item0"] = ref.sums["headroom"]["item0"] = 5.0
        for now, (kind, item, amount) in enumerate(events):
            if kind == "av.hold.consume":
                # the full hold leaves holds, the needed part headroom
                hold = _Hold(amount * 2)
                san._av_hold_consume(now, "s1", item, amount, hold)
                ref.move("holds", item, -hold.amount, "s1", now)
                ref.move("headroom", item, -amount, "s1", now)
                continue
            fold = getattr(san, "_" + kind.replace(".", "_"))
            if kind.startswith("av.hold."):
                fold(now, "s1", item, amount, _Hold(amount))
            else:
                fold(now, "s1", item, amount)
            for account, sign in _MOVES[kind]:
                ref.move(account, item, sign * amount, "s1", now)
        assert [v.render() for v in san.report.violations] == ref.findings
        assert san.conservation.checks == ref.checks
        assert san.events == len(events)


class TestDroppedPropagation:
    def test_lost_propagation_is_a_violation(self):
        """A dropped prop.push can never be retransmitted: the replica
        diverges permanently. The finding names the span that committed
        the update."""
        system = sanitized_system(propagate=True)
        system.network.faults.drop_probability = 1.0

        def flow(env):
            # Locally covered: only the propagation fan-out hits the wire.
            yield system.update("site1", "item0", -5.0)

        system.env.process(flow(system.env))
        system.run()
        report = system.sanitizer.finish()
        lost = report.by_rule("prop.lost")
        assert lost, report.render()
        v = lost[0]
        assert v.severity == "violation"
        assert v.item == "item0"
        assert v.site in ("site0", "site2")  # the starved replica
        assert v.span_id is not None
        assert v.trace_id
        assert v.msg_id is not None
        assert not report.ok


class TestLockAudit:
    def make_sanitizer(self):
        """A sanitizer subscribed to a fresh hub (no system attached)."""
        san = ProtocolSanitizer()
        hub = Observability(enabled=False)
        san.listen(hub)
        return san, hub

    def test_wait_cycle_reported_as_deadlock(self):
        env = Environment()
        san, hub = self.make_sanitizer()
        locks = LockManager(env, "site9", obs=hub)
        locks.acquire("i1", "imm:T1", span_id=7)
        locks.acquire("i2", "imm:T2", span_id=8)
        locks.acquire("i2", "imm:T1", span_id=7)  # T1 waits on T2
        locks.acquire("i1", "imm:T2", span_id=9)  # T2 waits on T1: cycle
        findings = san.report.by_rule("lock.deadlock")
        assert len(findings) == 1
        v = findings[0]
        assert v.severity == "violation"
        assert v.site == "site9"
        assert v.item == "i1"
        assert v.span_id == 9
        assert "imm:T1" in v.detail and "imm:T2" in v.detail

    def test_out_of_order_site_acquisition_reported(self):
        env = Environment()
        san, hub = self.make_sanitizer()
        a = LockManager(env, "site1", obs=hub)
        b = LockManager(env, "site2", obs=hub)
        b.acquire("x", "imm:T9", span_id=3)
        a.acquire("x", "imm:T9", span_id=3)  # site1 after site2: descending
        findings = san.report.by_rule("lock.order")
        assert len(findings) == 1
        v = findings[0]
        assert (v.site, v.item, v.span_id) == ("site1", "x", 3)
        assert "canonical ascending" in v.detail

    def test_canonical_order_and_release_stay_clean(self):
        env = Environment()
        san, hub = self.make_sanitizer()
        a = LockManager(env, "site1", obs=hub)
        b = LockManager(env, "site2", obs=hub)
        a.acquire("x", "imm:T1", span_id=1)
        b.acquire("x", "imm:T1", span_id=1)
        a.release("x", "imm:T1")
        b.release("x", "imm:T1")
        assert san.report.ok


def reference_cycle(wait_for, start):
    """The first wait-for cycle a DFS from ``start`` meets, visiting each
    owner's blockers in sorted order and entering every owner once."""
    path, seen = [], set()

    def visit(owner):
        if owner in path:
            return path[path.index(owner):]
        if owner in seen:
            return None
        seen.add(owner)
        path.append(owner)
        for blocker in sorted(wait_for.get(owner, ())):
            cycle = visit(blocker)
            if cycle is not None:
                return cycle
        path.pop()
        return None

    return visit(start)


class TestDeadlockSearch:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["wait", "wait", "wait", "grant", "release"]),
            st.sampled_from(["T1", "T2", "T3", "T4", "T5"]),
            st.lists(st.sampled_from(["T1", "T2", "T3", "T4", "T5"]),
                     max_size=3),
        ),
        max_size=40,
    ))
    def test_first_cycle_matches_a_full_search(self, steps):
        """Random waits on random holders and queues, grants and
        releases: the audit reports the cycle a search that enters
        every owner would meet first, at every wait."""
        san = ProtocolSanitizer()
        locks = san.locks
        graph, expected = {}, []
        for now, (op, owner, others) in enumerate(steps):
            holders = dict.fromkeys(others[:1], None)
            queue = [(other, None) for other in others[1:]]
            locks.on_event("s1", op, "x", owner, now, holders, queue, now)
            if op != "wait":
                graph.pop(owner, None)
                continue
            # the holder, and the queue ahead of the waiter's own entry
            blockers = set(others[:1])
            for other in others[1:]:
                if other == owner:
                    break
                blockers.add(other)
            graph[owner] = blockers - {owner}
            cycle = reference_cycle(graph, owner)
            if cycle is not None:
                expected.append(" -> ".join(cycle + [cycle[0]]))
        found = [v.detail for v in san.report.by_rule("lock.deadlock")]
        assert found == ["wait-for cycle: " + c for c in expected]
        assert locks.deadlocks == len(expected)


class TestHappensBefore:
    """The vector clocks are kept up by the sanitizer's ``msg.*`` folds;
    :class:`CausalOrder` classifies selections against them."""

    def send(self, san, src, dst, msg_id):
        msg = Message(src=src, dst=dst, kind="x.note", payload={},
                      msg_id=msg_id)
        san._msg_send(0.0, src, msg)
        return msg

    def grant(self, san, grantor, item, av_after, msg_id):
        self.send(san, grantor, "site1", msg_id)
        san.causal.on_grant(grantor, item, av_after, 0.0, msg_id)

    def test_concurrent_selection_is_a_stale_race(self):
        san = ProtocolSanitizer()
        causal = san.causal
        self.grant(san, "site0", "item0", av_after=5.0, msg_id=1)
        # site2 has seen no message from site0: concurrent in HB terms.
        causal.on_select("site2", "item0", "site0", believed=20.0, time=1.0,
                         trace="t-race", span=11)
        assert causal.stale_races == 1
        assert causal.belief_lags == 0
        sample = causal.samples[0]
        assert sample["kind"] == "hb.stale-belief-race"
        assert sample["target"] == "site0"
        assert sample["span"] == 11

    def test_causally_ordered_selection_is_a_belief_lag(self):
        san = ProtocolSanitizer()
        causal = san.causal
        self.grant(san, "site0", "item0", av_after=5.0, msg_id=1)
        # A later message from site0 reaches site2, so the grant
        # happened-before the selection — the stale level was knowable.
        san._msg_recv(0.0, "site2", self.send(san, "site0", "site2", 2))
        causal.on_select("site2", "item0", "site0", believed=20.0, time=2.0)
        assert causal.belief_lags == 1
        assert causal.stale_races == 0
        assert causal.samples[0]["kind"] == "hb.belief-lag"

    def test_accurate_belief_not_flagged(self):
        san = ProtocolSanitizer()
        causal = san.causal
        self.grant(san, "site0", "item0", av_after=30.0, msg_id=1)
        causal.on_select("site2", "item0", "site0", believed=30.0, time=1.0)
        causal.on_select("site2", "item0", "site0", believed=None, time=1.0)
        causal.on_select("site2", "item1", "site9", believed=99.0, time=1.0)
        assert causal.stale_races == 0
        assert causal.belief_lags == 0

    @settings(max_examples=300, deadline=None)
    @given(st.lists(
        st.tuples(
            st.sampled_from(["send", "deliver", "deliver", "drop", "grant",
                             "select", "select"]),
            st.sampled_from(["site0", "site1", "site2"]),
            st.sampled_from(["site0", "site1", "site2"]),
            st.integers(0, 3),
        ),
        max_size=60,
    ))
    def test_inline_clocks_match_a_reference(self, steps):
        """Random sends, deliveries (in any order), drops, grants and
        selections: the sanitizer's inline clocks classify every
        selection as per-site clocks merged pointwise would."""
        san = ProtocolSanitizer()
        clocks, snapshots, grants, verdicts = {}, {}, {}, []
        in_flight = []
        next_id = 1
        for op, a, b, n in steps:
            if op in ("send", "grant"):
                msg = Message(src=a, dst=b, kind="x.note", payload={},
                              msg_id=next_id)
                next_id += 1
                san._msg_send(0.0, a, msg)
                clock = clocks.setdefault(a, {})
                clock[a] = clock.get(a, 0) + 1
                snapshots[msg.msg_id] = dict(clock)
                in_flight.append(msg)
                if op == "grant":
                    san.causal.on_grant(a, "item0", float(n), 0.0, msg.msg_id)
                    grants[a] = (snapshots[msg.msg_id], float(n))
            elif op in ("deliver", "drop") and in_flight:
                msg = in_flight.pop(n % len(in_flight))
                snapshot = snapshots.pop(msg.msg_id)
                if op == "drop":
                    san._msg_drop(0.0, msg.src, msg)
                    continue
                san._msg_recv(0.0, msg.dst, msg)
                clock = clocks.setdefault(msg.dst, {})
                for site, count in snapshot.items():
                    clock[site] = max(clock.get(site, 0), count)
                clock[msg.dst] = clock.get(msg.dst, 0) + 1
            elif op == "select" and b in grants:
                grant_clock, av_after = grants[b]
                believed = av_after + 1.0
                san.causal.on_select(a, "item0", b, believed, 0.0)
                mine = clocks.get(a, {})
                verdicts.append(all(
                    mine.get(site, 0) >= count
                    for site, count in grant_clock.items()
                ))
        assert san.causal.belief_lags == sum(verdicts)
        assert san.causal.stale_races == len(verdicts) - sum(verdicts)

    def test_stale_beliefs_surface_as_report_warnings(self):
        system = sanitized_system()
        san = system.sanitizer
        self.grant(san, "site0", "item0", av_after=5.0, msg_id=900001)
        san.causal.on_select("site2", "item0", "site0", believed=20.0, time=1.0)
        report = san.finish()
        assert report.ok  # warnings never fail the run
        warned = report.by_rule("hb.stale-belief-race")
        assert len(warned) == 1
        assert warned[0].severity == "warning"
        assert report.counters["stale_belief_races"] == 1
        assert report.hb_samples
