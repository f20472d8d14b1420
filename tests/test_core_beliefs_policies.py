"""Unit tests for belief tables, deciding policies and selection strategies."""

import numpy as np
import pytest

from repro.core import (
    Belief,
    BeliefTable,
    BelievedRichestStrategy,
    ExactPolicy,
    FixedOrderStrategy,
    GrantAllPolicy,
    OverdraftPolicy,
    ProportionalPolicy,
    RandomStrategy,
    RoundRobinStrategy,
    Soda99Policy,
)


def reference_order(table, item, candidates):
    """The selecting function's order, stated as a sort: the richest
    believed volume first, an unknown peer counting as 0.5, ties by name."""

    def key(peer):
        volume = table.believed_volume(peer, item)
        return (-volume if volume is not None else -0.5, peer)

    return sorted(candidates, key=key)


def richest_order(table, item, candidates):
    """Every candidate in the order ``richest`` picks them, each pick
    joining a plain ``tried`` set before the next."""
    tried, order = set(), []
    while (peer := table.richest(item, candidates, tried)) is not None:
        assert peer not in tried
        tried.add(peer)
        order.append(peer)
    return order


class TestBeliefTable:
    def test_observe_and_lookup(self):
        b = BeliefTable("site1")
        b.observe("site0", "A", 40.0, now=1.0)
        assert b.believed_volume("site0", "A") == 40.0
        assert b.believed_volume("site0", "B") is None
        assert b.belief("site0", "A").observed_at == 1.0

    def test_newer_observation_wins(self):
        b = BeliefTable()
        b.observe("p", "A", 40.0, now=1.0)
        b.observe("p", "A", 10.0, now=2.0)
        assert b.believed_volume("p", "A") == 10.0

    def test_stale_observation_ignored(self):
        b = BeliefTable()
        b.observe("p", "A", 10.0, now=5.0)
        b.observe("p", "A", 99.0, now=1.0)  # out-of-order arrival
        assert b.believed_volume("p", "A") == 10.0

    def test_ranked_peers_richest_first(self):
        b = BeliefTable()
        b.observe("poor", "A", 1.0, now=0)
        b.observe("rich", "A", 50.0, now=0)
        b.observe("empty", "A", 0.0, now=0)
        candidates = ["poor", "rich", "empty", "unknown"]
        ranked = reference_order(b, "A", candidates)
        assert ranked[0] == "rich"
        assert ranked[1] == "poor"
        # unknown ranks above known-empty
        assert ranked.index("unknown") < ranked.index("empty")
        assert richest_order(b, "A", candidates) == ranked

    def test_ranked_ties_break_by_name(self):
        b = BeliefTable()
        b.observe("b", "A", 5.0, now=0)
        b.observe("a", "A", 5.0, now=0)
        assert reference_order(b, "A", ["b", "a"]) == ["a", "b"]
        assert richest_order(b, "A", ["b", "a"]) == ["a", "b"]

    def test_forget_peer(self):
        b = BeliefTable()
        b.observe("p", "A", 1.0, now=0)
        b.observe("p", "B", 2.0, now=0)
        b.observe("q", "A", 3.0, now=0)
        b.forget_peer("p")
        assert b.believed_volume("p", "A") is None
        assert b.believed_volume("q", "A") == 3.0
        assert len(b) == 1

    def test_belief_is_an_immutable_pair(self):
        b = BeliefTable()
        b.observe("p", "A", 2.5, now=3.0)
        observed = b.belief("p", "A")
        assert observed == Belief(2.5, 3.0)
        assert (observed.volume, observed.observed_at) == (2.5, 3.0)
        with pytest.raises(AttributeError):
            observed.volume = 9.0
        with pytest.raises(AttributeError):
            Belief(1.0, 0.0).observed_at = 1.0
        assert b.belief("p", "A") == Belief(2.5, 3.0)


class TestSeededDeal:
    """The initial deal is shared by reference across an interest set."""

    def _deal(self):
        return {
            "s0": Belief(4.0, 0.0),
            "s1": Belief(3.0, 0.0),
            "s2": Belief(3.0, 0.0),
        }

    def test_observe_leaves_co_seeded_tables_and_the_deal_alone(self):
        deal = self._deal()
        snapshot = dict(deal)
        one, two = BeliefTable("s1"), BeliefTable("s2")
        one.seed("A", deal)
        two.seed("A", deal)
        before = list(two.entries())
        one.observe("s0", "A", 0.0, now=5.0)
        one.observe("s2", "A", 1.0, now=6.0)
        assert one.believed_volume("s0", "A") == 0.0
        assert one.belief("s2", "A") == Belief(1.0, 6.0)
        assert list(two.entries()) == before
        assert two.believed_volume("s0", "A") == 4.0
        assert deal == snapshot
        assert all(deal[p] is snapshot[p] for p in deal)

    def test_holder_never_reads_its_own_share(self):
        table = BeliefTable("s1")
        table.seed("A", self._deal())
        assert table.belief("s1", "A") is None
        assert table.believed_volume("s1", "A") is None
        assert [p for p, _i, _b in table.entries()] == ["s0", "s2"]
        assert len(table) == 2
        assert table.observations == 2
        # unknown (-0.5) ranks between known-positive and known-empty
        candidates = ["s2", "s1", "s0"]
        assert reference_order(table, "A", candidates) == ["s0", "s2", "s1"]
        assert richest_order(table, "A", candidates) == ["s0", "s2", "s1"]

    def test_stale_observation_does_not_regress_the_deal(self):
        table = BeliefTable("s1")
        table.seed("A", self._deal())
        table.observe("s0", "A", 99.0, now=-1.0)
        assert table.believed_volume("s0", "A") == 4.0
        assert table.observations == 2

    def test_build_shares_one_deal_per_interest_set(self):
        """Σ len(beliefs) is the per-pair count a copying bootstrap has,
        while the distinct Belief objects number at most one per peer of
        each distinct deal."""
        from repro.cluster import DistributedSystem, Topology, paper_config

        items = [f"item{i:04d}" for i in range(2000)]
        topology = Topology.parse("regional:7x6:s2", items)
        system = DistributedSystem.build(
            paper_config(n_items=len(items), seed=0, topology=topology)
        )
        interest_sets = [topology.sites_for(item) for item in items]
        tables = [s.accelerator.beliefs for s in system.sites.values()]
        assert sum(len(t) for t in tables) == sum(
            len(i) * (len(i) - 1) for i in interest_sets
        )
        distinct = {id(b) for t in tables for _p, _i, b in t.entries()}
        deals = {tuple(i) for i in interest_sets}
        assert len(distinct) <= len(deals) * max(len(i) for i in interest_sets)


class TestPolicies:
    def test_soda99_requests_shortage(self):
        p = Soda99Policy()
        assert p.request_amount(17.0) == 17.0

    def test_soda99_grants_ceil_half(self):
        p = Soda99Policy()
        assert p.grant_amount(40.0, 5.0) == 20.0
        assert p.grant_amount(41.0, 5.0) == 21.0  # ceil of 20.5
        assert p.grant_amount(1.0, 5.0) == 1.0  # never livelocks at 1
        assert p.grant_amount(0.0, 5.0) == 0.0

    def test_grant_all(self):
        p = GrantAllPolicy()
        assert p.grant_amount(40.0, 5.0) == 40.0
        assert p.request_amount(3.0) == 3.0

    def test_exact(self):
        p = ExactPolicy()
        assert p.grant_amount(40.0, 5.0) == 5.0
        assert p.grant_amount(3.0, 5.0) == 3.0

    def test_proportional_validation_and_grant(self):
        with pytest.raises(ValueError):
            ProportionalPolicy(0.0)
        with pytest.raises(ValueError):
            ProportionalPolicy(1.5)
        p = ProportionalPolicy(0.25)
        assert p.grant_amount(40.0, 5.0) == 10.0
        assert p.grant_amount(1.0, 5.0) == 1.0  # ceil keeps integers moving

    def test_overdraft_requests_more(self):
        with pytest.raises(ValueError):
            OverdraftPolicy(0.5)
        p = OverdraftPolicy(2.0)
        assert p.request_amount(5.0) == 10.0
        assert p.grant_amount(40.0, 10.0) >= 10.0

    def test_grants_never_exceed_available(self):
        for policy in (
            Soda99Policy(),
            GrantAllPolicy(),
            ExactPolicy(),
            ProportionalPolicy(0.9),
            OverdraftPolicy(3.0),
        ):
            for avail in (0.0, 1.0, 7.0, 100.0):
                for req in (0.0, 1.0, 50.0, 1000.0):
                    g = policy.grant_amount(avail, req)
                    assert 0.0 <= g <= avail, (policy, avail, req, g)


class TestStrategies:
    def setup_method(self):
        self.beliefs = BeliefTable()
        self.beliefs.observe("s0", "A", 50.0, now=0)
        self.beliefs.observe("s2", "A", 5.0, now=0)
        self.candidates = ["s0", "s2", "s3"]

    def test_believed_richest(self):
        s = BelievedRichestStrategy()
        assert s.select("A", self.candidates, frozenset(), self.beliefs) == "s0"
        assert (
            s.select("A", self.candidates, frozenset({"s0"}), self.beliefs) == "s2"
        )
        assert (
            s.select("A", self.candidates, frozenset(self.candidates), self.beliefs)
            is None
        )

    @pytest.mark.parametrize("seed", range(20))
    def test_believed_richest_is_the_head_of_the_ranking(self, seed):
        """Random tables with a seeded deal that names the holder (itself
        a candidate), unknown peers, known-empty peers, fractional
        volumes and ties: the selected peer is the head of the reference
        order over the untried candidates, ``tried`` a plain set."""
        rng = np.random.default_rng(seed)
        peers = [f"s{i}" for i in range(9)]
        holder = str(rng.choice(peers))
        # few distinct volumes, so ties — among known peers and, at
        # exactly 0.5, with unknown ones — and known-empty are common
        volumes = [0.0, 0.25, 0.5, 1.0, 1.5, 3.0]
        deal = {
            peer: Belief(float(rng.choice(volumes)), 0.0)
            for peer in peers
            if peer == holder or rng.random() < 0.5
        }
        beliefs = BeliefTable(holder)
        beliefs.seed("A", deal)
        for peer in peers:
            if rng.random() < 0.4:
                continue  # the deal, if any, is all that is known
            beliefs.observe(peer, "A", float(rng.choice(volumes)), now=1.0)
            beliefs.observe(peer, "B", 99.0, now=0)  # another item: ignored
        strategy = BelievedRichestStrategy()
        candidates = [str(p) for p in rng.permutation(peers)]
        assert holder in candidates
        tried: set[str] = set()
        while True:
            remaining = [c for c in candidates if c not in tried]
            got = strategy.select("A", candidates, tried, beliefs)
            if not remaining:
                assert got is None
                break
            assert got == reference_order(beliefs, "A", remaining)[0]
            tried.add(got)
        assert richest_order(beliefs, "A", candidates) == reference_order(
            beliefs, "A", candidates
        )

    def test_round_robin_cycles(self):
        s = RoundRobinStrategy()
        first = s.select("A", self.candidates, frozenset(), self.beliefs)
        second = s.select("A", self.candidates, frozenset(), self.beliefs)
        third = s.select("A", self.candidates, frozenset(), self.beliefs)
        fourth = s.select("A", self.candidates, frozenset(), self.beliefs)
        assert [first, second, third] == self.candidates
        assert fourth == first

    def test_round_robin_skips_tried(self):
        s = RoundRobinStrategy()
        got = s.select("A", self.candidates, frozenset({"s0"}), self.beliefs)
        assert got == "s2"

    def test_random_deterministic_with_seed(self):
        a = RandomStrategy(np.random.default_rng(1))
        b = RandomStrategy(np.random.default_rng(1))
        picks_a = [a.select("A", self.candidates, frozenset(), self.beliefs) for _ in range(10)]
        picks_b = [b.select("A", self.candidates, frozenset(), self.beliefs) for _ in range(10)]
        assert picks_a == picks_b
        assert set(picks_a) <= set(self.candidates)

    def test_random_never_returns_tried(self):
        s = RandomStrategy(np.random.default_rng(0))
        for _ in range(20):
            got = s.select("A", self.candidates, frozenset({"s0", "s2"}), self.beliefs)
            assert got == "s3"
        assert s.select("A", self.candidates, frozenset(self.candidates), self.beliefs) is None

    def test_fixed_order(self):
        s = FixedOrderStrategy(["s2", "s0"])
        assert s.select("A", self.candidates, frozenset(), self.beliefs) == "s2"
        assert s.select("A", self.candidates, frozenset({"s2"}), self.beliefs) == "s0"
        # candidates not in the configured order come last
        assert (
            s.select("A", self.candidates, frozenset({"s2", "s0"}), self.beliefs)
            == "s3"
        )
