"""Property-based tests for AV tables, policies and the sim kernel."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    AVTable,
    Belief,
    BeliefTable,
    ExactPolicy,
    GrantAllPolicy,
    OverdraftPolicy,
    ProportionalPolicy,
    Soda99Policy,
)
from repro.sim import Environment

# ---------------------------------------------------------------------- #
# AV table conservation
# ---------------------------------------------------------------------- #

av_ops = st.lists(
    st.tuples(
        st.sampled_from(
            ["add", "take_up_to", "take_all", "take_if_covered", "hold_cycle"]
        ),
        st.integers(min_value=0, max_value=40),
    ),
    max_size=40,
)


@given(st.integers(min_value=0, max_value=100), av_ops)
def test_av_table_conserves_and_never_negative(initial, ops):
    """Invariants 1 & 2 at the table level: no volume invented, none < 0."""
    table = AVTable("prop")
    table.define("A", float(initial))
    external = 0.0  # volume currently outside the table (taken or held)

    for op, amount in ops:
        if op == "add":
            # Return some previously removed volume (never invent new).
            back = min(external, amount)
            table.add("A", back)
            external -= back
        elif op == "take_up_to":
            external += table.take_up_to("A", amount)
        elif op == "take_all":
            external += table.take_all("A")
        elif op == "take_if_covered":
            # All or nothing: the take happens iff the table covers it.
            covered = amount <= table.get("A")
            assert table.take_if_covered("A", amount) is covered
            if covered:
                external += amount
        elif op == "hold_cycle":
            hold = table.hold("A")
            hold.add(table.take_up_to("A", amount))
            if amount % 2 == 0:
                hold.release()  # everything returns
            else:
                consumed = hold.amount
                hold.consume(consumed)
                external += consumed
        assert table.get("A") >= 0.0
        assert table.get("A") + external == initial


# ---------------------------------------------------------------------- #
# a seeded belief table reads as one that observed the deal
# ---------------------------------------------------------------------- #

HOLDER = "s1"
PEERS = ["s0", "s1", "s2", "s3"]
ITEMS = ["A", "B", "C"]  # C is never dealt

deals = st.fixed_dictionaries(
    {
        item: st.permutations(PEERS).flatmap(
            lambda order: st.lists(
                st.integers(min_value=0, max_value=5).map(float),
                min_size=1, max_size=len(order),
            ).map(lambda vols: {p: Belief(v, 0.0) for p, v in zip(order, vols)})
        )
        for item in ITEMS[:2]
    }
)
belief_ops = st.lists(
    st.one_of(
        st.tuples(
            st.just("observe"),
            st.sampled_from(PEERS),
            st.sampled_from(ITEMS),
            st.integers(min_value=0, max_value=5).map(float),
            st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.0]),
        ),
        st.tuples(st.just("forget"), st.sampled_from(PEERS)),
        st.tuples(
            st.just("rank"), st.sampled_from(ITEMS),
            st.lists(st.sampled_from(PEERS), unique=True),
        ),
    ),
    max_size=30,
)


@given(deals, belief_ops)
def test_seeded_table_reads_as_an_observed_one(dealt, ops):
    """``seed`` shares the deal; every read, ``entries()`` order, ``len``
    and ``observations`` equal a table that observed the deal at t=0."""
    snapshot = {item: dict(deal) for item, deal in dealt.items()}
    seeded, reference = BeliefTable(HOLDER), BeliefTable(HOLDER)
    for item, deal in dealt.items():
        seeded.seed(item, deal)
        for peer, belief in deal.items():
            if peer != HOLDER:
                reference.observe(peer, item, belief.volume, 0.0)

    def assert_same():
        assert list(seeded.entries()) == list(reference.entries())
        assert len(seeded) == len(reference)
        assert seeded.observations == reference.observations
        for peer in PEERS:
            for item in ITEMS:
                assert seeded.belief(peer, item) == reference.belief(peer, item)
                assert seeded.believed_volume(peer, item) == (
                    reference.believed_volume(peer, item)
                )

    assert_same()
    for op in ops:
        if op[0] == "observe":
            seeded.observe(*op[1:])
            reference.observe(*op[1:])
        elif op[0] == "forget":
            seeded.forget_peer(op[1])
            reference.forget_peer(op[1])
        else:
            _, item, candidates = op
            tried: set[str] = set()
            while True:  # every pick, each joining ``tried`` in turn
                pick = seeded.richest(item, candidates, tried)
                assert pick == reference.richest(item, candidates, tried)
                if pick is None:
                    break
                tried.add(pick)
        assert_same()
    assert dealt == snapshot  # nothing wrote through the shared deal


# ---------------------------------------------------------------------- #
# policy laws
# ---------------------------------------------------------------------- #

policies = st.sampled_from(
    [
        Soda99Policy(),
        GrantAllPolicy(),
        ExactPolicy(),
        ProportionalPolicy(0.3),
        ProportionalPolicy(1.0),
        OverdraftPolicy(1.5),
    ]
)
#: volumes are whole numbers of units
volumes = st.integers(min_value=0, max_value=10_000).map(float)


@given(policies, volumes, volumes)
def test_grant_bounds_law(policy, available, requested):
    """0 <= grant <= available, for every policy and every input."""
    grant = policy.grant_amount(available, requested)
    assert 0.0 <= grant <= available


@given(policies, st.integers(min_value=0, max_value=10**6).map(float))
def test_request_at_least_shortage(policy, shortage):
    """No policy asks for less than the outstanding shortage."""
    assert policy.request_amount(shortage) >= shortage


@given(st.integers(min_value=1, max_value=10**6))
def test_soda99_integral_grants_make_progress(available):
    """Integral holdings always grant >= 1 unit (no livelock)."""
    grant = Soda99Policy().grant_amount(float(available), 1.0)
    assert grant >= 1.0
    assert float(grant).is_integer()


# ---------------------------------------------------------------------- #
# simulation kernel ordering
# ---------------------------------------------------------------------- #

@given(st.lists(st.floats(min_value=0.0, max_value=1000.0, allow_nan=False), max_size=30))
def test_events_always_fire_in_time_order(delays):
    """Invariant 6: nondecreasing firing times, FIFO at equal times."""
    env = Environment()
    fired = []

    def waiter(env, idx, delay):
        yield env.timeout(delay)
        fired.append((env.now, idx))

    for idx, delay in enumerate(delays):
        env.process(waiter(env, idx, delay))
    env.run()

    times = [t for t, _ in fired]
    assert times == sorted(times)
    # FIFO among equal-time events: indexes increase within a time group.
    for (t1, i1), (t2, i2) in zip(fired, fired[1:]):
        if t1 == t2:
            assert i1 < i2


@given(st.integers(min_value=0, max_value=2**31 - 1))
def test_rng_streams_reproducible(seed):
    from repro.sim import RngRegistry

    a = RngRegistry(seed).stream("x").integers(0, 1000, 5).tolist()
    b = RngRegistry(seed).stream("x").integers(0, 1000, 5).tolist()
    assert a == b
