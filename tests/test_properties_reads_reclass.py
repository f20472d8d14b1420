"""Property tests for reconciled reads and dynamic reclassification."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_paper_system
from repro.core import UpdateKind
from repro.core.reads import ReadConsistency

SITES = ["site0", "site1", "site2"]
ITEMS = ["item0", "item1"]

updates = st.lists(
    st.tuples(
        st.sampled_from(SITES),
        st.sampled_from(ITEMS),
        st.integers(min_value=-25, max_value=25),
    ),
    max_size=20,
)


@settings(max_examples=30, deadline=None)
@given(updates, st.sampled_from(SITES))
def test_reconciled_read_always_recovers_ground_truth(ops, reader):
    """Whatever lazy-mode divergence the workload created, a reconciled
    read from any site returns exactly the ledger value."""
    system = build_paper_system(n_items=2, initial_stock=80.0, seed=1)

    def driver(env):
        for site, item, delta in ops:
            yield system.update(site, item, float(delta))
        results = {}
        for item in ITEMS:
            r = yield system.sites[reader].accelerator.read(
                item, ReadConsistency.RECONCILED
            )
            results[item] = r.value
        return results

    proc = system.env.process(driver(system.env))
    system.run()
    assert proc.ok
    for item in ITEMS:
        assert proc.value[item] == system.collector.ledger.true_value(item)


# Interleave updates with reclassification flips; every step must keep
# the class globally agreed and the values consistent with the ledger.
actions = st.lists(
    st.one_of(
        st.tuples(
            st.just("update"),
            st.sampled_from(SITES),
            st.sampled_from(ITEMS),
            st.integers(min_value=-20, max_value=20),
        ),
        st.tuples(
            st.just("flip"),
            st.sampled_from(SITES),
            st.sampled_from(ITEMS),
            st.just(0),
        ),
    ),
    max_size=16,
)


@settings(max_examples=30, deadline=None)
@given(actions, st.booleans())
def test_reclassification_chaos(action_list, start_regular):
    system = build_paper_system(
        n_items=2,
        initial_stock=80.0,
        regular_fraction=1.0 if start_regular else 0.0,
        seed=2,
    )

    def driver(env):
        for kind, site, item, delta in action_list:
            accel = system.sites[site].accelerator
            if kind == "update":
                yield system.update(site, item, float(delta))
            else:
                if accel.av_table.defined(item):
                    yield accel.make_non_regular(item)
                else:
                    yield accel.make_regular(item)
        return True

    proc = system.env.process(driver(system.env))
    system.run()
    assert proc.ok, proc.value
    system.check_invariants()

    ledger = system.collector.ledger
    for item in ITEMS:
        # All sites agree on the item's class.
        classes = {
            s.av_table.defined(item) for s in system.sites.values()
        }
        assert len(classes) == 1
        regular = classes.pop()
        if not regular:
            # Non-regular: replicas identical and equal to ground truth.
            values = {s.store.value(item) for s in system.sites.values()}
            assert values == {ledger.true_value(item)}
        else:
            # Regular: conservation bound.
            assert system.av_total(item) <= ledger.true_value(item)
