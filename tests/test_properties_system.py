"""System-level property tests: conservation, convergence, determinism.

These drive the full stack (kernel + network + DB + protocols) with
hypothesis-generated workloads and check the DESIGN.md §7 invariants
after every run.
"""

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import DistributedSystem, SystemConfig, build_paper_system
from repro.workload import WorkloadEvent, run_closed

SITES = ["site0", "site1", "site2"]

events = st.lists(
    st.tuples(
        st.sampled_from(SITES),
        st.sampled_from(["item0", "item1"]),
        st.integers(min_value=-40, max_value=40),
    ),
    max_size=25,
)

slow = settings(
    max_examples=25,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def drive(system, ops):
    stream = [
        WorkloadEvent(site, item, float(delta)) for site, item, delta in ops
    ]
    return run_closed(system, stream)


@slow
@given(events)
def test_delay_invariants_hold_for_any_workload(ops):
    """Invariants 1 & 2 after an arbitrary delay-update workload."""
    system = build_paper_system(n_items=2, initial_stock=60.0, seed=0)
    drive(system, ops)
    system.check_invariants()
    # Exact conservation (integer workload): AV total + net committed
    # decrements == initial pool + committed mints.
    for item in ("item0", "item1"):
        true_value = system.collector.ledger.true_value(item)
        assert system.av_total(item) <= true_value
        assert true_value >= 0


@slow
@given(events)
def test_propagation_converges_for_any_workload(ops):
    """Quiescent convergence: replicas == ground truth (invariant 4')."""
    system = build_paper_system(
        n_items=2, initial_stock=60.0, seed=0, propagate=True
    )
    drive(system, ops)
    system.run()  # drain propagation traffic
    system.check_invariants(quiescent=True)


@slow
@given(events)
def test_immediate_invariants_hold_for_any_workload(ops):
    """All-immediate catalogue: replicas identical after every run."""
    system = DistributedSystem.build(
        SystemConfig(n_items=2, initial_stock=60.0, regular_fraction=0.0, seed=0)
    )
    results = drive(system, ops)
    system.check_invariants()
    values = {
        item: {s.store.value(item) for s in system.sites.values()}
        for item in ("item0", "item1")
    }
    for item, vals in values.items():
        assert len(vals) == 1, f"{item} diverged: {vals}"
        assert vals.pop() == system.collector.ledger.true_value(item)
    # Commit/abort outcomes must exactly explain the ledger.
    committed_delta = sum(
        r.request.delta for r in results if r.committed and r.request.item == "item0"
    )
    assert (
        system.collector.ledger.true_value("item0") == 60.0 + committed_delta
    )


@slow
@given(events, st.integers(min_value=0, max_value=2**16))
def test_determinism_same_seed_same_everything(ops, seed):
    """Invariant 5: bit-identical reruns (stats, values, AV, outcomes)."""

    def run_once():
        system = build_paper_system(n_items=2, initial_stock=60.0, seed=seed)
        results = drive(system, ops)
        return (
            system.stats.sent_total,
            dict(system.stats.by_site),
            [s.store.as_dict() for s in system.sites.values()],
            [s.av_table.as_dict() for s in system.sites.values()],
            [r.outcome for r in results],
            system.env.now,
        )

    assert run_once() == run_once()
