"""Extension — 2PC recovery under crash/restart churn.

The paper sketches Immediate Update as primary-copy locking and says
nothing about failures. This bench exercises the full recovery stack we
added — decision logs, idempotent commits, participant watchdogs, the
status-query termination protocol, and restart catch-up — under a
crash/restart churn while immediate updates keep flowing, and then
*proves* the non-regular replicas converged to the ledger.
"""

from conftest import once

from repro.cluster import build_paper_system
from repro.core import UpdateOutcome
from repro.metrics.report import text_table


def _run(seed=9, n_updates=160):
    system = build_paper_system(
        n_items=4,
        initial_stock=400.0,
        regular_fraction=0.0,  # all-immediate: worst case for faults
        seed=seed,
        request_timeout=5.0,
    )
    rng = system.rngs.stream("bench.churn")
    items = system.catalog.items()
    outcomes = {o: 0 for o in UpdateOutcome}

    def workload(env):
        for i in range(n_updates):
            site = f"site{(i % 2) + 1}"
            if system.sites[site].crashed:
                yield env.timeout(5.0)
                continue
            item = items[int(rng.integers(len(items)))]
            result = yield system.update(site, item, -float(rng.integers(1, 4)))
            outcomes[result.outcome] += 1
            yield env.timeout(5.0)

    def churn(env):
        victims = ["site0", "site2"]
        for round_ in range(6):
            yield env.timeout(120.0)
            victim = victims[round_ % 2]
            system.sites[victim].crash()
            yield env.timeout(40.0)
            system.sites[victim].restart()

    system.env.process(workload(system.env))
    system.env.process(churn(system.env))
    system.run()

    # Everyone is alive and drained now: replicas must agree.
    diverged = 0
    ledger = system.collector.ledger
    for item in items:
        values = {s.store.value(item) for s in system.sites.values()}
        if len(values) != 1 or values.pop() != ledger.true_value(item):
            diverged += 1
    pending = sum(
        len(s.accelerator.immediate._pending) for s in system.sites.values()
    )
    retries = sum(
        s.accelerator.immediate.retries for s in system.sites.values()
    )
    return outcomes, diverged, pending, retries


def bench_2pc_recovery(benchmark, save_result):
    outcomes, diverged, pending, retries = once(benchmark, _run)
    rows = [[o.value, n] for o, n in outcomes.items()]
    rows += [
        ["diverged items after churn", diverged],
        ["unresolved provisional txns", pending],
        ["decision resends", retries],
    ]
    save_result(
        "2pc_recovery",
        text_table(
            ["measure", "count"],
            rows,
            title="Extension — 2PC recovery under crash/restart churn",
        ),
    )

    committed = outcomes[UpdateOutcome.COMMITTED]
    assert committed > 0
    assert diverged == 0, "replicas must converge after churn"
    assert pending == 0, "no in-doubt state may survive"
    # Progress despite churn: most attempted updates commit (aborts are
    # the live-membership timeouts during crash races).
    total = sum(outcomes.values())
    assert committed / total > 0.7, outcomes
