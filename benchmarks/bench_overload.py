"""Calm-workload cost bound for the overload/degradation layer.

The overload machinery (admission check per update, breaker consult on
the 2PC path, pressure evaluation on protocol edges) must be essentially
free when the workload is gentle — the layer exists for surges, and a
calm system should not pay for it. Two assertions over the Fig. 6
proposal workload, run A/B with ``overload=None`` (the seed path) and
with the layer attached at default budgets:

1. **Accounting is untouched**: the paper's metric — update-tag
   (``av``/``imm``/``central``) message counts — is identical in both
   runs, and the calm run sheds nothing, demotes nothing, and never
   leaves NORMAL (the §4 walk never gets near a default budget).
2. **Wall time stays within 5%** (min-of-2 per side, with a small
   absolute floor so sub-millisecond jitter on a fast run cannot flake
   the job).
3. **The kernel does the same work**: the layer-on run processes
   exactly as many kernel events as the seed path. This half is exact,
   so it fails on any host when the calm run gains an event.
"""

import time

from conftest import once

from repro.cluster import build_paper_system
from repro.core import UPDATE_TAGS
from repro.core.overload import DegradationState, OverloadParams
from repro.experiments import make_paper_trace
from repro.workload import run_closed

#: relative bound on added wall time with the layer on, calm workload
MAX_OVERHEAD = 0.05
#: absolute slack (seconds) under which the relative bound is waived
ABS_FLOOR = 0.050

N_UPDATES = 1000
SEED = 0
N_ITEMS = 10


def _run(overload):
    """One Fig. 6 workload; returns (wall s, tag counts, controllers,
    kernel events processed)."""
    system = build_paper_system(
        n_items=N_ITEMS, seed=SEED, overload=overload
    )
    trace = make_paper_trace(N_UPDATES, seed=SEED, n_items=N_ITEMS)
    t0 = time.perf_counter()
    run_closed(system, trace)
    elapsed = time.perf_counter() - t0
    counts = {tag: system.stats.by_tag[tag] for tag in sorted(UPDATE_TAGS)}
    controllers = [
        system.sites[name].accelerator.overload
        for name in sorted(system.sites)
    ]
    return elapsed, counts, controllers, system.env.events_processed


def bench_overload_overhead(benchmark):
    base_time, base_counts, _, base_events = once(benchmark, _run, None)
    base_time = min(base_time, _run(None)[0])

    on_time, on_counts, controllers, on_events = _run(OverloadParams())
    on_time = min(on_time, _run(OverloadParams())[0])

    sheds = sum(c.shed for c in controllers)
    demotions = sum(c.demotions for c in controllers)
    transitions = sum(len(c.transitions) for c in controllers)
    states = [c.state for c in controllers]

    added = on_time - base_time
    overhead = added / base_time
    report = "\n".join([
        f"workload             : fig6 proposal, n={N_UPDATES} updates",
        f"run time (seed path) : {base_time * 1e3:.1f} ms",
        f"run time (overload)  : {on_time * 1e3:.1f} ms",
        f"update-tag messages  : off={base_counts} on={on_counts}",
        f"kernel events        : off={base_events} on={on_events}",
        f"layer activity       : sheds={sheds} demotions={demotions}"
        f" transitions={transitions}",
        f"added wall time      : {added * 1e3:.1f} ms"
        f" ({overhead:.3%}, bound {MAX_OVERHEAD:.0%}"
        f" or {ABS_FLOOR * 1e3:.0f} ms floor)",
    ])
    print(f"\n{report}\n")

    assert base_counts == on_counts, report
    assert on_events == base_events, report
    assert sheds == 0 and demotions == 0 and transitions == 0, report
    assert all(s is DegradationState.NORMAL for s in states), report
    assert overhead < MAX_OVERHEAD or added < ABS_FLOOR, report
