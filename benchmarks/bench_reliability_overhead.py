"""Fault-free cost bound for the robustness layer.

The reliability machinery (ack/retransmit sessions, AV grant leases,
the rejoin gate check in every update) must be essentially free when
nothing fails. Two assertions over the Fig. 6 proposal workload, run
A/B with ``reliability`` off (the seed path) and on:

1. **Accounting is untouched**: the paper's metric — update-tag
   (``av``/``imm``/``central``) message counts — is identical in both
   runs. Session control traffic rides other tags (``rel``, ``lease``)
   and the propagation acks double existing ``prop`` replies, none of
   which Fig. 6 counts.
2. **Wall time stays within 5%** (min-of-2 per side, with a small
   absolute floor so sub-millisecond jitter on a fast run cannot flake
   the job).
3. **The layer-on run does exactly its known work**: the kernel events
   it processes, the messages it sends and the ``lease`` acks among
   them are pinned counts. This half is exact, so it fails on any host
   when a fault-free run gains an event or a message; the seed path's
   counts are printed beside them.
"""

import time

from conftest import once

from repro.cluster import build_paper_system
from repro.core import UPDATE_TAGS
from repro.experiments import make_paper_trace
from repro.net import ReliabilityParams
from repro.workload import run_closed

#: relative bound on added wall time with reliability on, fault-free
MAX_OVERHEAD = 0.05
#: absolute slack (seconds) under which the relative bound is waived
ABS_FLOOR = 0.050

N_UPDATES = 1000
SEED = 0
N_ITEMS = 10

#: the layer-on run's kernel events, messages and lease acks (with
#: reliability off the same run processes 1 997 events, 554 messages)
ON_EVENTS = 2769
ON_MESSAGES = 747
ON_LEASE_MESSAGES = 193


def _run(reliability):
    """One Fig. 6 workload; returns (wall seconds, update-tag counts,
    (kernel events, messages sent, ``lease`` messages))."""
    system = build_paper_system(
        n_items=N_ITEMS, seed=SEED, reliability=reliability
    )
    trace = make_paper_trace(N_UPDATES, seed=SEED, n_items=N_ITEMS)
    t0 = time.perf_counter()
    run_closed(system, trace)
    elapsed = time.perf_counter() - t0
    stats = system.stats
    counts = {tag: stats.by_tag[tag] for tag in sorted(UPDATE_TAGS)}
    work = (system.env.events_processed, stats.sent_total, stats.by_tag["lease"])
    return elapsed, counts, work


def bench_reliability_overhead(benchmark):
    base_time, base_counts, base_work = once(benchmark, _run, None)
    base_time = min(base_time, _run(None)[0])

    on_time, on_counts, on_work = _run(ReliabilityParams())
    on_time = min(on_time, _run(ReliabilityParams())[0])

    added = on_time - base_time
    overhead = added / base_time
    report = "\n".join([
        f"workload              : fig6 proposal, n={N_UPDATES} updates",
        f"run time (seed path)  : {base_time * 1e3:.1f} ms",
        f"run time (reliability): {on_time * 1e3:.1f} ms",
        f"update-tag messages   : off={base_counts} on={on_counts}",
        f"events/messages/lease : off={base_work} on={on_work}",
        f"added wall time       : {added * 1e3:.1f} ms"
        f" ({overhead:.3%}, bound {MAX_OVERHEAD:.0%}"
        f" or {ABS_FLOOR * 1e3:.0f} ms floor)",
    ])
    print(f"\n{report}\n")

    assert base_counts == on_counts, report
    assert on_work == (ON_EVENTS, ON_MESSAGES, ON_LEASE_MESSAGES), report
    assert overhead < MAX_OVERHEAD or added < ABS_FLOOR, report
