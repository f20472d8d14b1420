"""Overhead of the runtime protocol sanitizer, disabled and enabled.

The sanitizer's event sources stay in the hot paths even when
``config.sanitize`` is off: AV tables, lock managers, the network and
the protocols each test their kind's subscriber list (a tap) before
building an event. Same method as ``bench_obs_overhead``:

1. run the Fig. 6 proposal workload unsanitized and time it;
2. replay the workload with one counting subscriber on every kind to
   census how many events, and so how many guards, fire;
3. micro-time the one disabled guard (an empty tap);
4. assert the summed added cost is under 5% of the run time.

The enabled cost is printed, not gated: the same workload sanitized
against unsanitized, best of ``ENABLED_REPEATS`` runs each, alternated.
"""

import time
import timeit

from conftest import once

from repro.cluster import build_paper_system
from repro.experiments import make_paper_trace
from repro.workload import run_closed

#: the acceptance bound: disabled sanitizer hooks must stay under this
MAX_OVERHEAD = 0.05

N_UPDATES = 1000
SEED = 0
N_ITEMS = 10
#: runs of each arm behind the printed enabled cost (best of)
ENABLED_REPEATS = 25


def _run_unsanitized(sanitize: bool = False) -> float:
    """One Fig. 6 workload; returns wall-clock seconds."""
    system = build_paper_system(n_items=N_ITEMS, seed=SEED, sanitize=sanitize)
    trace = make_paper_trace(N_UPDATES, seed=SEED, n_items=N_ITEMS)
    t0 = time.perf_counter()
    run_closed(system, trace)
    return time.perf_counter() - t0


def _census() -> int:
    """Replay the workload counting every event its guards let through."""
    system = build_paper_system(n_items=N_ITEMS, seed=SEED)
    events = 0

    def count(kind, now, fields):
        nonlocal events
        events += 1

    system.obs.subscribe_fields(count)
    trace = make_paper_trace(N_UPDATES, seed=SEED, n_items=N_ITEMS)
    run_closed(system, trace)
    return events


def bench_sanitizer_disabled_overhead(benchmark):
    run_seconds = min(once(benchmark, _run_unsanitized), _run_unsanitized())

    guards = _census()
    assert guards > 0, "hooked paths never fired?"

    reps = 100_000
    table = build_paper_system(n_items=1).site("site0").av_table

    def _guard():
        if table._on_take:
            pass

    per_guard = timeit.timeit(_guard, number=reps) / reps

    added = guards * per_guard
    overhead = added / run_seconds

    plain, sanitized = [], []
    for _ in range(ENABLED_REPEATS):
        plain.append(_run_unsanitized())
        sanitized.append(_run_unsanitized(sanitize=True))
    enabled = min(sanitized) / min(plain) - 1.0
    report = "\n".join([
        f"workload               : fig6 proposal, n={N_UPDATES} updates",
        f"run time (unsanitized) : {run_seconds * 1e3:.1f} ms",
        f"subscriber-list guards : {guards} x {per_guard * 1e9:.0f} ns",
        f"added cost             : {added * 1e6:.0f} us",
        f"estimated overhead     : {overhead:.3%} (bound {MAX_OVERHEAD:.0%})",
        f"enabled, best of {ENABLED_REPEATS}    : {min(sanitized) * 1e3:.1f} ms"
        f" sanitized vs {min(plain) * 1e3:.1f} ms unsanitized"
        f" ({enabled:+.1%}, not gated)",
    ])
    print(f"\n{report}\n")
    assert overhead < MAX_OVERHEAD, report
