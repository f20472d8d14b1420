"""Overhead bounds for the observability layer, census-style.

Two bounds, both using the same technique — count the hook invocations
a workload makes, micro-time one invocation, and assert ``calls ×
per-call cost`` stays under 5% of the workload's run time. This is
tighter than timing two runs A/B (which mostly measures OS noise at
these durations) because it isolates exactly the added work.

1. **Disabled instrumentation** (``bench_obs_disabled_overhead``): the
   span calls that stay in the protocol hot paths when
   ``config.observe`` is off all hit the null recorder; bound their
   total cost. Every entry point is counted and timed on its own: the
   recorder's ``start`` / ``open_row`` / ``write_row`` / ``keep_open``
   and ``finish`` / ``annotate`` on the null span ``start`` returns.
2. **Active profiler** (``bench_profiler_overhead``): with a
   :class:`~repro.obs.profile.Profiler` attached, every kernel event
   pays the step-timer + classification bookkeeping; bound that cost
   against the fig6-small workload (the CI ``profile-smoke`` shape).
"""

import time
import timeit
from collections import Counter

from conftest import once

from repro.cluster import build_paper_system
from repro.experiments import make_paper_trace
from repro.obs.hub import Observability
from repro.obs.spans import NULL_ROW, NULL_SPAN, NullSpanRecorder, _NullSpan
from repro.workload import run_closed

#: the acceptance bound: disabled instrumentation must stay under this
MAX_OVERHEAD = 0.05

N_UPDATES = 1000
SEED = 0
N_ITEMS = 10


class _CountingNullSpan(_NullSpan):
    """:data:`NULL_SPAN`'s twin that counts calls to its mutators."""

    __slots__ = ("calls",)

    def __init__(self, calls: Counter) -> None:
        super().__init__()
        self.calls = calls

    def finish(self, now, **attrs):
        self.calls["Span.finish"] += 1
        return self

    def annotate(self, **attrs):
        self.calls["Span.annotate"] += 1


class CountingNullRecorder(NullSpanRecorder):
    """Null recorder that counts every entry point (overhead census)."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()
        self._span = _CountingNullSpan(self.calls)

    def start(self, name, site, now, trace=None, parent=None, **attrs):
        self.calls["start"] += 1
        return self._span

    def open_row(self, parent=None, trace=None):
        self.calls["open_row"] += 1
        return NULL_ROW

    def write_row(self, row, name, site, start, end, keys=(), values=()):
        self.calls["write_row"] += 1

    def keep_open(self, row, name, site, start, keys=(), values=()):
        self.calls["keep_open"] += 1


def _per_call_costs() -> dict:
    """Seconds per call of each null entry point, with the argument
    shapes the protocol code passes."""
    null = NullSpanRecorder()
    calls = {
        "start": lambda: null.start(
            "av.request", "s", 0.0, parent=NULL_SPAN, target="t", amount=1.0
        ),
        "open_row": lambda: null.open_row(NULL_ROW),
        "write_row": lambda: null.write_row(
            NULL_ROW, "delay.apply", "s", 0.0, 0.0, ("item",), ("i",)
        ),
        "keep_open": lambda: null.keep_open(NULL_ROW, "delay.apply", "s", 0.0),
        "Span.finish": lambda: NULL_SPAN.finish(0.0, granted=1.0),
        "Span.annotate": lambda: NULL_SPAN.annotate(granted=1.0),
    }
    reps = 100_000
    return {
        name: timeit.timeit(fn, number=reps) / reps
        for name, fn in calls.items()
    }


def _run_unobserved() -> float:
    """One unobserved Fig. 6 workload; returns wall-clock seconds."""
    system = build_paper_system(n_items=N_ITEMS, seed=SEED)
    trace = make_paper_trace(N_UPDATES, seed=SEED, n_items=N_ITEMS)
    t0 = time.perf_counter()
    run_closed(system, trace)
    return time.perf_counter() - t0


def _count_null_calls() -> Counter:
    """Replay the same workload counting every null-recorder call."""
    system = build_paper_system(n_items=N_ITEMS, seed=SEED)
    counting = Observability(enabled=False)
    counting.recorder = CountingNullRecorder()
    for site in system.sites.values():
        site.accelerator.obs = counting
    trace = make_paper_trace(N_UPDATES, seed=SEED, n_items=N_ITEMS)
    run_closed(system, trace)
    return counting.recorder.calls


def bench_obs_disabled_overhead(benchmark, save_result):
    run_seconds = min(once(benchmark, _run_unobserved), _run_unobserved())

    calls = _count_null_calls()
    assert sum(calls.values()) > 0, "instrumented paths made no recorder calls?"

    per_call = _per_call_costs()
    added = sum(calls[name] * cost for name, cost in per_call.items())
    overhead = added / run_seconds
    report = [
        f"workload             : fig6 proposal, n={N_UPDATES} updates",
        f"run time (unobserved): {run_seconds * 1e3:.1f} ms",
        "null entry point     :    calls  per call",
    ]
    report += [
        f"  {name:<19}: {calls[name]:>8}  {cost * 1e9:>5.0f} ns"
        for name, cost in per_call.items()
    ]
    report += [
        f"null calls per update: {sum(calls.values()) / N_UPDATES:.3f}",
        f"added cost           : {added * 1e6:.0f} us",
        f"estimated overhead   : {overhead:.3%} (bound {MAX_OVERHEAD:.0%})",
    ]
    report = "\n".join(report)
    save_result("obs_overhead", report)
    assert overhead < MAX_OVERHEAD, report


# -------------------------------------------------------------------- #
# active profiler overhead (the CI profile-smoke workload)
# -------------------------------------------------------------------- #

PROFILE_UPDATES = 200  # fig6-small profile shape (repro profile fig6 --small)


def _run_profile_workload() -> float:
    """One fig6-small workload without the profiler; wall seconds."""
    from repro.experiments import run_fig6

    t0 = time.perf_counter()
    run_fig6(n_updates=PROFILE_UPDATES, seed=SEED, n_items=N_ITEMS)
    return time.perf_counter() - t0


def _count_profiled_events() -> int:
    """Events the profiler attributes on the same workload."""
    from repro.experiments import run_fig6
    from repro.obs.profile import Profiler

    profiler = Profiler()
    with profiler:
        run_fig6(n_updates=PROFILE_UPDATES, seed=SEED, n_items=N_ITEMS)
    return profiler.events_attributed


def _per_event_profiler_cost() -> float:
    """Micro-time the profiler's per-event bookkeeping.

    Replicates exactly what the step wrapper and dispatch hook add per
    kernel event: a (cached) classification of the event's code object
    plus two clock reads and the stats update. The generator below plays
    the resumed process; its code object is cache-warm after the first
    call, matching the steady state of a real run.
    """
    from repro.obs.profile import Profiler

    profiler = Profiler()

    def _workload_gen():
        yield  # pragma: no cover - never driven, only classified

    generator = _workload_gen()

    class _Event:
        _generator = generator

    event = _Event()
    stats = profiler._stats
    perf = time.perf_counter

    def tick():
        current = profiler._classify(event, ())
        start = perf()
        elapsed = perf() - start
        stat = stats.get(current)
        if stat is None:
            stat = stats[current] = [0, 0.0]
        stat[0] += 1
        stat[1] += elapsed

    tick()  # warm the code-object cache
    reps = 100_000
    return timeit.timeit(tick, number=reps) / reps


def bench_profiler_overhead(benchmark, save_result):
    run_seconds = min(
        once(benchmark, _run_profile_workload), _run_profile_workload()
    )

    events = _count_profiled_events()
    assert events > 0, "profiler attributed no events?"

    per_event = _per_event_profiler_cost()
    added = events * per_event
    overhead = added / run_seconds
    report = "\n".join([
        f"workload             : fig6 proposal, n={PROFILE_UPDATES} updates",
        f"run time (unprofiled): {run_seconds * 1e3:.1f} ms",
        f"profiled events      : {events}",
        f"per-event cost       : {per_event * 1e9:.0f} ns",
        f"added cost           : {added * 1e6:.0f} us",
        f"estimated overhead   : {overhead:.3%} (bound {MAX_OVERHEAD:.0%})",
    ])
    save_result("profiler_overhead", report)
    assert overhead < MAX_OVERHEAD, report
