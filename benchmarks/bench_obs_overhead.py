"""Cost gate for the observability layer: disabled instrumentation
makes no call (``bench_obs_disabled_calls``).

Two unobserved runs replay with a null recorder that counts every entry
point — the recorder's ``start`` / ``open_span`` / ``close_span`` /
``open_row`` / ``write_row`` / ``keep_open`` / ``open_tree`` /
``write_tree`` / ``break_tree`` / ``open_pair`` / ``write_pair``, and
``finish`` on the null handle ``start`` returns, wherever it is called.
One is a fig6 run, which has no non-regular item; the other an
all-immediate open-loop run, where every update is a 2PC round (lock
waits, prepares, the commit or abort, each participant's apply). The
gate is zero calls on both: every span site tests ``rec.enabled`` first,
so an unobserved run builds no span arguments and makes no recorder
call.

The same gate covers the event stream: with no subscriber, every emit
site tests ``obs.event_subscribers`` first, so an unobserved run makes
no ``Observability.emit`` call. It is counted on the fig6 run and on a
run with the robustness layers on (reliability and overload, half the
catalogue non-regular), whose leases and overload controller emit.
"""

from collections import Counter

from repro.cluster import build_paper_system
from repro.core.overload import OverloadParams
from repro.experiments import make_paper_trace
from repro.net import ReliabilityParams
from repro.obs.hub import Observability
from repro.obs.spans import NULL_ROW, NullSpanRecorder
from repro.workload import run_closed
from repro.workload.driver import run_open, split_by_site

N_UPDATES = 1000
SEED = 0
N_ITEMS = 10
#: the robustness-on run's size
ROBUST_UPDATES = 500
#: the all-immediate run's size and arrival spacing
IMMEDIATE_UPDATES = 400
IMMEDIATE_INTERARRIVAL = 0.5

#: every recorder entry point, then the null handle's ``finish``
ENTRY_POINTS = ("start", "open_span", "close_span", "open_row", "write_row",
                "keep_open", "open_tree", "write_tree", "break_tree",
                "open_pair", "write_pair", "handle.finish")

#: the class of the null handle ``NullSpanRecorder.start`` returns
NullHandle = type(NullSpanRecorder().start("probe", "site0", 0.0))


class CountingNullRecorder(NullSpanRecorder):
    """Null recorder that counts every entry point (call census)."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def start(self, *args, **kwargs):
        self.calls["start"] += 1
        return super().start(*args, **kwargs)

    def open_span(self, *args, **kwargs):
        self.calls["open_span"] += 1
        return NULL_ROW

    def close_span(self, *args):
        self.calls["close_span"] += 1

    def open_row(self, parent=None, trace=None):
        self.calls["open_row"] += 1
        return NULL_ROW

    def write_row(self, *args):
        self.calls["write_row"] += 1

    def keep_open(self, *args):
        self.calls["keep_open"] += 1

    def open_tree(self, push):
        self.calls["open_tree"] += 1
        return 0

    def write_tree(self, *args):
        self.calls["write_tree"] += 1

    def break_tree(self, *args):
        self.calls["break_tree"] += 1

    def open_pair(self, *args, **kwargs):
        self.calls["open_pair"] += 1
        return NULL_ROW, NULL_ROW

    def write_pair(self, *args, **kwargs):
        self.calls["write_pair"] += 1


def _count_null_calls(system, run) -> Counter:
    """Run ``run()`` on the unobserved ``system`` counting every null
    call, the null handle's ``finish`` included (counted on its class,
    so a handle from anywhere counts)."""
    recorder = system.obs.recorder = CountingNullRecorder()
    finish = NullHandle.finish

    def counted_finish(handle, now, **attrs):
        recorder.calls["handle.finish"] += 1
        return handle

    NullHandle.finish = counted_finish
    try:
        run()
    finally:
        NullHandle.finish = finish
    return recorder.calls


def _fig6_calls() -> Counter:
    """An unobserved Fig. 6 replay."""
    system = build_paper_system(n_items=N_ITEMS, seed=SEED)
    trace = make_paper_trace(N_UPDATES, seed=SEED, n_items=N_ITEMS)
    return _count_null_calls(system, lambda: run_closed(system, trace))


def _immediate_calls() -> Counter:
    """An unobserved all-immediate open-loop run: every update is 2PC."""
    system = build_paper_system(n_items=N_ITEMS, seed=SEED,
                                regular_fraction=0.0)
    trace = make_paper_trace(IMMEDIATE_UPDATES, seed=SEED, n_items=N_ITEMS)
    return _count_null_calls(system, lambda: run_open(
        system, split_by_site(trace), interarrival=IMMEDIATE_INTERARRIVAL,
    ))


def _count_emits(system, n_updates: int) -> int:
    """Replay ``n_updates`` paper updates on ``system`` counting every
    ``Observability.emit`` call (counted on the class, so every hub)."""
    calls = 0
    emit = Observability.emit

    def counted(hub, kind, now, **fields):
        nonlocal calls
        calls += 1
        emit(hub, kind, now, **fields)

    Observability.emit = counted
    try:
        run_closed(system, make_paper_trace(n_updates, seed=SEED, n_items=N_ITEMS))
    finally:
        Observability.emit = emit
    return calls


def bench_obs_disabled_calls(save_result):
    runs = (
        (f"fig6 proposal, n={N_UPDATES}", N_UPDATES, _fig6_calls()),
        (f"all-immediate 2PC, open loop, n={IMMEDIATE_UPDATES}",
         IMMEDIATE_UPDATES, _immediate_calls()),
    )
    fig6_emits = _count_emits(
        build_paper_system(n_items=N_ITEMS, seed=SEED), N_UPDATES
    )
    robust_emits = _count_emits(
        build_paper_system(
            n_items=N_ITEMS, seed=SEED, regular_fraction=0.5,
            reliability=ReliabilityParams(), overload=OverloadParams(),
        ),
        ROBUST_UPDATES,
    )
    report = []
    for name, n_updates, calls in runs:
        report += [
            f"workload             : {name} updates, unobserved",
            "null entry point     :    calls",
        ]
        report += [f"  {point:<19}: {calls[point]:>8}"
                   for point in ENTRY_POINTS]
        report.append(
            f"null calls per update: {sum(calls.values()) / n_updates:.3f}"
            " (gate: 0)"
        )
    report += [
        "emit calls (gate: 0) :    calls",
        f"  fig6 proposal      : {fig6_emits:>8}",
        f"  robustness on      : {robust_emits:>8}"
        f"  (reliability + overload, regular 0.5, n={ROBUST_UPDATES})",
    ]
    report = "\n".join(report)
    save_result("obs_overhead", report)
    assert all(sum(calls.values()) == 0 for _, _, calls in runs), report
    assert fig6_emits == 0 and robust_emits == 0, report
