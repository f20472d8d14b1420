"""Cost gate for the observability layer: disabled instrumentation
makes no call (``bench_obs_disabled_calls``).

An unobserved fig6 run replays with a null recorder that counts every
entry point — the recorder's ``start`` / ``open_row`` / ``write_row`` /
``keep_open`` / ``open_tree`` / ``write_tree`` / ``break_tree`` /
``open_pair`` / ``close_pair`` / ``write_pair``, and ``finish`` /
``annotate`` on any null span, the shared ``NULL_SPAN`` included. The
gate is zero calls: every span site tests ``rec.enabled`` (or for a
null root) first, so an unobserved run builds no span arguments and
makes no recorder call.

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
from repro.obs.spans import NULL_ROW, NULL_SPAN, NullSpanRecorder, _NullSpan
from repro.workload import run_closed

N_UPDATES = 1000
SEED = 0
N_ITEMS = 10
#: the robustness-on run's size
ROBUST_UPDATES = 500

#: every recorder entry point, then the null span's mutators
ENTRY_POINTS = ("start", "open_row", "write_row", "keep_open", "open_tree",
                "write_tree", "break_tree", "open_pair", "close_pair",
                "write_pair", "Span.finish", "Span.annotate")


class CountingNullRecorder(NullSpanRecorder):
    """Null recorder that counts every entry point (call census)."""

    def __init__(self):
        super().__init__()
        self.calls = Counter()

    def start(self, name, site, now, trace=None, parent=None, **attrs):
        self.calls["start"] += 1
        return NULL_SPAN

    def open_row(self, parent=None, trace=None):
        self.calls["open_row"] += 1
        return NULL_ROW

    def write_row(self, row, name, site, start, end, keys=(), values=()):
        self.calls["write_row"] += 1

    def keep_open(self, row, name, site, start, keys=(), values=()):
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

    def close_pair(self, *args):
        self.calls["close_pair"] += 1

    def write_pair(self, *args, **kwargs):
        self.calls["write_pair"] += 1


def _count_null_calls() -> Counter:
    """Replay an unobserved Fig. 6 workload counting every null call,
    the null span's mutators included (counted on the class, so the
    shared ``NULL_SPAN`` a disabled root returns counts too)."""
    system = build_paper_system(n_items=N_ITEMS, seed=SEED)
    recorder = system.obs.recorder = CountingNullRecorder()
    trace = make_paper_trace(N_UPDATES, seed=SEED, n_items=N_ITEMS)
    finish, annotate = _NullSpan.finish, _NullSpan.annotate

    def counted_finish(span, now, **attrs):
        recorder.calls["Span.finish"] += 1
        return span

    def counted_annotate(span, **attrs):
        recorder.calls["Span.annotate"] += 1

    _NullSpan.finish, _NullSpan.annotate = counted_finish, counted_annotate
    try:
        run_closed(system, trace)
    finally:
        _NullSpan.finish, _NullSpan.annotate = finish, annotate
    return recorder.calls


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
    calls = _count_null_calls()
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
    report = [
        f"workload             : fig6 proposal, n={N_UPDATES} updates, unobserved",
        "null entry point     :    calls",
    ]
    report += [f"  {name:<19}: {calls[name]:>8}" for name in ENTRY_POINTS]
    report.append(
        f"null calls per update: {sum(calls.values()) / N_UPDATES:.3f}"
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
    assert sum(calls.values()) == 0, report
    assert fig6_emits == 0 and robust_emits == 0, report
