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
"""

from collections import Counter

from repro.cluster import build_paper_system
from repro.experiments import make_paper_trace
from repro.obs.hub import Observability
from repro.obs.spans import NULL_ROW, NULL_SPAN, NullSpanRecorder, _NullSpan
from repro.workload import run_closed

N_UPDATES = 1000
SEED = 0
N_ITEMS = 10

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
    counting = Observability(enabled=False)
    recorder = counting.recorder = CountingNullRecorder()
    for site in system.sites.values():
        site.accelerator.obs = counting
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


def bench_obs_disabled_calls(save_result):
    calls = _count_null_calls()
    report = [
        f"workload             : fig6 proposal, n={N_UPDATES} updates, unobserved",
        "null entry point     :    calls",
    ]
    report += [f"  {name:<19}: {calls[name]:>8}" for name in ENTRY_POINTS]
    report.append(
        f"null calls per update: {sum(calls.values()) / N_UPDATES:.3f}"
        " (gate: 0)"
    )
    report = "\n".join(report)
    save_result("obs_overhead", report)
    assert sum(calls.values()) == 0, report
