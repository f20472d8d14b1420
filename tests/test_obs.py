"""Tests for the observability layer: spans, registry, sampler, export."""

import gc
import hashlib
import json
import math
import statistics
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import build_paper_system
from repro.experiments import make_paper_trace, run_observed
from repro.experiments.chaos import SMALL_SCENARIOS, run_chaos_scenario
from repro.obs import (
    NULL_OBS,
    NULL_ROW,
    MetricRegistry,
    NullSpanRecorder,
    Observability,
    Span,
    SpanRecorder,
    StreamingHistogram,
    TimeSeriesStore,
    chrome_trace_events,
    jsonl_lines,
    render_summary,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.spans import PAIR_ROOT, PAIR_ROUND
from repro.workload import run_closed


def closed(rec, name, site, start, end, keys=(), values=(), **link):
    """Open a span with :meth:`SpanRecorder.open_span` and close it."""
    row = rec.open_span(name, site, start, keys, values, **link)
    rec.close_span(row, end)
    return row


class TestSpanRecorder:
    def test_parent_links_and_trace_inheritance(self):
        rec = SpanRecorder()
        root = rec.open_span("update", "site1", 0.0, trace="t-1")
        child = rec.open_span("av.request", "site1", 1.0, parent=root)
        assert child[0] == "t-1"
        assert child[2] == root[1]
        [back_root] = rec.roots()
        assert rows(rec.children(back_root)) == [child]
        assert rows([back_root]) == [root]

    def test_raw_span_id_parent_for_cross_site_context(self):
        rec = SpanRecorder()
        root = rec.open_span("av.request", "site1", 0.0)
        remote = rec.open_span(
            "av.grant", "site0", 1.0, trace=root[0], parent=root[1]
        )
        assert remote[2] == root[1]
        assert remote[0] == root[0]

    def test_finish_sets_end_and_attrs(self):
        rec = SpanRecorder()
        row = rec.open_span("x", "s", 2.0, ("item",), ("a",))
        rec.close_span(row, 5.0, ("outcome",), ("committed",))
        [span] = rec
        assert span.end == 5.0 and span.duration == 3.0
        assert span.attrs == {"item": "a", "outcome": "committed"}

    def test_null_parent_means_root(self):
        rec = SpanRecorder()
        row = rec.open_span("x", "s", 0.0, parent=NULL_ROW)
        assert row[2] is None

    def test_max_spans_cap_returns_null_span(self):
        rec = SpanRecorder(max_spans=1)
        first = rec.open_span("a", "s", 0.0)
        second = rec.open_span("b", "s", 0.0)
        assert first != NULL_ROW and second == NULL_ROW
        rec.close_span(second, 1.0, ("late",), (True,))  # closes nothing
        assert rec.dropped == 1 and len(rec) == 1

    def test_dropped_spans_change_fingerprint(self):
        full = SpanRecorder()
        capped = SpanRecorder(max_spans=1)
        for rec in (full, capped):
            closed(rec, "a", "s", 0.0, 1.0)
            closed(rec, "b", "s", 0.0, 1.0)
        assert full.fingerprint() != capped.fingerprint()

    def test_fingerprint_deterministic_and_order_sensitive(self):
        def build(order):
            rec = SpanRecorder()
            for name in order:
                closed(rec, name, "s", 0.0, 1.0)
            return rec.fingerprint()

        assert build(["a", "b"]) == build(["a", "b"])
        assert build(["a", "b"]) != build(["b", "a"])

    def test_null_recorder_records_nothing(self):
        rec = NullSpanRecorder()
        row = rec.open_span("x", "s", 0.0, ("item",), ("a",))
        assert row == NULL_ROW
        rec.close_span(row, 1.0, ("ignored",), (True,))  # must not raise
        assert len(rec) == 0 and list(rec) == [] and not rec.enabled

    def test_names_and_traces_views(self):
        rec = SpanRecorder()
        r1 = rec.open_span("update", "s", 0.0)
        rec.open_span("apply", "s", 0.0, parent=r1)
        rec.open_span("update", "s", 1.0)
        assert rec.names() == {"update": 2, "apply": 1}
        assert len(rec.traces()) == 2


FIELDS = ("trace_id", "span_id", "parent_id", "name", "site", "start",
          "end", "attrs")


def fields(span):
    return tuple(getattr(span, name) for name in FIELDS)


def rows(spans):
    """The rows the writers held the read-back ``spans`` by."""
    return [(s.trace_id, s.span_id, s.parent_id) for s in spans]


class TestPackedSpanStore:
    """Finished spans are rows in flat columns, rebuilt on read."""

    def test_finished_span_reads_back_with_all_fields(self):
        rec = SpanRecorder()
        root = rec.open_span("update", "site1", 2, ("b", "a"), (1, 2),
                             trace="site1:u7")
        child = rec.open_span("av.request", "site1", 3.5, parent=root[1],
                              trace=root[0])
        rec.close_span(child, 4.0)
        rec.close_span(root, 9, ("c", "b"), (3, 4))
        back_root, back_child = list(rec)
        assert fields(back_root) == ("site1:u7", 1, None, "update", "site1",
                                     2.0, 9.0, {"b": 4, "a": 2, "c": 3})
        assert fields(back_child) == ("site1:u7", 2, 1, "av.request",
                                      "site1", 3.5, 4.0, None)
        # opening keys, then closing keys; a repeated key keeps its first
        # position and takes the last value
        assert list(back_root.attrs.items()) == [("b", 4), ("a", 2), ("c", 3)]
        # times are stored as floats
        assert type(back_root.start) is float and back_root.start == 2.0
        assert type(back_root.end) is float and back_root.end == 9.0

    def test_reads_follow_span_id_order_not_finish_order(self):
        rec = SpanRecorder()
        root = rec.open_span("update", "s", 0.0)
        kids = [rec.open_span("av.request", "s", float(i), parent=root)
                for i in range(4)]
        for kid in (kids[2], kids[0], kids[3]):
            rec.close_span(kid, 9.0)
        spans = list(rec)
        assert [s.span_id for s in spans] == [1, 2, 3, 4, 5]
        assert [s.end for s in spans] == [None, 9.0, None, 9.0, 9.0]
        assert [s.span_id for s in rec.children(spans[0])] == [2, 3, 4, 5]

    def test_open_spans_read_back_unfinished(self):
        rec = SpanRecorder()
        root = rec.open_span("update", "site1", 0, ("item",), ("a",))
        child = rec.open_span("av.request", "site1", 1.0, parent=root)
        [back_root] = rec.roots()
        assert fields(back_root) == (root[0], 1, None, "update", "site1", 0,
                                     None, {"item": "a"})
        assert rows(rec.children(back_root)) == [child]
        assert list(rec.traces()) == [root[0]]
        events = chrome_trace_events(rec)
        assert [e["dur"] for e in events if e["ph"] == "X"] == [0.0, 0.0]
        rec.close_span(child, 2.0, ("granted",), (1.0,))
        [back] = rec.children(back_root)
        assert (back.end, back.attrs) == (2.0, {"granted": 1.0})
        assert rows(rec.roots()) == [root]

    def test_cap_counts_open_and_finished_spans(self):
        rec = SpanRecorder(max_spans=2)
        closed(rec, "a", "s", 0.0, 1.0)
        rec.open_span("b", "s", 1.0)
        assert rec.open_span("c", "s", 2.0) == NULL_ROW
        assert len(rec) == 2 and rec.dropped == 1
        assert [s.name for s in rec] == ["a", "b"]

    def test_finished_span_keeps_no_python_object(self):
        """≤ 128 B and zero GC-tracked objects retained per finished span
        (a span kept as an object costs ~290 B and one tracked object)."""
        items = [f"item{i}" for i in range(10)]
        deltas = [float(-d) for d in range(1, 6)]

        def record(rec, first, n):
            for i in range(first, first + n):
                now = float(i)
                root = rec.open_span(
                    "update", "site1", now, ("item", "delta"),
                    (items[i % 10], deltas[i % 5]), trace=f"site1:u{i}",
                )
                checking = rec.open_span("av.checking", "site1", now,
                                         parent=root)
                rec.close_span(checking, now, ("verdict",), ("delay",))
                closed(rec, "delay.apply", "site1", now, now, parent=root)
                rec.close_span(root, now + 1.0, ("outcome",), ("committed",))

        n = 20_000
        # the columns are allocated under tracing, so their reallocations
        # are measured in full
        tracemalloc.start()
        try:
            rec = SpanRecorder()
            record(rec, 0, 100)  # shape table warm-up
            gc.collect()
            before = tracemalloc.get_traced_memory()[0]
            record(rec, 100, n)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert retained / (3 * n) <= 128, retained / (3 * n)

        objects = len(gc.get_objects())
        record(rec, 100 + n, n)
        gc.collect()
        assert len(gc.get_objects()) - objects <= 0
        assert len(rec) == 3 * (2 * n + 100)


class TestStreamingHistogram:
    @pytest.mark.parametrize(
        "samples",
        [
            [float(v) for v in range(1, 1001)],
            [1.0005 ** i for i in range(2000)],  # log-spaced
            [0.0] * 50 + [float(v) for v in range(1, 251)],  # zero-heavy
        ],
    )
    def test_quantiles_match_statistics_within_bucket_error(self, samples):
        hist = StreamingHistogram("lat")
        for v in samples:
            hist.observe(v)
        # statistics.quantiles with n=100 gives exclusive percentiles;
        # allow the histogram's bucket error plus one rank of slack.
        cuts = statistics.quantiles(samples, n=100, method="inclusive")
        rel_err = (hist.growth - 1.0) * 1.5  # bucket width + midpoint slack
        for q, exact in ((0.50, cuts[49]), (0.90, cuts[89]), (0.99, cuts[98])):
            estimate = hist.quantile(q)
            if exact == 0.0:
                assert estimate == 0.0
            else:
                assert abs(estimate - exact) / exact <= rel_err + 0.01, (
                    q, estimate, exact
                )

    def test_min_max_mean_exact(self):
        hist = StreamingHistogram("lat")
        samples = [3.0, 1.0, 4.0, 1.5, 9.25]
        for v in samples:
            hist.observe(v)
        s = hist.summary()
        assert s["count"] == len(samples)
        assert s["max"] == max(samples)
        assert hist.min == min(samples)
        assert s["mean"] == pytest.approx(statistics.mean(samples))

    def test_empty_summary_is_zeroed(self):
        assert StreamingHistogram("x").summary() == {
            "count": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0,
            "p99": 0.0, "max": 0.0,
        }

    def test_rejects_negative_samples_and_bad_growth(self):
        with pytest.raises(ValueError):
            StreamingHistogram("x").observe(-1.0)
        with pytest.raises(ValueError):
            StreamingHistogram("x", growth=1.0)

    def test_all_zeros(self):
        hist = StreamingHistogram("x")
        for _ in range(10):
            hist.observe(0.0)
        assert hist.quantile(0.5) == 0.0 and hist.summary()["max"] == 0.0


class TestStreamingHistogramMerge:
    """The shard-aggregation determinism guarantee, property-style."""

    SAMPLE_SETS = [
        [float(v) for v in range(1, 201)],
        [1.0007 ** i for i in range(500)],
        [0.0] * 25 + [0.5, 2.0, 2.0, 1e-9, 1e9],
        [],
    ]

    @staticmethod
    def _fill(samples):
        hist = StreamingHistogram("lat")
        for v in samples:
            hist.observe(v)
        return hist

    @pytest.mark.parametrize("samples", SAMPLE_SETS)
    @pytest.mark.parametrize("shards", [1, 2, 3, 7])
    def test_any_shard_split_merges_to_single_histogram(
        self, samples, shards
    ):
        whole = self._fill(samples)
        parts = [
            self._fill(samples[i::shards]) for i in range(shards)
        ]
        merged = StreamingHistogram("lat")
        for part in parts:
            merged.merge(part)
        assert merged.buckets == whole.buckets
        assert merged.zeros == whole.zeros
        assert merged.count == whole.count
        assert (merged.min, merged.max) == (whole.min, whole.max)
        assert merged.total == pytest.approx(whole.total)

    def test_ordered_fold_is_byte_deterministic(self):
        # Same shard snapshots, merged twice in the same (task-index)
        # order: serialised state must match byte for byte — this is
        # what makes sweep telemetry shard-count invariant.
        samples = [1.0003 ** i for i in range(300)]
        shards = [self._fill(samples[i::4]) for i in range(4)]
        encodings = []
        for _ in range(2):
            acc = StreamingHistogram("lat")
            for shard in shards:
                acc.merge(shard)
            encodings.append(
                json.dumps(acc.to_dict(), sort_keys=True,
                           separators=(",", ":"))
            )
        assert encodings[0] == encodings[1]

    def test_merge_returns_self_for_chaining(self):
        a, b = self._fill([1.0]), self._fill([2.0])
        assert a.merge(b) is a
        assert a.count == 2

    def test_growth_mismatch_rejected(self):
        with pytest.raises(ValueError, match="growth"):
            StreamingHistogram("a", growth=1.05).merge(
                StreamingHistogram("b", growth=1.1)
            )

    def test_to_dict_round_trip(self):
        hist = self._fill([0.0, 0.5, 3.0, 3.0, 1e6])
        clone = StreamingHistogram.from_dict("lat", hist.to_dict())
        assert clone.to_dict() == hist.to_dict()
        assert clone.quantile(0.5) == hist.quantile(0.5)

    def test_empty_serialises_without_infinities(self):
        data = StreamingHistogram("lat").to_dict()
        assert data["min"] is None and data["max"] is None
        json.dumps(data, allow_nan=False)  # strict JSON


class TestMetricRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = MetricRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert reg.histogram("h") is reg.histogram("h")

    def test_kind_mismatch_raises(self):
        reg = MetricRegistry()
        reg.counter("a")
        with pytest.raises(TypeError):
            reg.gauge("a")

    def test_counter_rejects_decrease(self):
        reg = MetricRegistry()
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1)

    def test_rows_and_dicts_cover_all_kinds(self):
        reg = MetricRegistry()
        reg.counter("c").inc(3)
        reg.gauge("g").set(7.0, now=2.0)
        reg.histogram("h").observe(1.0)
        kinds = {row[1] for row in reg.rows()}
        assert kinds == {"counter", "gauge", "histogram"}
        dicts = {d["metric"]: d for d in reg.to_dicts()}
        assert dicts["c"]["value"] == 3
        assert dicts["g"]["updated_at"] == 2.0
        assert dicts["h"]["count"] == 1


class TestObservabilityHub:
    def test_disabled_hub_is_free(self):
        hub = Observability(enabled=False)
        hub.count("x")
        hub.gauge_set("z", 2.0)
        assert len(hub.registry) == 0
        assert isinstance(hub.recorder, NullSpanRecorder)

    def test_null_obs_shared_and_disabled(self):
        assert not NULL_OBS.enabled
        assert NULL_OBS.recorder.open_span("x", "s", 0.0) == NULL_ROW

    def test_null_obs_takes_no_subscriber(self):
        """The shared hub's subscribers are an empty tuple: subscribing
        raises instead of leaking one run's events into every run."""
        with pytest.raises(AttributeError):
            NULL_OBS.event_subscribers.append(lambda kind, now, fields: None)
        assert NULL_OBS.event_subscribers == ()

    def test_enabled_hub_records(self):
        hub = Observability()
        hub.count("x", 2)
        hub.gauge_set("z", 1.5, now=3.0)
        assert hub.registry.counter("x").value == 2
        assert hub.registry.gauge("z").value == 1.5


class TestTimeSeriesStore:
    def test_record_and_views(self):
        store = TimeSeriesStore()
        store.record("a", 0.0, 1.0)
        store.record("a", 5.0, 2.0)
        store.record("b", 0.0, 9.0)
        assert store.series("a") == [(0.0, 1.0), (5.0, 2.0)]
        assert store.names() == ["a", "b"]
        assert store.last("a") == 2.0 and store.last("missing") == 0.0
        assert "a" in store and len(store) == 2


class TestExport:
    def _spans(self):
        rec = SpanRecorder()
        root = rec.open_span("update", "site1", 0.0, ("item",), ("item0",))
        closed(rec, "av.request", "site1", 0.5, 2.5, parent=root)
        rec.close_span(root, 3.0, ("outcome",), ("committed",))
        return rec

    def test_chrome_events_structure(self):
        events = chrome_trace_events(self._spans())
        meta = [e for e in events if e["ph"] == "M"]
        xs = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 1 and meta[0]["args"]["name"] == "site1"
        assert len(xs) == 2
        req = next(e for e in xs if e["name"] == "av.request")
        assert req["ts"] == 500.0 and req["dur"] == 2000.0  # 1 unit = 1 ms
        assert "parent_id" in req["args"]

    def test_write_chrome_trace_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(str(path), self._spans())
        doc = json.loads(path.read_text())
        assert doc["traceEvents"] and doc["displayTimeUnit"] == "ms"

    def test_jsonl_round_trip(self, tmp_path):
        reg = MetricRegistry()
        reg.counter("c").inc()
        store = TimeSeriesStore()
        store.record("s", 1.0, 2.0)
        path = tmp_path / "out.jsonl"
        n = write_jsonl(str(path), self._spans(), reg, store)
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert len(lines) == n == 4  # 2 spans + 1 metric + 1 sample
        assert {l["type"] for l in lines} == {"span", "metric", "sample"}

    def test_render_summary_sections(self):
        hub = Observability()
        closed(hub.recorder, "update", "s", 0.0, 1.0)
        hub.count("c")
        hub.series.record("ts", 0.0, 1.0)
        text = render_summary(hub, title="T")
        assert "spans" in text and "metrics" in text and "time series" in text

    def test_render_summary_empty(self):
        assert "nothing recorded" in render_summary(Observability())


class TestObservedSystem:
    def test_unobserved_system_records_no_spans(self):
        system = build_paper_system(n_items=5, seed=3)
        trace = make_paper_trace(50, seed=3, n_items=5)
        run_closed(system, trace)
        assert not system.obs.enabled and system.obs is not NULL_OBS
        assert len(system.obs.recorder) == 0

    def test_unobserved_collectors_do_not_share_a_registry(self):
        a = build_paper_system(n_items=5, seed=3)
        b = build_paper_system(n_items=5, seed=3)
        assert a.collector.registry is not b.collector.registry
        assert a.collector.registry is not NULL_OBS.registry

    def test_av_transfer_chain_reconstructs(self):
        """The acceptance chain: request -> grant -> apply, one trace."""
        run = run_observed(n_updates=200, seed=0, n_items=10)
        rec = run.obs.recorder
        chains = 0
        for trace_id, spans in rec.traces().items():
            by_name = {}
            for s in spans:
                by_name.setdefault(s.name, []).append(s)
            if not {"av.request", "av.grant", "delay.apply"} <= set(by_name):
                continue
            req_ids = {s.span_id for s in by_name["av.request"]}
            assert all(
                g.parent_id in req_ids for g in by_name["av.grant"]
            ), trace_id
            root = next(s for s in spans if s.name == "update")
            assert all(
                s.trace_id == root.trace_id for s in spans
            )
            chains += 1
        assert chains >= 1

    def test_observed_run_exports(self, tmp_path):
        run = run_observed(n_updates=60, seed=1, n_items=5)
        doc = run.write_chrome_trace(str(tmp_path / "t.json"))
        assert any(e["ph"] == "X" for e in doc["traceEvents"])
        n = run.write_jsonl(str(tmp_path / "t.jsonl"))
        assert n > 0
        assert "spans" in run.render()

    def test_sampler_series_recorded(self):
        run = run_observed(
            n_updates=100, seed=2, n_items=5, sample_interval=10.0
        )
        series = run.obs.series
        for prefix in ("av.level", "belief.error", "belief.age",
                       "lock.wait", "sync.backlog"):
            for site in ("site0", "site1", "site2"):
                assert f"{prefix}.{site}" in series, prefix
        assert len(series.series("av.level.site0")) >= 2

    def test_sync_spans_present_in_lazy_mode(self):
        run = run_observed(n_updates=150, seed=0, n_items=5,
                           sync_interval=20.0)
        names = run.obs.recorder.names()
        assert names.get("sync.pass", 0) > 0
        assert names.get("sync.push", 0) > 0

    def test_registry_shared_with_collector(self):
        run = run_observed(n_updates=60, seed=1, n_items=5)
        system = run.system
        assert system.collector.registry is system.obs.registry
        committed = system.collector.registry.counter("updates.committed")
        assert committed.value == sum(1 for r in run.results if r.committed)

    def test_max_spans_cap_respected(self):
        run = run_observed(n_updates=80, seed=0, n_items=5,
                           max_spans=50)
        rec = run.obs.recorder
        assert len(rec) == 50 and rec.dropped > 0


class TestSpanDeterminism:
    def test_same_seed_same_span_fingerprint(self):
        def run():
            r = run_observed(n_updates=150, seed=11, n_items=5)
            return r.obs.recorder.fingerprint(), len(r.obs.recorder)

        assert run() == run()

    def test_fingerprint_is_pinned_across_processes(self):
        """Pinned values: computed over the span stream of the recorder
        that kept every span as an object, so they prove the packed store
        replays it exactly, and (hashlib, not ``hash()``) hold in any
        process whatever its ``PYTHONHASHSEED``."""
        rec = run_observed(n_updates=150, seed=11, n_items=5).obs.recorder
        assert (len(rec), rec.fingerprint()) == (666, 13184414697047811627)
        maker = next(s for s in SMALL_SCENARIOS if s.name == "maker-crash")
        rec = run_chaos_scenario(maker, n_updates=300, seed=0).obs.recorder
        assert (len(rec), rec.fingerprint()) == (1637, 4753417666164750786)

    def test_different_seed_different_fingerprint(self):
        a = run_observed(n_updates=150, seed=11, n_items=5)
        b = run_observed(n_updates=150, seed=12, n_items=5)
        assert a.obs.recorder.fingerprint() != b.obs.recorder.fingerprint()

    def test_fingerprint_deterministic_under_faults(self):
        """Same seed + same injected crash window => identical span tree."""

        def run():
            system = build_paper_system(
                n_items=5, seed=13, observe=True, request_timeout=5.0
            )
            trace = make_paper_trace(150, seed=13, n_items=5)
            faults = system.network.faults

            def chaos(env):
                yield env.timeout(10.0)
                faults.crash("site2")
                yield env.timeout(40.0)
                system.sites["site2"].restart()

            system.env.process(chaos(system.env), name="chaos")
            results = run_closed(system, trace)
            assert len(results) == 150
            return system.obs.recorder.fingerprint(), len(system.obs.recorder)

        first, second = run(), run()
        assert first == second
        assert first[1] > 0


def ordered_digest(rec):
    """Like ``fingerprint()``, but over the attributes in their stored
    key order (``fingerprint`` sorts them), so a change of key order
    fails a pin too."""
    digest = hashlib.blake2b(digest_size=8)
    for s in rec:
        attrs = tuple(s.attrs.items()) if s.attrs else ()
        key = (s.trace_id, s.span_id, s.parent_id, s.name, s.site, s.start,
               s.end, attrs)
        digest.update(repr(key).encode() + b"\n")
    return digest.hexdigest()


def text_digest(text):
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def stream_pin(rec):
    return len(rec), rec.fingerprint(), rec.dropped, ordered_digest(rec)


def eager_system(max_spans=None, drop=0.0):
    """Eager propagation: each covered update's ``prop.push`` fans out to
    a ``prop.apply`` at both replicas, parented across sites. A lossy
    network needs a request timeout, or a lost AV request hangs."""
    system = build_paper_system(
        n_items=5, seed=7, observe=True, sanitize=True, propagate=True,
        request_timeout=8.0 if drop else None,
    )
    if max_spans is not None:
        system.obs.recorder = SpanRecorder(max_spans)
    system.network.faults.drop_probability = drop
    run_closed(system, make_paper_trace(150, seed=7, n_items=5))
    return system


def stream(rec):
    return [
        (s.trace_id, s.span_id, s.parent_id, s.name, s.site, s.start, s.end,
         list(s.attrs.items()) if s.attrs else None)
        for s in rec
    ]


class TestRowSpans:
    """A span that never waits is written as a row, with no handle."""

    def test_row_and_handle_write_the_same_span(self):
        by_handle, by_row, by_span = (HandleRecorder(), SpanRecorder(),
                                      SpanRecorder())
        root = by_handle.start("update", "s1", 1.0, trace="s1:u1", item="a")
        by_handle.start("delay.apply", "s1", 1.0, parent=root.row).finish(2.0)
        root.finish(3.0, outcome="committed")
        row = by_row.open_row(trace="s1:u1")
        by_row.write_row(by_row.open_row(row), "delay.apply", "s1", 1.0, 2.0)
        by_row.write_row(row, "update", "s1", 1.0, 3.0,
                         ("item", "outcome"), ("a", "committed"))
        span = by_span.open_span("update", "s1", 1.0, ("item",), ("a",),
                                 trace="s1:u1")
        closed(by_span, "delay.apply", "s1", 1.0, 2.0, parent=span)
        by_span.close_span(span, 3.0, ("outcome",), ("committed",))
        assert stream(by_row) == stream(by_handle) == stream(by_span)
        assert by_row.fingerprint() == by_handle.fingerprint()
        assert by_span.fingerprint() == by_handle.fingerprint()

    def test_row_parent_accepted_by_open_span(self):
        rec = SpanRecorder()
        row = rec.open_row(trace="s1:u1")
        child = rec.open_span("av.request", "s1", 0.0, parent=row)
        assert (child[0], child[2]) == ("s1:u1", row[1])
        remote = rec.open_row(parent=row[1], trace=row[0])
        assert remote[0] == "s1:u1" and remote[2] == row[1]

    def test_dropped_row_is_no_parent(self):
        rec = SpanRecorder(max_spans=1)
        rec.open_span("a", "s", 0.0)
        assert rec.open_row(trace="s1:u1") == NULL_ROW
        rec.write_row(NULL_ROW, "update", "s", 0.0, 1.0)
        assert rec.dropped == 1 and len(rec) == 1
        free = SpanRecorder()
        for open_ in (free.open_row, lambda parent: free.open_span(
                "x", "s", 0.0, parent=parent)):
            trace, span_id, parent_id = open_(NULL_ROW)
            assert parent_id is None
            assert trace == f"t{span_id}"

    def test_null_recorder_opens_only_null_rows(self):
        rec = NullSpanRecorder()
        assert rec.open_row(trace="s1:u1") == NULL_ROW
        rec.write_row(NULL_ROW, "update", "s", 0.0, 1.0, ("a",), (1,))
        assert len(rec) == 0 and list(rec) == []

    def test_covered_local_update_allocates_no_span(self, monkeypatch):
        system = build_paper_system(n_items=5, seed=0, observe=True,
                                    propagate=True)
        accel = system.sites["site1"].accelerator

        def no_handles(*args, **kwargs):
            raise AssertionError("a span handle was allocated")

        monkeypatch.setattr(Span, "__init__", no_handles)
        done = [accel.update("item0", 3.0), accel.update("item1", -2.0)]
        monkeypatch.undo()
        assert all(ev.ok and ev.value.local_only for ev in done)
        assert system.obs.recorder.names() == {
            "update": 2, "av.checking": 2, "delay.apply": 2, "prop.push": 2,
        }

    def test_raising_update_keeps_its_root_open(self):
        """Computed over the handle-only recorder: the root and the
        apply that raised stay open with their start attributes."""
        system = build_paper_system(n_items=5, seed=0, observe=True)
        accel = system.sites["site1"].accelerator

        def disk_on_fire(*args, **kwargs):
            raise RuntimeError("disk on fire")

        accel.txns.apply_atomic = disk_on_fire
        done = accel.update("item0", 3.0)
        assert not done.ok and isinstance(done.value, RuntimeError)
        assert stream(system.obs.recorder) == [
            ("site1:u1", 1, None, "update", "site1", 0.0, None,
             [("item", "item0"), ("delta", 3.0)]),
            ("site1:u1", 2, 1, "av.checking", "site1", 0.0, 0.0,
             [("verdict", "delay")]),
            ("site1:u1", 3, 1, "delay.apply", "site1", 0.0, None,
             [("item", "item0"), ("delta", 3.0)]),
        ]

    def test_push_from_a_dead_site_stays_open(self):
        system = build_paper_system(n_items=5, seed=0, observe=True,
                                    propagate=True)
        system.network.faults.crash("site1")
        done = system.sites["site1"].accelerator.update("item0", 3.0)
        assert done.value.outcome.value == "failed"
        assert stream(system.obs.recorder) == [
            ("site1:u1", 1, None, "update", "site1", 0.0, 0.0,
             [("item", "item0"), ("delta", 3.0), ("outcome", "failed")]),
            ("site1:u1", 2, 1, "av.checking", "site1", 0.0, 0.0,
             [("verdict", "delay")]),
            ("site1:u1", 3, 1, "delay.apply", "site1", 0.0, 0.0,
             [("item", "item0"), ("delta", 3.0)]),
            ("site1:u1", 4, 1, "prop.push", "site1", 0.0, None,
             [("item", "item0")]),
        ]

    def test_raising_grant_keeps_grant_and_deciding_open(self):
        from repro.net.message import Message

        system = build_paper_system(n_items=5, seed=0, observe=True)
        grantor = system.sites["site0"].accelerator

        def broken_policy(available, requested):
            raise RuntimeError("policy bug")

        grantor.policy.grant_amount = broken_policy
        msg = Message(
            src="site1", dst="site0", kind="av.request",
            payload={"item": "item0", "amount": 4.0, "requester_av": 0.0,
                     "_obs": {"trace": "site1:u9", "span": 7}},
        )
        with pytest.raises(RuntimeError):
            grantor.delay.handle_av_request(msg)
        [grant, decide] = stream(system.obs.recorder)
        assert grant == ("site1:u9", 1, 7, "av.grant", "site0", 0.0, None,
                         [("item", "item0"), ("requester", "site1")])
        assert decide[1:4] == (2, 1, "av.deciding") and decide[6] is None
        assert [k for k, _ in decide[7]] == ["available", "requested"]


class TestSpanPathPins:
    """Span streams of the paths the fig6 and maker-crash pins miss.

    Every value was computed over the recorder that wrote a finished
    span only through ``Span.finish``. ``ordered_digest`` also covers
    the attribute key order, which ``fingerprint`` sorts away."""

    def test_fig6_and_maker_crash_key_order(self):
        rec = run_observed(n_updates=150, seed=11, n_items=5).obs.recorder
        assert ordered_digest(rec) == "6ab1f1c50332a365"
        maker = next(s for s in SMALL_SCENARIOS if s.name == "maker-crash")
        rec = run_chaos_scenario(maker, n_updates=300, seed=0).obs.recorder
        assert ordered_digest(rec) == "c1870020c2d12610"

    def test_eager_propagation(self):
        system = eager_system()
        assert stream_pin(system.obs.recorder) == (
            948, 9148190890274669139, 0, "db226ded1ff35313"
        )
        names = system.obs.recorder.names()
        assert names["prop.push"] == 150 and names["prop.apply"] == 300

    def test_eager_propagation_losses_name_the_push(self):
        system = eager_system(drop=0.1)
        assert stream_pin(system.obs.recorder) == (
            967, 8679188710008775380, 0, "d84383041737343b"
        )
        report = system.sanitizer.finish()
        assert len(report.by_rule("prop.lost")) == 28
        assert text_digest(report.render()) == "b08ce2647f535533"

    @pytest.mark.parametrize("cap, pin", [
        # root 285 kept, its av.checking / delay.apply / prop.push dropped
        (285, (285, 16407688728515716456, 663, "9bdb2950a7dedf19")),
        # root and av.checking kept; delay.apply and prop.push dropped
        (286, (286, 12935192183760376600, 662, "5bc404ed4e77e1f0")),
        # everything but prop.push kept
        (287, (287, 9058979847999248697, 661, "2533d20d979dbbfa")),
    ])
    def test_cap_cuts_through_a_local_update(self, cap, pin):
        system = eager_system(max_spans=cap)
        assert stream_pin(system.obs.recorder) == pin
        [root] = [s for s in system.obs.recorder if s.span_id == 285]
        assert root.name == "update" and root.attrs["outcome"] == "committed"

    def test_overload_scenario(self):
        overload = next(s for s in SMALL_SCENARIOS if s.name == "overload")
        rec = run_chaos_scenario(overload, n_updates=600, seed=3).obs.recorder
        assert stream_pin(rec) == (
            1833, 5838327627918628694, 0, "fc690d1e33c18e56"
        )
        names = rec.names()
        for kind in ("av.grant", "av.deciding", "imm.lock", "imm.prepare",
                     "cls.lock", "cls.apply", "sync.push", "prop.apply"):
            assert names[kind] > 0, kind

    def test_regional_pool_grants(self):
        from repro.cluster import DistributedSystem, Topology, item_ids, paper_config
        from repro.experiments.scale import make_scale_trace

        topology = Topology.parse("regional:2x3:s2", item_ids(24))
        system = DistributedSystem.build(
            paper_config(n_items=24, seed=5, topology=topology, observe=True)
        )
        run_closed(system, make_scale_trace(topology, 300, 5))
        rec = system.obs.recorder
        assert stream_pin(rec) == (
            1256, 16598785375828692646, 0, "f177ac9e7a38c9ee"
        )
        pool_grants = [s for s in rec if s.name == "av.grant"
                       and s.site.startswith("agg")]
        assert len(pool_grants) == 75

    def test_maker_crash_sanitizer_sees_the_same_spans(self):
        """``av.select`` carries the selecting span's trace and id into
        the happens-before samples."""
        maker = next(s for s in SMALL_SCENARIOS if s.name == "maker-crash")
        report = run_chaos_scenario(maker, n_updates=300, seed=0).report
        assert report.counters == {
            "events": 2632, "conservation_checks": 946, "holds_opened": 55,
            "holds_closed": 55, "stale_belief_races": 4, "belief_lags": 11,
            "deadlocks": 0, "unsynced_balances": 0, "leases_opened": 60,
            "leases_discharged": 60, "leases_reverted": 0,
            "lease_covered_drops": 0, "rel_covered_drops": 0,
        }
        samples = json.dumps(report.hb_samples, sort_keys=True)
        assert len(report.hb_samples) == 10
        assert text_digest(samples) == "cb9b96c8c7a9c552"
        assert all(s["span"] for s in report.hb_samples)


def wide_system(until=None, max_spans=None):
    """Eight retailers on four items, open loop: about half the updates
    gather AV, so many roots and AV requests are in flight at once.
    ``until`` cuts the run mid-flight."""
    from repro.workload.driver import run_open, split_by_site

    system = build_paper_system(n_retailers=8, n_items=4, seed=5,
                                observe=True)
    if max_spans is not None:
        system.obs.recorder = SpanRecorder(max_spans)
    trace = make_paper_trace(400, seed=5, n_items=4, n_retailers=8)
    run_open(system, split_by_site(trace), interarrival=1.0, until=until,
             open_loop=True)
    return system


class TestProcessPathPins:
    """Span streams of the process path: an update that waits, its AV
    round trips and the grants that serve them. Every value was computed
    over the recorder that wrote these spans as rows and handles."""

    WIDE = (4355, 10393213040671736438, 0, "e84ae22a49c3e4de")

    @pytest.mark.parametrize("until, pin, still_open", [
        (20, (1175, 5579210259076125503, 0, "8c586c1ca7feec73"), 70),
        (40.5, (2953, 1304685415903597279, 0, "2912c68438b3cdb0"), 66),
        (90, (4284, 3468963900801973462, 0, "b989ef6ec4bcc328"), 2),
    ])
    def test_read_mid_flight(self, until, pin, still_open):
        system = wide_system(until)
        rec = system.obs.recorder
        assert stream_pin(rec) == pin
        open_spans = [s for s in rec if s.end is None]
        assert len(open_spans) == still_open
        assert {s.name for s in open_spans} == {"update", "av.request"}
        system.run()
        assert stream_pin(rec) == self.WIDE

    @pytest.mark.parametrize("cap, pin, kept", [
        # the root of a waiting update kept, its av.checking dropped
        (61, (61, 16579409154721504061, 4294, "b4ada6691b6d32cb"), "update"),
        # an av.selecting kept, the av.request it chose dropped
        (63, (63, 16045878185002134703, 4292, "e88dc80de7801176"),
         "av.selecting"),
        # an av.grant kept, its av.deciding dropped
        (93, (93, 8675578583276521874, 4262, "8206eb688cccb988"), "av.grant"),
    ])
    def test_cap_between_the_two_ids(self, cap, pin, kept):
        rec = wide_system(max_spans=cap).obs.recorder
        assert stream_pin(rec) == pin
        [last] = [s for s in rec if s.span_id == cap]
        assert last.name == kept and last.end is not None

    def test_grant_on_an_undefined_item(self):
        from repro.net.message import Message

        system = build_paper_system(n_items=5, seed=0, observe=True,
                                    regular_fraction=0.0)
        grantor = system.sites["site0"].accelerator
        for ctx in ({"trace": "site1:u9", "span": 7}, None):
            payload = {"item": "item0", "amount": 4.0, "requester_av": 0.0}
            if ctx is not None:
                payload["_obs"] = ctx
            reply = grantor.delay.handle_av_request(Message(
                src="site1", dst="site0", kind="av.request", payload=payload,
            ))
            assert reply == {"granted": 0.0, "av_after": 0.0}
        attrs = [("item", "item0"), ("requester", "site1"),
                 ("granted", 0.0), ("undefined", True)]
        assert stream(system.obs.recorder) == [
            ("site1:u9", 1, 7, "av.grant", "site0", 0.0, 0.0, attrs),
            ("t2", 2, None, "av.grant", "site0", 0.0, 0.0, attrs),
        ]

    def test_requests_that_time_out(self):
        system = build_paper_system(n_items=5, seed=0, observe=True,
                                    request_timeout=4.0)
        system.network.faults.drop_probability = 1.0
        done = system.sites["site1"].update("item0", -60.0)
        system.run()
        assert done.value.outcome.value == "rejected"
        ask = ("amount", 27.0)
        assert stream(system.obs.recorder) == [
            ("site1:u1", 1, None, "update", "site1", 0.0, 8.0,
             [("item", "item0"), ("delta", -60.0), ("outcome", "rejected")]),
            ("site1:u1", 2, 1, "av.checking", "site1", 0.0, 0.0,
             [("verdict", "delay")]),
            ("site1:u1", 3, 1, "av.selecting", "site1", 0.0, 0.0,
             [("target", "site0")]),
            ("site1:u1", 4, 1, "av.request", "site1", 0.0, 4.0,
             [("target", "site0"), ask, ("timeout", True)]),
            ("site1:u1", 5, 1, "av.selecting", "site1", 4.0, 4.0,
             [("target", "site2")]),
            ("site1:u1", 6, 1, "av.request", "site1", 4.0, 8.0,
             [("target", "site2"), ask, ("timeout", True)]),
            ("site1:u1", 7, 1, "av.selecting", "site1", 8.0, 8.0,
             [("target", "<none>")]),
        ]

    def test_request_cut_by_a_crash(self):
        """The requester dies with its AV request in flight: the request
        ends with ``error``, the root stays open, and the grant its
        request reached is served all the same."""
        system = build_paper_system(n_items=5, seed=0, observe=True)
        done = system.sites["site1"].update("item0", -60.0)
        system.run(until=0.5)
        system.network.faults.crash("site1")
        done.interrupt("site1 crashed")
        done.defuse()
        system.run()
        assert not done.ok
        assert stream(system.obs.recorder) == [
            ("site1:u1", 1, None, "update", "site1", 0.0, None,
             [("item", "item0"), ("delta", -60.0)]),
            ("site1:u1", 2, 1, "av.checking", "site1", 0.0, 0.0,
             [("verdict", "delay")]),
            ("site1:u1", 3, 1, "av.selecting", "site1", 0.0, 0.0,
             [("target", "site0")]),
            ("site1:u1", 4, 1, "av.request", "site1", 0.0, 0.5,
             [("target", "site0"), ("amount", 27.0), ("error", True)]),
            ("site1:u1", 5, 4, "av.grant", "site0", 1.0, 1.0,
             [("item", "item0"), ("requester", "site1"), ("granted", 17.0),
              ("av_after", 17.0)]),
            ("site1:u1", 6, 5, "av.deciding", "site0", 1.0, 1.0,
             [("available", 34.0), ("requested", 27.0), ("granted", 17.0)]),
        ]


class TestCollectorRegistryIntegration:
    """The registry's update instruments are folded from
    ``collector.results``; each must equal a scan of that record."""

    def test_count_fast_paths_match_scan(self):
        from repro.core.types import UpdateOutcome

        system = build_paper_system(n_items=5, seed=4)
        trace = make_paper_trace(120, seed=4, n_items=5)
        run_closed(system, trace)
        collector = system.collector
        registry = collector.registry
        assert collector.total == len(trace)
        for outcome in UpdateOutcome:
            expected = sum(1 for r in collector.results if r.outcome is outcome)
            assert registry.counter(f"updates.{outcome.value}").value == expected
        assert registry.counter("av.requests").value == sum(
            r.av_requests for r in collector.results
        )

    def test_latency_histograms_match_scan(self):
        from repro.core.types import UpdateKind

        system = build_paper_system(n_items=5, seed=4)
        trace = make_paper_trace(200, seed=4, n_items=5)
        run_closed(system, trace)
        collector = system.collector
        for kind in (None, *UpdateKind):
            latencies = [
                r.latency for r in collector.results
                if r.committed and (kind is None or r.kind is kind)
            ]
            name = "update.latency" if kind is None else f"update.latency.{kind.value}"
            summary = collector.registry.histogram(name).summary()
            assert summary["count"] == len(latencies), name
            if latencies:
                assert summary["max"] == max(latencies), name
                assert summary["mean"] == pytest.approx(
                    statistics.mean(latencies)
                ), name


class RowRecorder(SpanRecorder):
    """The reference: never reserves a tree, so a covered update writes
    its spans one ``write_row`` at a time."""

    def open_tree(self, push):
        return 0


SITES = ("site0", "site1", "site2")


def one_shot(obj, name, exc):
    """Make ``obj.name`` raise ``exc`` on its next call only."""
    def boom(*args, **kwargs):
        del obj.__dict__[name]
        raise exc

    obj.__dict__[name] = boom


def run_ops(recorder, eager, ops):
    """Drive ``ops`` through an observed paper system recording into
    ``recorder``. A covered update may be armed to raise: in its apply,
    in the announcement of its AV mint or spend, or in its eager push
    (a plain error, or the dead-site error that fails it)."""
    from repro.net.endpoint import CrashedEndpointError

    system = build_paper_system(n_items=3, seed=1, observe=True,
                                propagate=eager)
    system.obs.recorder = recorder
    armed = []

    def announce(kind, now, fields):
        if armed and kind in ("av.mint", "av.spend"):
            armed.clear()
            raise RuntimeError("subscriber bug")

    system.obs.event_subscribers.append(announce)
    for site, item, delta, fault in ops:
        accel = system.sites[site].accelerator
        item = f"item{item}"
        av = accel.av_table
        covered = av.defined(item) and (delta >= 0 or av.get(item) >= -delta)
        if covered and fault == "apply":
            one_shot(accel.txns, "apply_atomic", RuntimeError("disk on fire"))
        elif covered and fault == "emit":
            armed.append(True)
        elif covered and fault in ("send", "crash"):
            exc = (CrashedEndpointError(site) if fault == "crash"
                   else RuntimeError("nic on fire"))
            one_shot(accel.endpoint, "send", exc)
        done = system.sites[site].update(item, delta)
        done.defuse()
        system.env.run()
        armed.clear()
        accel.txns.__dict__.pop("apply_atomic", None)
        accel.endpoint.__dict__.pop("send", None)
    return recorder


class TestSpanTrees:
    """A covered update's span tree is one record that reads back as
    the rows it replaces."""

    @given(
        eager=st.booleans(),
        cap=st.one_of(st.none(), st.integers(0, 60)),
        ops=st.lists(
            st.tuples(
                st.sampled_from(SITES),
                st.integers(0, 2),
                st.sampled_from([-40.0, -9.0, -2.0, -1.0, 0.0, 3.0, 6.0]),
                st.sampled_from([None, None, "apply", "emit", "send", "crash"]),
            ),
            max_size=20,
        ),
    )
    @settings(max_examples=60, deadline=None)
    def test_trees_read_back_as_rows(self, eager, cap, ops):
        tree = run_ops(SpanRecorder(cap), eager, ops)
        rows = run_ops(RowRecorder(cap), eager, ops)
        assert stream(tree) == stream(rows)
        assert tree.fingerprint() == rows.fingerprint()
        assert (len(tree), tree.dropped) == (len(rows), rows.dropped)

    @pytest.mark.parametrize("eager", [False, True])
    def test_covered_update_writes_no_row(self, eager, monkeypatch):
        system = build_paper_system(n_items=5, seed=0, observe=True,
                                    propagate=eager)
        accel = system.sites["site1"].accelerator

        def no_rows(*args, **kwargs):
            raise AssertionError("a covered update opened or wrote a row")

        monkeypatch.setattr(SpanRecorder, "open_row", no_rows)
        monkeypatch.setattr(SpanRecorder, "write_row", no_rows)
        done = [accel.update("item0", 3.0), accel.update("item1", -2.0),
                accel.update("item2", 0.0)]
        monkeypatch.undo()
        assert all(ev.ok and ev.value.local_only for ev in done)
        names = system.obs.recorder.names()
        assert names == {"update": 3, "av.checking": 3, "delay.apply": 3,
                         **({"prop.push": 2} if eager else {})}
        assert len(system.obs.recorder) == (11 if eager else 9)


class Handle:
    """The reference's span handle: one object per open span, its
    attributes one dict, written as a row when it finishes."""

    def __init__(self, recorder, row, name, site, start, attrs):
        self.recorder, self.row = recorder, row
        self.name, self.site, self.start, self.attrs = name, site, start, attrs

    def finish(self, now, **attrs):
        del self.recorder.handles[self.row[1]]
        if attrs:
            if self.attrs is None:
                self.attrs = attrs
            else:
                self.attrs.update(attrs)
        keys = tuple(self.attrs) if self.attrs else ()
        self.recorder.write_row(self.row, self.name, self.site, self.start,
                                now, keys, self.attrs.values() if keys else ())

    def read(self):
        trace, span_id, parent_id = self.row
        return Span(trace, span_id, parent_id, self.name, self.site,
                    self.start, None, self.attrs)


class HandleRecorder(SpanRecorder):
    """The reference: every span that stays open is a :class:`Handle`,
    and every span pair is written as the rows and handles the process
    path wrote one span at a time. It shares only the row, tree and
    column code with :class:`SpanRecorder`, never its open-span table."""

    def __init__(self, max_spans=None):
        super().__init__(max_spans)
        self.handles = {}

    def start(self, name, site, now, trace=None, parent=None, **attrs):
        row = self.open_row(parent, trace)
        handle = Handle(self, row, name, site, now, attrs or None)
        if row[1]:
            self.handles[row[1]] = handle
        return handle

    def open_span(self, name, site, now, keys=(), values=(), parent=None,
                  trace=None):
        return self.start(name, site, now, trace, parent,
                          **dict(zip(keys, values))).row

    def keep_open(self, row, name, site, start, keys=(), values=()):
        if row[1]:
            self.handles[row[1]] = Handle(self, row, name, site, start,
                                          dict(zip(keys, values)) or None)

    def close_span(self, row, end, keys=(), values=()):
        if row[1] in self.handles:
            self.handles[row[1]].finish(end, **dict(zip(keys, values)))

    def open_pair(self, kind, site, now, values, parent=None, trace=None):
        if kind == PAIR_ROOT:
            item, delta, verdict = values
            root = self.start("update", site, now, trace=trace, parent=parent,
                              item=item, delta=delta).row
            verdict_row = self.open_row(root)
            self.write_row(verdict_row, "av.checking", site, now, now,
                           ("verdict",), (verdict,))
            return root, verdict_row
        target, amount = values
        select = self.open_row(parent, trace)
        self.write_row(select, "av.selecting", site, now, now, ("target",),
                       (target,))
        request = self.start("av.request", site, now, trace=trace,
                             parent=parent, target=target, amount=amount)
        return select, request.row

    def write_pair(self, site, now, values, parent=None, trace=None):
        item, requester, granted, after, available, requested = values
        grant = self.open_row(parent, trace)
        decide = self.open_row(grant)
        self.write_row(decide, "av.deciding", site, now, now,
                       ("available", "requested", "granted"),
                       (available, requested, granted))
        self.write_row(grant, "av.grant", site, now, now,
                       ("item", "requester", "granted", "av_after"),
                       (item, requester, granted, after))

    def __iter__(self):
        spans = list(self._finished())
        spans += [handle.read() for handle in self.handles.values()]
        spans.sort(key=lambda span: span.span_id)
        return iter(spans)


def same_record(a, b):
    assert stream(a) == stream(b)
    assert stream_pin(a) == stream_pin(b)


#: one step of a pair sequence: an op, then draws it picks with
PAIR_OPS = st.lists(
    st.tuples(
        st.sampled_from(["root", "round", "close", "close", "grant",
                         "undefined", "select-raises", "grant-raises",
                         "read", "tick"]),
        st.integers(0, 7),
        st.sampled_from([0.0, -2.0, 3.5]),
    ),
    max_size=40,
)


def drive_pairs(rec, ops, check=None):
    """Drive ``ops`` through ``rec`` as the process path calls it: roots
    that wait, AV rounds under them, requests that end granted, timed
    out or in error (or never: their body raised, or the read came
    first), grants with and without context, and the rows and open
    handles a raising body leaves. ``check`` is called at every read."""
    now = 0.0
    roots, requests = [], []
    for op, pick, value in ops:
        site = SITES[pick % 3]
        if op == "tick":
            now += 1.5
        elif op == "root":
            root, verdict = rec.open_pair(
                PAIR_ROOT, site, now, (f"item{pick}", value, "delay"),
                trace=f"{site}:u{len(roots) + 1}",
            )
            assert verdict[1] in (0, root[1] + 1)
            roots.append(root)
        elif op == "round":
            parent = roots[pick % len(roots)] if roots and pick else None
            select, request = rec.open_pair(
                PAIR_ROUND, site, now, (SITES[(pick + 1) % 3], 5.0 + pick),
                parent=parent,
            )
            requests.append(request)
        elif op == "close" and (requests or roots):
            if requests and pick % 4:
                key, closing = [("granted", value), ("timeout", True),
                                ("error", True)][pick % 3]
                rec.close_span(requests.pop(pick % len(requests)), now,
                               (key,), (closing,))
            elif roots:
                rec.close_span(roots.pop(pick % len(roots)), now,
                               ("outcome",), (["committed", "rejected"][pick % 2],))
        elif op == "grant":
            link = ()
            if requests and pick % 2:
                request = requests[pick % len(requests)]
                link = (request[1], request[0])
            rec.write_pair(site, now, ("item0", "site1", value, 7.0 - value,
                                       7.0, 4.0), *link)
        elif op == "undefined":
            rec.write_row(rec.open_row(), "av.grant", site, now, now,
                          ("item", "requester", "granted", "undefined"),
                          ("item0", "site1", 0.0, True))
        elif op == "select-raises":
            rec.keep_open(rec.open_row(roots[-1] if roots else None),
                          "av.selecting", site, now)
        elif op == "grant-raises":
            grant = rec.open_row()
            if pick % 3:
                decide = rec.open_row(grant)
                rec.keep_open(decide, "av.deciding", site, now,
                              ("available", "requested"), (7.0, 4.0))
            rec.keep_open(grant, "av.grant", site, now,
                          ("item", "requester"), ("item0", "site1"))
        elif op == "read" and check is not None:
            check()
    return rec


class TestSpanPairs:
    """Two spans that open back to back are one record, which reads back
    as the rows and handles it replaces."""

    @given(cap=st.one_of(st.none(), st.integers(0, 5), st.integers(0, 30)),
           ops=PAIR_OPS)
    @settings(max_examples=150, deadline=None)
    def test_pairs_read_back_as_rows_and_handles(self, cap, ops):
        pairs, handles = SpanRecorder(cap), HandleRecorder(cap)
        reads = {pairs: [], handles: []}
        for rec in (pairs, handles):
            drive_pairs(rec, ops, lambda: reads[rec].append(stream_pin(rec)))
        assert reads[pairs] == reads[handles]
        same_record(pairs, handles)

    @given(
        cap=st.one_of(st.none(), st.integers(0, 900)),
        until=st.one_of(st.none(), st.floats(0.0, 40.0)),
        drop=st.sampled_from([0.0, 0.3]),
        crash=st.one_of(st.none(), st.tuples(st.sampled_from(SITES),
                                             st.floats(0.0, 30.0))),
    )
    @settings(max_examples=25, deadline=None)
    def test_protocol_writes_what_handles_wrote(self, cap, until, drop, crash):
        """The whole process path, through both recorders: requests that
        time out on a lossy network, sites that crash with requests in
        flight, caps anywhere and reads before the run is over."""
        def run(recorder):
            from repro.workload.driver import run_open, split_by_site

            system = build_paper_system(
                n_retailers=4, n_items=3, seed=2, observe=True,
                request_timeout=6.0 if drop or crash else None,
            )
            system.obs.recorder = recorder
            system.network.faults.drop_probability = drop
            if crash is not None:
                site, at = crash
                system.env.process(
                    crash_at(system.env, system.network.faults, site, at)
                )
            trace = make_paper_trace(150, seed=2, n_items=3, n_retailers=4)
            run_open(system, split_by_site(trace), interarrival=0.5,
                     until=until, open_loop=True)
            return system

        pairs, handles = run(SpanRecorder(cap)), run(HandleRecorder(cap))
        same_record(pairs.obs.recorder, handles.obs.recorder)

    def test_waiting_delay_update_allocates_no_span(self, monkeypatch):
        system = build_paper_system(n_items=5, seed=0, observe=True)

        def no_handles(*args, **kwargs):
            raise AssertionError("a span handle was allocated")

        monkeypatch.setattr(Span, "__init__", no_handles)
        done = system.sites["site1"].update("item0", -60.0)
        system.run()
        monkeypatch.undo()
        assert done.value.committed and done.value.av_requests == 2
        assert system.obs.recorder.names() == {
            "update": 1, "av.checking": 1, "av.selecting": 2,
            "av.request": 2, "av.grant": 2, "av.deciding": 2,
            "delay.apply": 1,
        }

    def test_overload_scenario_record_count(self):
        """1 833 spans; the process path's pairs make them 1 230 column
        records (one span per record, 1 833 records, before pairs)."""
        overload = next(s for s in SMALL_SCENARIOS if s.name == "overload")
        rec = run_chaos_scenario(overload, n_updates=600, seed=3).obs.recorder
        assert len(rec) == 1833
        assert len(rec._ids) == 1230

    def test_null_recorder_writes_no_pair(self):
        rec = NullSpanRecorder()
        assert rec.open_pair(PAIR_ROOT, "s", 0.0, ("a", 1.0, "delay"),
                             trace="s:u1") == (NULL_ROW, NULL_ROW)
        rec.close_span(NULL_ROW, 1.0, ("outcome",), ("committed",))
        rec.write_pair("s", 0.0, ("a", "s1", 1.0, 2.0, 3.0, 1.0))
        assert len(rec) == 0 and list(rec) == []


#: one step of an open-table sequence: an op, a draw it picks with, and
#: how long its span waits
OPEN_OPS = st.lists(
    st.tuples(
        st.sampled_from(["span", "span", "nested", "root", "round",
                         "grant", "row", "raise"]),
        st.integers(0, 7),
        st.sampled_from([0.0, 0.5, 2.0, 7.0]),
    ),
    max_size=30,
)

#: closing keys by draw: none, a new key, a repeat of an opening key
#: first, and two repeats in the other order
CLOSING_KEYS = ((), ("ready",), ("item", "ready"), ("delta", "item"))


def drive_open(rec, ops, until):
    """Run ``ops`` as processes on their own clock, one starting every
    0.25: a span that waits across a ``yield`` and then closes, one
    opened under a span still open, a root or round pair that waits, a
    grant pair, a row, and a span whose body raises before it closes.
    ``until`` may cut the run with spans still open. Returns the reads
    taken every 1.5 and at the end."""
    from repro.sim import Environment

    env = Environment()
    live, reads = [], []

    def run(at, op, pick, wait):
        yield env.timeout(at)
        site, now = SITES[pick % 3], env.now
        parent = live[pick % len(live)] if live and pick % 2 else None
        if op in ("span", "nested"):
            keys = ("item", "delta")[:pick % 3]
            row = rec.open_span(
                "imm.lock", site, now, keys, (f"item{pick}", -1.0)[:len(keys)],
                parent=parent if op == "nested" else None,
            )
            live.append(row)
            yield env.timeout(wait)
            closing = CLOSING_KEYS[pick % 4]
            rec.close_span(row, env.now, closing, tuple(range(len(closing))))
            live.remove(row)
        elif op == "root":
            root, _ = rec.open_pair(PAIR_ROOT, site, now,
                                    (f"item{pick}", -1.0, "delay"),
                                    trace=f"{site}:u{pick}")
            live.append(root)
            yield env.timeout(wait)
            rec.close_span(root, env.now, ("outcome",), ("committed",))
            live.remove(root)
        elif op == "round":
            _, request = rec.open_pair(PAIR_ROUND, site, now,
                                       (SITES[(pick + 1) % 3], 5.0),
                                       parent=parent)
            yield env.timeout(wait)
            key = ("granted", "timeout", "error")[pick % 3]
            rec.close_span(request, env.now, (key,), (wait,))
        elif op == "grant":
            link = (parent[1], parent[0]) if parent else ()
            rec.write_pair(site, now, ("item0", "site1", 1.0, 6.0, 7.0, 4.0),
                           *link)
        elif op == "row":
            rec.write_row(rec.open_row(parent), "delay.apply", site, now, now,
                          ("item", "delta"), ("item0", -1.0))
        else:  # the body raised: the span stays open
            rec.open_span("read", site, now, ("item",), ("item0",),
                          parent=parent)

    def reader():
        while True:
            yield env.timeout(1.5)
            reads.append((stream(rec), stream_pin(rec)))

    for i, (op, pick, wait) in enumerate(ops):
        env.process(run(0.25 * i, op, pick, wait))
    env.process(reader())
    env.run(until=until)
    reads.append((stream(rec), stream_pin(rec)))
    return reads


class TestOpenTable:
    """Every open span is one entry in one table, opened by one call and
    closed by one: it writes what the handle reference writes."""

    @given(cap=st.one_of(st.none(), st.integers(0, 12)), ops=OPEN_OPS,
           until=st.sampled_from([3.0, 6.5, 20.0]))
    @settings(max_examples=150, deadline=None)
    def test_open_table_writes_what_handles_wrote(self, cap, ops, until):
        table, handles = SpanRecorder(cap), HandleRecorder(cap)
        assert drive_open(table, ops, until) == drive_open(handles, ops, until)
        assert stream(table) == stream(handles)
        assert table.fingerprint() == handles.fingerprint()
        assert (len(table), table.dropped) == (len(handles), handles.dropped)

    @pytest.mark.parametrize("kind", [PAIR_ROOT, PAIR_ROUND])
    @pytest.mark.parametrize("cap", [1, 2, 3, 4, 5])
    def test_cap_before_between_and_after_a_pair(self, kind, cap):
        """A span, then a pair, then a span, each left open and then
        closed; the cap falls before the pair (1), between its ids (2),
        after it (3) and past everything (4, 5)."""
        def drive(rec):
            first = rec.open_span("read", "s", 0.0, ("item",), ("a",))
            values = ((("a", 1.0, "delay"), ("outcome",)) if kind == PAIR_ROOT
                      else (("site0", 5.0), ("granted",)))
            pair = rec.open_pair(kind, "s", 1.0, values[0], parent=first)
            last = rec.open_span("imm.lock", "s", 2, parent=pair[0])
            reads = [stream(rec)]
            rec.close_span(pair[kind], 3.0, values[1], (2.0,))
            reads.append(stream(rec))
            rec.close_span(last, 4.0, ("item",), ("b",))
            rec.close_span(first, 5.0, ("item", "peers"), ("c", 2))
            return reads + [stream(rec), rec.fingerprint(), rec.dropped]

        assert drive(SpanRecorder(cap)) == drive(HandleRecorder(cap))

    def test_spans_open_at_the_end_read_back_open(self):
        rec = SpanRecorder()
        drive_open(rec, [("span", 1, 7.0), ("root", 2, 7.0),
                         ("round", 3, 7.0), ("raise", 0, 0.0)], until=2.0)
        assert [(s.name, s.end) for s in rec] == [
            ("imm.lock", None), ("update", None), ("av.checking", 0.25),
            ("av.selecting", 0.5), ("av.request", None), ("read", None),
        ]
        assert len(rec._open) == 4


def crash_at(env, faults, site, at):
    yield env.timeout(at)
    faults.crash(site)


class TestFedRegistry:
    """The collector folds into the shared hub registry when it is read,
    not at every record."""

    @staticmethod
    def _reads(eager):
        """Run an observed, overloaded workload; after every recorded
        update, read the hub registry three ways."""
        from repro.core.overload import OverloadParams

        system = build_paper_system(
            n_items=5, seed=2, observe=True,
            overload=OverloadParams(inflight_budget=2),
        )
        registry, collector = system.obs.registry, system.collector
        record = collector.record
        reads = []

        def record_and_read(result):
            record(result)
            if eager:
                collector._fold(registry)
            reads.append((
                registry.snapshot(),
                registry.counter("updates.committed").value,
                len(registry),
            ))

        collector.record = record_and_read
        run_closed(system, make_paper_trace(150, seed=2, n_items=5))
        return reads

    def test_mid_run_reads_equal_an_eager_fold(self):
        fed, eager = self._reads(False), self._reads(True)
        assert len(fed) == 150
        assert fed == eager
        assert any(name.startswith("overload.") for name in fed[-1][0])

    def test_records_fold_only_when_read(self):
        system = build_paper_system(n_items=5, seed=2, observe=True)
        run_closed(system, make_paper_trace(40, seed=2, n_items=5))
        collector = system.collector
        assert collector._fold.done == 0
        assert system.obs.registry.counter("updates.committed").value > 0
        assert collector._fold.done == collector.total == 40

    def test_a_finished_run_is_freed_without_a_collection(self):
        """Registering the fold makes no reference cycle."""
        import weakref

        system = build_paper_system(n_items=5, seed=2, observe=True)
        run_closed(system, make_paper_trace(40, seed=2, n_items=5))
        collector = weakref.ref(system.collector)
        gc.disable()
        try:
            del system
            assert collector() is None
        finally:
            gc.enable()
