"""Unit tests for workload generators, drivers and traces."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.cluster import build_paper_system
from repro.workload import (
    PaperWorkload,
    WorkloadEvent,
    WorkloadTrace,
    run_closed,
    run_open,
    split_by_site,
)


def make_paper(**kw):
    defaults = dict(
        maker="site0",
        retailers=["site1", "site2"],
        items=["A", "B", "C"],
        initial_stock=100.0,
        rng=np.random.default_rng(0),
    )
    defaults.update(kw)
    return PaperWorkload(**defaults)


class TestPaperWorkload:
    def test_roundrobin_site_order(self):
        events = list(make_paper().events(6))
        assert [e.site for e in events] == [
            "site0", "site1", "site2", "site0", "site1", "site2",
        ]

    def test_maker_increases_retailers_decrease(self):
        for e in make_paper().events(300):
            if e.site == "site0":
                assert 1 <= e.delta <= 20
            else:
                assert -10 <= e.delta <= -1

    def test_delta_caps_scale_with_fractions(self):
        gen = make_paper(increase_fraction=0.5, decrease_fraction=0.02)
        deltas_maker = [e.delta for e in gen.events(300) if e.site == "site0"]
        deltas_ret = [e.delta for e in gen.events(300) if e.site != "site0"]
        assert max(deltas_maker) > 20  # cap now 50
        assert min(deltas_ret) >= -2

    def test_deltas_are_whole_units(self):
        assert all(float(e.delta).is_integer() for e in make_paper().events(50))

    def test_random_site_order(self):
        gen = make_paper(site_order="random", rng=np.random.default_rng(1))
        sites = {e.site for e in gen.events(100)}
        assert sites == {"site0", "site1", "site2"}

    def test_deterministic_given_seed(self):
        a = list(make_paper(rng=np.random.default_rng(7)).events(50))
        b = list(make_paper(rng=np.random.default_rng(7)).events(50))
        assert a == b

    @pytest.mark.parametrize("n", [0, 1, 7, 500])
    @pytest.mark.parametrize("n_retailers", [1, 2, 8])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_block_draw_is_the_scalar_stream(self, n, n_retailers, seed):
        """The one-call draw equals one variate at a time, event for
        event, and leaves the generator where the scalar loop does."""

        def scalar_reference(gen, n):
            sites = [gen.maker, *gen.retailers]
            out = []
            for i in range(n):
                site = sites[i % len(sites)]
                item = gen.items[int(gen.rng.integers(len(gen.items)))]
                if site == gen.maker:
                    cap, sign = gen.initial_stock * gen.increase_fraction, 1.0
                else:
                    cap, sign = gen.initial_stock * gen.decrease_fraction, -1.0
                magnitude = float(gen.rng.integers(1, max(1, int(cap)) + 1))
                out.append(WorkloadEvent(site, item, sign * magnitude))
            return out

        def make():
            return make_paper(
                retailers=[f"site{i + 1}" for i in range(n_retailers)],
                rng=np.random.default_rng(seed),
                # a one-item catalogue and a cap of one draw no variate
                items=["A", "B", "C"] if seed else ["A"],
                decrease_fraction=0.10 if seed else 0.01,
            )

        block, reference = make(), make()
        assert list(block.events(n)) == scalar_reference(reference, n)
        assert block.rng.integers(1 << 30) == reference.rng.integers(1 << 30)

    def test_scalar_path_kept_where_bounds_depend_on_draws(self):
        a = make_paper(rng=np.random.default_rng(5), site_order="random")
        b = make_paper(rng=np.random.default_rng(5), site_order="random")
        assert list(a.events(40)) == list(b.events_scalar(40))

    def test_validation(self):
        with pytest.raises(ValueError):
            make_paper(retailers=[])
        with pytest.raises(ValueError):
            make_paper(items=[])
        with pytest.raises(ValueError):
            make_paper(site_order="bogus")
        with pytest.raises(ValueError):
            make_paper(increase_fraction=0.0)


class TestTrace:
    def test_capture_and_replay(self):
        trace = WorkloadTrace.capture(make_paper(), 20)
        assert len(trace) == 20
        assert list(trace.events(20)) == list(trace)
        assert trace[0].site == "site0"

    def test_replay_beyond_capture_rejected(self):
        trace = WorkloadTrace.capture(make_paper(), 5)
        with pytest.raises(ValueError):
            list(trace.events(6))

    def test_save_load_round_trip(self, tmp_path):
        trace = WorkloadTrace.capture(make_paper(), 30)
        path = tmp_path / "trace.tsv"
        trace.save(path)
        loaded = WorkloadTrace.load(path)
        assert loaded == trace

    def test_load_malformed_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("site0\tA\n")
        with pytest.raises(ValueError, match="malformed"):
            WorkloadTrace.load(path)

    def test_empty_trace_save_load(self, tmp_path):
        path = tmp_path / "empty.tsv"
        WorkloadTrace([]).save(path)
        assert len(WorkloadTrace.load(path)) == 0

    def test_split_by_site(self):
        trace = WorkloadTrace.capture(make_paper(), 9)
        split = split_by_site(trace)
        assert set(split) == {"site0", "site1", "site2"}
        assert all(len(v) == 3 for v in split.values())


class TestDrivers:
    def test_run_closed_returns_ordered_results(self):
        system = build_paper_system(n_items=3, initial_stock=100.0)
        events = [
            WorkloadEvent("site1", "item0", -5),
            WorkloadEvent("site2", "item1", -5),
            WorkloadEvent("site0", "item2", +5),
        ]
        results = run_closed(system, events)
        assert len(results) == 3
        assert [r.request.site for r in results] == ["site1", "site2", "site0"]
        assert all(r.committed for r in results)

    def test_run_closed_on_complete_hook(self):
        system = build_paper_system(n_items=1, initial_stock=100.0)
        seen = []
        run_closed(
            system,
            [WorkloadEvent("site1", "item0", -1)] * 3,
            on_complete=lambda i, e, r: seen.append(i),
        )
        assert seen == [0, 1, 2]

    def test_run_open_routes_streams(self):
        system = build_paper_system(n_items=2, initial_stock=100.0)
        per_site = {
            "site1": [WorkloadEvent("site1", "item0", -1)] * 5,
            "site2": [WorkloadEvent("site2", "item1", -1)] * 5,
        }
        results = run_open(system, per_site, interarrival=2.0)
        assert len(results) == 10

    def test_run_open_rejects_misrouted_event(self):
        system = build_paper_system(n_items=1, initial_stock=100.0)
        per_site = {"site1": [WorkloadEvent("site2", "item0", -1)]}
        with pytest.raises(ValueError, match="wrong site"):
            run_open(system, per_site, interarrival=1.0)


class TestTraceSummary:
    def test_summary_aggregates(self):
        trace = WorkloadTrace(
            [
                WorkloadEvent("site0", "A", +10),
                WorkloadEvent("site1", "A", -4),
                WorkloadEvent("site2", "B", -6),
            ]
        )
        s = trace.summary()
        assert s.events == 3
        assert s.per_site == {"site0": 1, "site1": 1, "site2": 1}
        assert s.per_item == {"A": 2, "B": 1}
        assert s.net_delta == {"A": 6, "B": -6}
        assert s.increments == 1 and s.decrements == 2
        assert s.volume_in == 10 and s.volume_out == 10
        assert s.supply_demand_ratio == 1.0
        assert "supply/demand" in str(s)

    def test_paper_trace_is_balanced(self):
        """The calibrated paper workload runs near supply/demand parity."""
        from repro.experiments import make_paper_trace

        summary = make_paper_trace(900, seed=0, n_items=10).summary()
        assert 0.8 < summary.supply_demand_ratio < 1.25

    def test_empty_trace_summary(self):
        s = WorkloadTrace([]).summary()
        assert s.events == 0
        assert s.supply_demand_ratio == float("inf")


def _scale_trace(n, seed):
    from repro.cluster import Topology
    from repro.experiments.scale import make_scale_trace

    items = [f"item{i:04d}" for i in range(10_000)]
    return make_scale_trace(Topology.parse("regional:7x6:s2", items), n, seed)


def _paper_trace(n, n_retailers, n_items=10):
    from repro.experiments.fig6 import make_paper_trace

    return make_paper_trace(n, 0, n_items=n_items, n_retailers=n_retailers)


def _overload_trace(n):
    from repro.cluster import paper_config
    from repro.experiments.chaos import _overload_trace

    return _overload_trace(n, 0, paper_config(n_items=6, regular_fraction=0.5))


#: (name, trace factory, sha256 of the trace text, the generator's PCG64
#: state after capture, ``has_uint32``, ``uinteger`` when one is buffered):
#: the scale stream at benchmark size (40 001 events leave a half-word
#: buffered), the paper stream of fig6 and chaos, the overload surge
STREAM_PINS = [
    ("scale 2000 seed 0", lambda: _scale_trace(2000, 0),
     "b945cad3d6d14ee620bf775e5d30f1a6a832ce2685e054e774df6e82afbd480d",
     0x7544D1DC6235E31782BD7DAF9B1EC9DF, 0, None),
    ("scale 40000 seed 0", lambda: _scale_trace(40_000, 0),
     "fa17213371d161f3db0584bb6992d50f3bc0f87371a2b229f9137b44bfeb03c5",
     0xAE011B25E018185E45EAC3A6AD1B5331, 0, None),
    ("scale 40000 seed 1", lambda: _scale_trace(40_000, 1),
     "d15d83bbc057f7e4c20f9a965bfa97c3a1f68390a9fdf8a4ea76505fcca96f67",
     0x671AD0AD1A6D87A32F9FE1F733982F2E, 0, None),
    ("scale 40001 seed 5", lambda: _scale_trace(40_001, 5),
     "372271e397febe77fdb0db8f9ecbef099b3ef8c1b9fa6096bc47f29864bd82d1",
     0x0C0B55BA0C519397EA2F39A91834B83D, 1, 1556385154),
    ("paper 1000, 2 retailers", lambda: _paper_trace(1000, 2),
     "70e24a863491e0d95680af45cec00a20c4fdc6f2a0b047b8b1454a82739583f7",
     0xEFBC6AA9C912E972375F90FC321124D1, 0, None),
    ("paper 1000, 8 retailers", lambda: _paper_trace(1000, 8),
     "9a507fb435a31bf392f9c4b6c6c65fd1cb3640aa376538dd174de159d93a0181",
     0xEFBC6AA9C912E972375F90FC321124D1, 0, None),
    ("paper 20000 (chaos size)", lambda: _paper_trace(20_000, 2, n_items=6),
     "1fe3e35ab95c5faa8b90ed9ba2825c6af9844ff3e3be1da88dfe50d3f9c7f34b",
     0x306BA15D06CAF58D9E49D4C1ABC99939, 0, None),
    ("overload 20000", lambda: _overload_trace(20_000),
     "812c3a986eb0074800070e0fba2bcf1e5397a8f0be6655b171c777212ca0917b",
     0x8437CF262F23B21681D168D956AEEEB0, 0, None),
]


class TestZipfSampler:
    """The truncated Zipf sampler feeding the scale-out workloads."""

    def test_seed_and_skew_reproducibility(self):
        from repro.workload import ZipfSampler

        a = ZipfSampler(50, 1.2, np.random.default_rng(7))
        b = ZipfSampler(50, 1.2, np.random.default_rng(7))
        assert [a.draw_rank() for _ in range(200)] == [
            b.draw_rank() for _ in range(200)
        ]
        c = ZipfSampler(50, 1.2, np.random.default_rng(8))
        assert [a.draw_rank() for _ in range(200)] != [
            c.draw_rank() for _ in range(200)
        ]

    def test_probabilities_normalised_and_monotone(self):
        from repro.workload import ZipfSampler

        s = ZipfSampler(20, 1.5, np.random.default_rng(0))
        probs = [s.probability(r) for r in range(1, 21)]
        assert sum(probs) == pytest.approx(1.0)
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_frequency_rank_slope_matches_skew(self):
        """Log-log regression of sampled frequencies ≈ -skew."""
        from repro.workload import ZipfSampler

        skew = 1.3
        s = ZipfSampler(30, skew, np.random.default_rng(3))
        counts = np.zeros(30)
        for _ in range(30_000):
            counts[s.draw_index()] += 1
        head = slice(0, 10)  # the head ranks have tight counts
        slope = np.polyfit(
            np.log(np.arange(1, 31)[head]), np.log(counts[head]), 1
        )[0]
        assert slope == pytest.approx(-skew, abs=0.12)

    @pytest.mark.parametrize("n,skew", [(1, 1.1), (7, 0.0), (50, 1.2), (997, 1.1)])
    def test_draw_is_the_searchsorted_index(self, n, skew):
        """A draw is ``np.searchsorted(cdf, u, side="right")`` for random
        ``u`` and for ``u`` exactly at every CDF entry."""
        from repro.workload import ZipfSampler

        sampler = ZipfSampler(n, skew, np.random.default_rng(0))
        cdf = np.array(sampler._cdf, dtype=np.float64)
        us = np.random.default_rng(1).random(500).tolist() + cdf.tolist()
        us += [0.0, float(np.nextafter(cdf[0], 0.0))]

        sampler.rng = SimpleNamespace(random=iter(us).__next__)
        for u in us:
            expected = int(np.searchsorted(cdf, u, side="right")) + 1
            assert sampler.draw_rank() == expected

    def test_scale_trace_is_pinned(self, monkeypatch):
        """Every benchmark stream, pinned byte for byte, and the generator
        left where the stream's last draw leaves it."""
        import hashlib

        from repro.sim.rng import RngRegistry

        raw_stream = RngRegistry.stream
        streams = []

        def stream(registry, name):
            streams.append(raw_stream(registry, name))
            return streams[-1]

        monkeypatch.setattr(RngRegistry, "stream", stream)
        for name, make, digest, state, has_uint32, uinteger in STREAM_PINS:
            streams.clear()
            trace = make()
            (rng,) = streams
            text = "".join(f"{e.site}\t{e.item}\t{e.delta!r}\n" for e in trace)
            assert hashlib.sha256(text.encode()).hexdigest() == digest, name
            after = rng.bit_generator.state
            assert after["state"]["state"] == state, name
            assert after["has_uint32"] == has_uint32, name
            if has_uint32:
                assert after["uinteger"] == uinteger, name

    def test_rejects_bad_parameters(self):
        from repro.workload import ZipfSampler

        with pytest.raises(ValueError):
            ZipfSampler(0, 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ZipfSampler(5, -0.1, np.random.default_rng(0))


class TestNormalizeMix:
    def test_normalises_and_sorts(self):
        from repro.workload import normalize_mix

        mix = normalize_mix({"b": 3.0, "a": 1.0})
        assert list(mix) == ["a", "b"]
        assert mix["a"] == pytest.approx(0.25)
        assert mix["b"] == pytest.approx(0.75)
        assert sum(mix.values()) == pytest.approx(1.0)

    def test_rejects_degenerate_mixes(self):
        from repro.workload import normalize_mix

        with pytest.raises(ValueError):
            normalize_mix({})
        with pytest.raises(ValueError):
            normalize_mix({"a": -1.0, "b": 2.0})
        with pytest.raises(ValueError):
            normalize_mix({"a": 0.0})


class _CallCounter:
    """Forwards to ``target`` and counts each method call and each read or
    write of ``state``; ``bit_generator`` comes back wrapped the same way."""

    def __init__(self, target, calls):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_calls", calls)

    def __getattr__(self, name):
        value = getattr(self._target, name)
        if name == "bit_generator":
            return _CallCounter(value, self._calls)
        if name == "state":
            self._calls[0] += 1
        elif callable(value):
            def call(*args, **kwargs):
                self._calls[0] += 1
                return value(*args, **kwargs)

            return call
        return value

    def __setattr__(self, name, value):
        self._calls[0] += 1
        setattr(self._target, name, value)


class TestTopologyWorkload:
    def _topology(self):
        from repro.cluster import Topology

        return Topology.regional(
            [f"item{i}" for i in range(12)], 2, 3, spread=2
        )

    def test_events_respect_roles_and_interest_sets(self):
        from repro.workload import TopologyWorkload

        topo = self._topology()
        wl = TopologyWorkload(topo, 100.0, np.random.default_rng(1))
        for event in wl.events(300):
            role = topo.role_of(event.site)
            assert role != "aggregator"
            assert event.item in topo.interest_of(event.site)
            if role == "maker":
                assert event.delta > 0
            else:
                assert event.delta < 0

    def test_maker_share_is_respected(self):
        from repro.workload import TopologyWorkload

        topo = self._topology()
        wl = TopologyWorkload(
            topo, 100.0, np.random.default_rng(2), maker_share=1.0 / 3.0
        )
        events = list(wl.events(3000))
        mints = sum(1 for e in events if e.site == topo.maker)
        assert mints / len(events) == pytest.approx(1 / 3, abs=0.04)

    def test_site_mix_skews_leaf_traffic(self):
        from repro.workload import TopologyWorkload

        topo = self._topology()
        leaves = [s for s in topo.names if topo.role_of(s) == "retailer"]
        mix = {leaf: (4.0 if leaf == leaves[0] else 1.0) for leaf in leaves}
        wl = TopologyWorkload(
            topo, 100.0, np.random.default_rng(3), mix=mix
        )
        counts = {leaf: 0 for leaf in leaves}
        for event in wl.events(4000):
            if event.site != topo.maker:
                counts[event.site] += 1
        hot = counts[leaves[0]] / sum(counts.values())
        assert hot == pytest.approx(4.0 / 9.0, abs=0.04)

    def test_deterministic_for_equal_seeds(self):
        from repro.workload import TopologyWorkload

        topo = self._topology()
        a = TopologyWorkload(topo, 100.0, np.random.default_rng(9))
        b = TopologyWorkload(topo, 100.0, np.random.default_rng(9))
        assert list(a.events(100)) == list(b.events(100))

    def test_scale_capture_calls_grow_with_chunks_not_events(self):
        """An exact, host-independent work count: calls into the generator
        and its bit generator while the 40 000-event benchmark stream is
        captured. Drawn one variate at a time it takes 146 706 (3.67 per
        event); drawn in chunks a bounded number per chunk."""
        from repro.cluster import Topology
        from repro.experiments.scale import make_scale_trace
        from repro.sim.rng import RngRegistry
        from repro.workload import TopologyWorkload
        from repro.workload.generators import DRAW_CHUNK

        calls = [0]
        items = [f"item{i:04d}" for i in range(10_000)]
        topo = Topology.parse("regional:7x6:s2", items)
        rng = RngRegistry(0).stream("workload.scale")
        generator = TopologyWorkload(topo, 100.0, _CallCounter(rng, calls))
        trace = WorkloadTrace.capture(generator, 40_000)
        assert trace == make_scale_trace(topo, 40_000, 0)
        chunks = -(-40_000 // DRAW_CHUNK)
        assert calls[0] <= 8 * chunks + 8, calls[0]

    def test_a_zero_weight_leaf_issues_no_updates(self):
        """Seven leaves at 1/7 each sum to 0.9999999999999998; the draw
        just below 1.0 still goes to one of them, not to the eighth leaf
        the mix leaves out, in both draw paths."""
        from repro.cluster import Topology
        from repro.workload import TopologyWorkload

        topo = Topology.parse("flat:8", [f"item{i}" for i in range(16)])
        leaves = [s for s in topo.names if topo.role_of(s) == "retailer"]
        mix = {leaf: 1.0 for leaf in leaves[:7]}
        u = float(np.nextafter(1.0, 0.0))

        scalar = TopologyWorkload(topo, 100.0, np.random.default_rng(0), mix=mix)
        scalar.rng = SimpleNamespace(random=lambda: u, integers=lambda lo, hi: lo)
        (event,) = scalar.events_scalar(1)
        assert event.site == leaves[6]

        chunked = TopologyWorkload(topo, 100.0, np.random.default_rng(0), mix=mix)
        # an all-ones word is the double 1 - 2**-53 = u
        words = np.asarray([2**64 - 1] * 4, dtype=np.uint64)
        (sites, _items, _deltas), _consumed, _carried = chunked._draw_chunk(
            words, 1, None, {}
        )
        assert sites == [leaves[6]]

    def test_rejects_mix_naming_non_leaves(self):
        from repro.workload import TopologyWorkload

        topo = self._topology()
        with pytest.raises(ValueError):
            TopologyWorkload(
                topo, 100.0, np.random.default_rng(0), mix={"agg0": 1.0}
            )


# -------------------------------------------------------------------- #
# the columnar trace against the events it stands for
# -------------------------------------------------------------------- #

def _assert_same_trace(trace, events):
    """Every read of ``trace`` returns what a list of ``events`` would."""
    assert type(trace) is WorkloadTrace
    assert len(trace) == len(events)
    assert list(trace) == events
    assert list(trace.rows()) == [tuple(e) for e in events]
    assert all(type(e) is WorkloadEvent for e in trace)
    rows = [(e.site, e.item, type(e.delta), repr(e.delta)) for e in events]
    assert [(e.site, e.item, type(e.delta), repr(e.delta))
            for e in trace] == rows
    for i in (0, len(events) // 2, -1):
        assert trace[i] == events[i] and type(trace[i]) is WorkloadEvent
        assert repr(trace[i].delta) == repr(events[i].delta)
    assert trace[1:4] == events[1:4]
    assert list(trace.events(3)) == events[:3]
    assert all(type(e) is WorkloadEvent for e in trace.events(3))
    with pytest.raises(ValueError):
        trace.events(len(events) + 1)
    assert trace == WorkloadTrace(events)
    # repr: a nan delta makes a summary unequal to itself
    assert repr(trace.summary()) == repr(_summary_of(events))


def _summary_of(events):
    """The aggregates of :meth:`WorkloadTrace.summary`, one event at a time."""
    from repro.workload import TraceSummary

    per_site, per_item, net = {}, {}, {}
    up = down = 0
    vin = vout = 0.0
    for e in events:
        per_site[e.site] = per_site.get(e.site, 0) + 1
        per_item[e.item] = per_item.get(e.item, 0) + 1
        net[e.item] = net.get(e.item, 0.0) + e.delta
        if e.delta >= 0:
            up, vin = up + 1, vin + e.delta
        else:
            down, vout = down + 1, vout - e.delta
    return TraceSummary(len(events), per_site, per_item, net, up, down, vin, vout)


class TestColumnarTrace:
    def test_paper_columns_equal_the_scalar_stream_and_a_reload(self, tmp_path):
        captured = WorkloadTrace.capture(make_paper(), 500)
        scalar = list(make_paper().events_scalar(500))
        _assert_same_trace(captured, scalar)
        path = tmp_path / "paper.tsv"
        captured.save(path)
        assert WorkloadTrace.load(path) == captured

    def test_scale_columns_equal_the_scalar_stream_and_a_reload(self, tmp_path):
        from repro.cluster import Topology
        from repro.workload import TopologyWorkload

        topo = Topology.parse("regional:2x3:s2", [f"i{k}" for k in range(30)])

        def make():
            return TopologyWorkload(topo, 100.0, np.random.default_rng(3))

        n = 2 * 1024 + 7
        captured = WorkloadTrace.capture(make(), n)
        _assert_same_trace(captured, list(make().events_scalar(n)))
        _assert_same_trace(captured, list(make().events(n)))
        path = tmp_path / "scale.tsv"
        captured.save(path)
        assert WorkloadTrace.load(path) == captured

    def test_a_rejecting_chunk_fills_its_columns_from_the_scalar_draw(
        self, monkeypatch
    ):
        """Caps of 997 on seed 2787: the bounded draw of the first chunk
        rejects (see ``test_properties_topology``), so that chunk's
        columns come from the scalar stream."""
        from repro.cluster import Topology
        from repro.workload import TopologyWorkload, generators

        bounded = generators._bounded
        rejected = []

        def spy(halves, bounds):
            drawn = bounded(halves, bounds)
            rejected.append(drawn is None)
            return drawn

        monkeypatch.setattr(generators, "_bounded", spy)
        topo = Topology.parse("regional:2x3:s2", [f"i{k}" for k in range(30)])

        def make():
            return TopologyWorkload(
                topo, 997.0, np.random.default_rng(2787),
                increase_fraction=1.0, decrease_fraction=1.0,
            )

        n = generators.DRAW_CHUNK + 5
        captured = WorkloadTrace.capture(make(), n)
        assert rejected[0] is True
        _assert_same_trace(captured, list(make().events_scalar(n)))

    def test_deltas_read_back_with_their_type_and_repr(self, tmp_path):
        events = [
            WorkloadEvent("site1", "A", 5),
            WorkloadEvent("site1", "B", 5.0),
            WorkloadEvent("site2", "A", -0.0),
            WorkloadEvent("site2", "B", 0.0),
            WorkloadEvent("site1", "C", float("nan")),
            WorkloadEvent("site0", "C", -2.5),
        ]
        trace = WorkloadTrace(events)
        _assert_same_trace(trace, events)
        split = split_by_site(trace)
        assert list(split) == ["site1", "site2", "site0"]
        for site, part in split.items():
            mine = [e for e in events if e.site == site]
            assert type(part) is WorkloadTrace
            assert [(type(e.delta), repr(e.delta)) for e in part] == [
                (type(e.delta), repr(e.delta)) for e in mine
            ]
        path = tmp_path / "deltas.tsv"
        trace.save(path)
        loaded = list(WorkloadTrace.load(path))
        assert [repr(e.delta) for e in loaded] == [
            "5.0", "5.0", "-0.0", "0.0", "nan", "-2.5"
        ]
        assert all(type(e.delta) is float for e in loaded)

    def test_split_by_site_keeps_each_sites_order(self):
        trace = WorkloadTrace.capture(make_paper(site_order="random"), 60)
        split = split_by_site(trace)
        assert list(split) == list(dict.fromkeys(e.site for e in trace))
        for site, part in split.items():
            assert list(part) == [e for e in trace if e.site == site]
        assert split_by_site(list(trace)) == split


#: trace bytes retained per event by ``make_scale_trace`` at 40 000
#: events: 80.7 B as a list of ``WorkloadEvent``, 24.0 B in columns
TRACE_BYTES_PER_EVENT = 28


def test_trace_bytes_per_event_are_bounded():
    """What a captured benchmark-size scale trace keeps, per event
    (tracemalloc's count of what the capture leaves live)."""
    import gc
    import tracemalloc

    from repro.cluster import Topology
    from repro.experiments.scale import make_scale_trace

    topo = Topology.parse(
        "regional:7x6:s2", [f"item{i:04d}" for i in range(10_000)]
    )
    make_scale_trace(topo, 100, 1)  # what every capture shares
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        trace = make_scale_trace(topo, 40_000, 0)
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(trace) == 40_000
    assert retained / len(trace) <= TRACE_BYTES_PER_EVENT
