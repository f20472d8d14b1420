"""Randomized topology properties (scale-out satellite).

Three properties over hypothesis-drawn topologies (2–15 sites, 1–3
levels) and Zipf-skewed workloads:

* **Interest-set routing** — no item-bearing message is ever sent to
  (or received by) a site outside that item's interest set. Checked by
  a network observer on every ``send``/``recv``; partial replication
  is only sound if this holds for *every* interleaving, so it is a
  property, not an example.
* **Multi-level AV conservation** — with the protocol sanitizer
  attached, the run ends with zero violations: Σ(leaf tables +
  aggregator pools + holds + in-transit grants) never exceeds the
  ledger headroom at any point, at any level of the supply tree. The
  explicit end-state check additionally pins Σ AV ≤ headroom exactly
  (no volume minted by pool refills).
* **The chunked draw is the scalar stream** — ``TopologyWorkload.events``
  yields exactly the events of ``events_scalar`` and leaves the
  generator where it does.
* **Set-up is the per-item reference** — interest sets, ``sites_for``,
  ``serves`` and every table bootstrap fills equal the O(items × sites)
  definitions and the per-item bootstrap loop kept here, in values, in
  insertion order and in which sites share a deal object.

``derandomize=True`` keeps CI stable (same examples every run; each
example is a deterministic simulation).
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    DistributedSystem,
    SiteSpec,
    Topology,
    paper_config,
    split_volume,
)
from repro.core.av_table import AVTable
from repro.core.beliefs import Belief, BeliefTable
from repro.db.storage import Store
from repro.metrics.collector import GlobalLedger
from repro.sim.rng import RngRegistry
from repro.workload import generators
from repro.workload.generators import DRAW_CHUNK, TopologyWorkload, events_of

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)

#: message kinds whose payload names a single catalogue item
ITEM_BEARING = (
    "av.request",
    "av.pool.request",
    "av.pool.refill",
    "av.push",
    "prop.delta",
    "read.owed",
    "cls.lock",
    "cls.to_regular",
    "cls.to_nonregular",
)


@st.composite
def topologies(draw):
    """A topology spec with 2–15 sites and 1–3 supply-tree levels."""
    n_items = draw(st.integers(4, 12))
    # Match the catalogue's zero-padded naming (paper_config builds the
    # item universe; the topology's must be the identical list).
    items = [f"item{i:0{len(str(n_items - 1))}d}" for i in range(n_items)]
    kind = draw(st.sampled_from(["flat", "regional", "deep"]))
    if kind == "flat":
        spec = f"flat:{draw(st.integers(1, 6))}"
    elif kind == "regional":
        regions = draw(st.integers(1, 3))
        leaves = draw(st.integers(1, 2))
        spread = draw(st.integers(1, 2))
        spec = f"regional:{regions}x{leaves}:s{spread}"
    else:
        regions = draw(st.integers(1, 2))
        subs = draw(st.integers(1, 2))
        leaves = draw(st.integers(1, 2))
        spread = draw(st.integers(1, 2))
        spec = f"deep:{regions}x{subs}x{leaves}:s{spread}"
    return Topology.parse(spec, items), spec


def _drive(topology, seed: int, n_updates: int):
    """Build, attach the routing observer, replay a Zipf stream."""
    cfg = paper_config(
        n_items=len(topology.items),
        seed=seed,
        topology=topology,
        sanitize=True,
        propagate=True,
        request_timeout=8.0,
    )
    system = DistributedSystem.build(cfg)

    breaches = []

    def check_interest(kind, now, fields):
        if not kind.startswith("msg."):
            return
        msg = fields["msg"]
        item = (
            msg.payload.get("item")
            if isinstance(msg.payload, dict) and msg.kind in ITEM_BEARING
            else None
        )
        if item is None:
            return
        for endpoint_name in (msg.src, msg.dst):
            if item not in topology.interest_of(endpoint_name):
                breaches.append(
                    f"{kind} {msg.kind} {msg.src}->{msg.dst}: {item!r}"
                    f" outside {endpoint_name!r} interest set"
                )

    system.obs.subscribe_fields(check_interest)

    rngs = RngRegistry(seed + 1)
    workload = TopologyWorkload(
        topology,
        initial_stock=100.0,
        rng=rngs.stream("workload.prop"),
        skew=1.3,
    )
    for event in workload.events(n_updates):
        system.update(event.site, event.item, event.delta)
        system.run()
    for name in system.config.site_names:
        system.sites[name].accelerator.sync_all()
    system.run()
    return system, breaches


class TestInterestSetRouting:
    @SETTINGS
    @given(topo_spec=topologies(), seed=st.integers(0, 2**20))
    def test_no_item_escapes_its_interest_set(self, topo_spec, seed):
        topology, spec = topo_spec
        system, breaches = _drive(topology, seed, n_updates=25)
        assert breaches == [], f"{spec}: " + "; ".join(breaches[:5])


class TestMultiLevelConservation:
    @SETTINGS
    @given(topo_spec=topologies(), seed=st.integers(0, 2**20))
    def test_sanitizer_clean_and_av_bounded(self, topo_spec, seed):
        topology, spec = topo_spec
        system, _ = _drive(topology, seed, n_updates=25)
        report = system.sanitizer.finish()
        assert not report.violations, (
            f"{spec}: " + "; ".join(str(v) for v in report.violations[:3])
        )
        # End-state conservation across every level of the tree: summed
        # AV (leaves + aggregator pools + the maker) never exceeds the
        # ledger headroom — pool refills move volume, never mint it.
        ledger = system.collector.ledger
        for item in ledger.items():
            assert system.av_total(item) <= ledger.true_value(item), (
                f"{spec}: AV for {item!r} exceeds ground truth"
            )
        system.check_invariants()


# -------------------------------------------------------------------- #
# the chunked draw against the scalar reference
# -------------------------------------------------------------------- #

#: (initial stock, increase fraction, decrease fraction): the paper's
#: caps; a cap of 1 on either side or both (no integer draw); wide caps;
#: caps near 2**32 that numpy's bounded draw often rejects; a cap past
#: 2**32, which numpy draws from whole words and so takes the reference
DELTA_SHAPES = [
    (100.0, 0.20, 0.10),
    (100.0, 0.015, 0.10),
    (100.0, 0.20, 0.01),
    (10.0, 0.10, 0.10),
    (1000.0, 0.5, 0.3),
    (3e9, 1.0, 0.9),
    (1e10, 1.0, 0.5),
]
CHUNK_SIZES = [0, 1, DRAW_CHUNK - 1, DRAW_CHUNK, DRAW_CHUNK + 1,
               3 * DRAW_CHUNK + 1]


@st.composite
def leaf_mixes(draw, topology):
    """``None`` (uniform) or weights with zero-weight and omitted leaves."""
    leaves = [
        s for s in topology.names
        if topology.role_of(s) == "retailer" and topology.interest_of(s)
    ]
    if draw(st.booleans()):
        return None
    weights = {
        leaf: draw(st.sampled_from([None, 0.0, 1.0, 2.5])) for leaf in leaves
    }
    mix = {leaf: w for leaf, w in weights.items() if w is not None}
    if not any(mix.values()):
        mix[draw(st.sampled_from(leaves))] = 1.0
    return mix


def _event_rows(events):
    return [(e.site, e.item, repr(e.delta)) for e in events]


def _assert_same_stream(make, n):
    """``events`` equals ``events_scalar`` and leaves the generator in
    the same place (a buffered half-word included)."""
    chunked, scalar = make(), make()
    assert _event_rows(chunked.events(n)) == _event_rows(
        scalar.events_scalar(n)
    )
    a, b = chunked.rng, scalar.rng
    assert a.random() == b.random()
    assert a.integers(1, 11) == b.integers(1, 11)
    assert a.integers(1, 21) == b.integers(1, 21)


class TestChunkedDraw:
    """``TopologyWorkload.events`` draws its stream from blocks of raw
    PCG64 words; ``events_scalar`` is the reference it must equal."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(
        topo_spec=topologies(),
        seed=st.integers(0, 2**32 - 1),
        n=st.sampled_from(CHUNK_SIZES),
        maker_share=st.floats(0.01, 0.99),
        shape=st.sampled_from(DELTA_SHAPES),
        buffered=st.booleans(),
        data=st.data(),
    )
    def test_events_are_events_scalar(
        self, topo_spec, seed, n, maker_share, shape, buffered, data
    ):
        topology, _spec = topo_spec
        mix = data.draw(leaf_mixes(topology))
        stock, increase, decrease = shape

        def make():
            rng = np.random.default_rng(seed)
            if buffered:  # start with a half-word carried over
                rng.integers(1, 11)
            return TopologyWorkload(
                topology, stock, rng, maker_share=maker_share, mix=mix,
                increase_fraction=increase, decrease_fraction=decrease,
            )

        _assert_same_stream(make, n)

    def test_a_double_on_a_cdf_entry_picks_as_bisect_right(self):
        """Doubles exactly on the leaf and rank CDF entries (any entry
        >= 0.5 is k * 2**-53, the double of the word k << 11) pick the
        leaf and item the scalar loop picks."""
        topology = Topology.parse("regional:2x3:s2", [f"i{k}" for k in range(30)])

        def make():  # caps of 1: a step draws doubles only
            return TopologyWorkload(
                topology, 10.0, np.random.default_rng(0),
                increase_fraction=0.1, decrease_fraction=0.1,
            )

        chunked, scalar = make(), make()
        leaf = chunked.leaves[0]
        slice_cdf = chunked._slice_sampler(len(chunked._slices[leaf]))._cdf
        on_entries = [u for u in (*chunked._catalog_sampler._cdf, *slice_cdf,
                                  *chunked._leaf_cdf) if 0.5 <= u < 1.0]
        doubles = []
        for u in on_entries:
            doubles += [0.0, u]  # a maker step ranking at u
            doubles += [0.75, 0.0, u]  # a step of the first leaf at u
            doubles += [0.75, u, 0.5]  # a leaf picked at u
        words = np.asarray([int(u * 2**53) << 11 for u in doubles],
                           dtype=np.uint64)
        k = 3 * len(on_entries)
        columns, consumed, _carried = chunked._draw_chunk(words, k, None, {})
        assert consumed == len(words)

        fake = SimpleNamespace(random=iter(doubles).__next__,
                               integers=lambda low, high: low)
        scalar.rng = scalar._catalog_sampler.rng = fake
        assert _event_rows(events_of(*columns)) == _event_rows(
            scalar.events_scalar(k)
        )

    def test_a_chunk_numpy_redraws_in_takes_the_reference(self, monkeypatch):
        """Both caps at 997 (2**32 mod 997 = 966, the widest rejection
        zone up to a chunk): seed 2787 meets a half-word numpy's bounded
        draw rejects and draws again inside its first chunk."""
        bounded = generators._bounded
        rejected = []

        def spy(halves, bounds):
            drawn = bounded(halves, bounds)
            rejected.append(drawn is None)
            return drawn

        monkeypatch.setattr(generators, "_bounded", spy)
        topology = Topology.parse("regional:2x3:s2", [f"i{k}" for k in range(30)])
        _assert_same_stream(
            lambda: TopologyWorkload(
                topology, 997.0, np.random.default_rng(2787),
                increase_fraction=1.0, decrease_fraction=1.0,
            ),
            DRAW_CHUNK,
        )
        assert rejected == [True]

    def test_a_rejecting_chunk_is_redrawn_by_the_reference(self, monkeypatch):
        bounded = generators._bounded
        calls = []

        def reject_second(halves, bounds):
            calls.append(len(halves))
            return None if len(calls) == 2 else bounded(halves, bounds)

        monkeypatch.setattr(generators, "_bounded", reject_second)
        topology = Topology.parse("regional:2x3:s2", [f"i{k}" for k in range(30)])
        _assert_same_stream(
            lambda: TopologyWorkload(topology, 100.0, np.random.default_rng(4)),
            3 * DRAW_CHUNK + 1,
        )
        assert len(calls) == 4  # one bounded draw a chunk; the second redrawn

    def test_other_bit_generators_take_the_reference(self, monkeypatch):
        def unreachable(*args):
            raise AssertionError("chunked draw on a non-PCG64 stream")

        monkeypatch.setattr(TopologyWorkload, "_draw_chunk", unreachable)
        topology = Topology.parse("regional:2x3:s2", [f"i{k}" for k in range(30)])
        _assert_same_stream(
            lambda: TopologyWorkload(
                topology, 100.0, np.random.Generator(np.random.MT19937(1))
            ),
            DRAW_CHUNK + 1,
        )



# -------------------------------------------------------------------- #
# set-up against the per-item reference
# -------------------------------------------------------------------- #


def reference_interest(specs, slices, items):
    """Per-site interest, O(items × sites): the maker serves every item,
    a leaf its slice and an aggregator its descendant leaves' slices,
    each filtered from the catalogue so it comes out in catalogue
    order."""
    if items is None:
        items = list(dict.fromkeys(i for s in specs if s.name in slices
                                   for i in slices[s.name]))
    children = {s.name: [c.name for c in specs if c.parent == s.name]
                for s in specs}
    role = {s.name: s.role for s in specs}

    def leaves_under(name):
        if role[name] == "retailer":
            return [name]
        return [leaf for c in children[name] for leaf in leaves_under(c)]

    interest = {}
    for s in specs:
        if s.role == "maker":
            interest[s.name] = tuple(items)
            continue
        union = set()
        for leaf in leaves_under(s.name):
            union.update(slices[leaf])
        interest[s.name] = tuple(i for i in items if i in union)
    return interest


def reference_sites_for(specs, interest):
    """item -> interested sites in topology order, by scanning every
    site once per item."""
    items = interest[specs[0].name]
    return {
        item: tuple(s.name for s in specs if item in set(interest[s.name]))
        for item in items
    }


def reference_bootstrap(sites, catalog, ledger, sites_for, av_fraction,
                        av_weights):
    """The per-item bootstrap: one ``insert``, ``define`` and ``seed``
    per (site, item), a deal built once per (stock, interest set)."""
    weights = av_weights if av_weights is not None else {n: 1.0 for n in sites}
    deals = {}
    for product in catalog:
        ledger.set_initial(product.item, product.initial_stock)
        interested = sites_for[product.item]
        for name in interested:
            sites[name].store.insert(product.item, product.initial_stock)
        if not product.regular:
            continue
        pool = float(math.floor(product.initial_stock * av_fraction))
        key = (product.initial_stock, interested)
        if key not in deals:
            shares = split_volume(pool, weights, interested)
            deals[key] = (
                shares, {peer: Belief(v, 0.0) for peer, v in shares.items()}
            )
        shares, deal = deals[key]
        for name in interested:
            site = sites[name]
            site.av_table.define(product.item, shares[name])
            site.accelerator.beliefs.seed(product.item, deal)


def _raw_inputs(topology):
    """The (specs, slices) a topology was built from, up to slice order."""
    data = topology.to_dict()
    specs = [SiteSpec(*row) for row in data["sites"]]
    return specs, data["slices"]


def _sharing(sites_deals):
    """Which (site, item) pairs read the same deal object, as a
    partition labelled by first appearance."""
    first = {}
    return [
        first.setdefault(id(deal), (name, item))
        for name, deals in sites_deals for item, deal in deals.items()
    ]


class TestSetUpIsTheReference:
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(topo_spec=topologies(), pass_items=st.booleans(), data=st.data())
    def test_interest_and_sites_for(self, topo_spec, pass_items, data):
        topology, spec = topo_spec
        specs, slices = _raw_inputs(topology)
        # Hand the slices over in any order: interest is catalogue order.
        shuffled = {
            leaf: data.draw(st.permutations(items))
            for leaf, items in slices.items()
        }
        items = list(topology.items) if pass_items else None
        rebuilt = Topology(specs, shuffled, items=items, spec=spec)
        interest = reference_interest(specs, shuffled, items)
        sites_for = reference_sites_for(specs, interest)

        assert list(rebuilt.items) == list(sites_for)
        for s in specs:
            assert rebuilt.interest_of(s.name) == interest[s.name]
        for item in rebuilt.items:
            assert rebuilt.sites_for(item) == sites_for[item]
        for s in specs:
            view = rebuilt.view(s.name)
            for item in rebuilt.items:
                assert view.serves(item) == (item in interest[s.name])
            assert view.serves("no-such-item") is False

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(
        topo_spec=topologies(),
        weighted=st.booleans(),
        regular_fraction=st.sampled_from([1.0, 0.75, 0.3, 0.0]),
        initial_stock=st.sampled_from([100.0, 7.0, 13.0, 0.0]),
        av_fraction=st.sampled_from([1.0, 0.6]),
        data=st.data(),
    )
    def test_bootstrap_tables(self, topo_spec, weighted, regular_fraction,
                              initial_stock, av_fraction, data):
        topology, _spec = topo_spec
        av_weights = None
        if weighted:
            av_weights = {
                name: data.draw(st.sampled_from([0.5, 1.0, 2.0, 3.0]))
                for name in topology.names
            }
        system = DistributedSystem.build(paper_config(
            n_items=len(topology.items), topology=topology,
            av_weights=av_weights, regular_fraction=regular_fraction,
            initial_stock=initial_stock, av_fraction=av_fraction,
        ))

        specs, slices = _raw_inputs(topology)
        sites_for = reference_sites_for(
            specs, reference_interest(specs, slices, list(topology.items))
        )
        ref = {
            name: SimpleNamespace(
                store=Store(name), av_table=AVTable(name),
                accelerator=SimpleNamespace(beliefs=BeliefTable(name)),
            )
            for name in topology.names
        }
        ledger = GlobalLedger()
        reference_bootstrap(ref, system.catalog, ledger, sites_for,
                            av_fraction, av_weights)

        for name in topology.names:
            got, want = system.sites[name], ref[name]
            assert list(got.store.items()) == list(want.store.items())
            assert list(got.av_table.items()) == list(want.av_table.items())
            got_b, want_b = got.accelerator.beliefs, want.accelerator.beliefs
            assert list(got_b._deals.items()) == list(want_b._deals.items())
            assert got_b.observations == want_b.observations
        assert _sharing(
            (n, system.sites[n].accelerator.beliefs._deals)
            for n in topology.names
        ) == _sharing(
            (n, ref[n].accelerator.beliefs._deals) for n in topology.names
        )
        got_ledger = system.collector.ledger
        assert [(i, got_ledger.true_value(i)) for i in got_ledger.items()] \
            == [(i, ledger.true_value(i)) for i in ledger.items()]
