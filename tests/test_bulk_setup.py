"""Set-up that scales with slices.

Building a system installs each site's slice with one bulk call per
table (``Store.insert_many``, ``AVTable.define_many``,
``BeliefTable.seed_many``), with no per-item call. The bulk
paths keep every check of the per-item ones: duplicate ids, negative
values and volumes, and one monitor ``define`` event per item.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.analysis.end_state import end_state
from repro.cluster import (
    DistributedSystem,
    Product,
    ProductCatalog,
    ProductClass,
    bootstrap,
    make_catalog,
    paper_config,
)
from repro.cluster.catalog import item_ids
from repro.cluster.topology import SiteSpec, Topology
from repro.core.av_table import AVTable
from repro.core.beliefs import Belief, BeliefTable
from repro.core.errors import InvalidVolume
from repro.db import DuplicateItem, NegativeValue, Store
from repro.metrics.collector import GlobalLedger
from repro.obs.hub import Observability


class _Events:
    """A subscriber on its own hub that keeps every event."""

    def __init__(self):
        self.obs = Observability(enabled=False)
        self.obs.subscribe_fields(self._on_emit)
        self.events = []

    def _on_emit(self, kind, now, fields):
        self.events.append((fields["site"], kind, fields["item"], fields["amount"]))


class TestCountGate:
    def test_scale_build_makes_no_per_item_calls(self, monkeypatch):
        """``regional:7x6:s2`` over 10**4 items: 41 666 (site, item)
        pairs, each of which used to cost an ``insert``, a ``define``
        and a ``seed``."""
        calls = {}

        def count(cls, name):
            method = getattr(cls, name)

            def counted(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return method(*args, **kwargs)

            monkeypatch.setattr(cls, name, counted)

        for cls, name in [
            (Store, "insert"), (Store, "insert_many"),
            (AVTable, "define"), (AVTable, "define_many"),
            (BeliefTable, "seed"), (BeliefTable, "seed_many"),
        ]:
            count(cls, name)
        topology = Topology.parse("regional:7x6:s2", item_ids(10_000))
        system = DistributedSystem.build(
            paper_config(n_items=10_000, topology=topology)
        )
        n_sites = topology.n_sites
        assert calls == {
            "insert_many": n_sites, "define_many": n_sites,
            "seed_many": n_sites,
        }
        pairs = sum(len(topology.interest_of(n)) for n in topology.names)
        assert pairs == 41_666
        assert sum(len(s.store) for s in system.sites.values()) == pairs


class TestStoreBulk:
    def test_insert_many_keeps_order_and_reports_records(self):
        s = Store("s")
        s.insert_many({"B": 2.0, "A": 1.0})
        assert list(s.items()) == [("B", 2.0), ("A", 1.0)]
        assert s.value("A") == 1.0

    def test_duplicate_is_all_or_nothing(self):
        s = Store("s")
        s.insert_many({"A": 1.0})
        with pytest.raises(DuplicateItem, match="'A'"):
            s.insert_many({"C": 3.0, "A": 2.0})
        assert list(s.items()) == [("A", 1.0)]

    def test_negative_is_all_or_nothing(self):
        s = Store("s")
        with pytest.raises(NegativeValue):
            s.insert_many({"A": 1.0, "B": -1.0})
        assert len(s) == 0
        loose = Store("s", allow_negative=True)
        loose.insert_many({"A": -1.0})
        assert loose.value("A") == -1.0


class TestAVTableBulk:
    def test_define_many_checks(self):
        t = AVTable("s")
        t.define_many({"A": 1.0})
        with pytest.raises(InvalidVolume, match="already defined"):
            t.define_many({"B": 2.0, "A": 3.0})
        with pytest.raises(InvalidVolume, match="negative initial AV -2"):
            t.define_many({"B": 2.0, "C": -2})
        assert t.as_dict() == {"A": 1.0}

    def test_define_many_stores_floats_in_order(self):
        t = AVTable("s")
        t.define_many({"B": 2, "A": 1})
        assert [(k, type(v)) for k, v in t.items()] == [
            ("B", float), ("A", float)
        ]

    def test_one_monitor_event_per_item(self):
        monitor = _Events()
        t = AVTable("s", obs=monitor.obs)
        t.define_many({"B": 2, "A": 1.5})
        assert monitor.events == [
            ("s", "av.define", "B", 2.0), ("s", "av.define", "A", 1.5)
        ]


class TestBeliefTableBulk:
    def test_seed_many_shares_deals_and_counts_peers(self):
        deal = {"s0": Belief(5.0, 0.0), "s1": Belief(5.0, 0.0)}
        own = BeliefTable("s0")
        own.seed_many({"A": deal, "B": deal})
        assert own._deals["A"] is deal and own._deals["B"] is deal
        assert own.observations == 2  # one peer per item
        other = BeliefTable("s9")
        other.seed_many({"A": deal})
        assert other.observations == 2


class TestCatalogBulk:
    def test_add_many_rejects_repeats_within_and_across(self):
        cat = ProductCatalog()
        x = Product("x", ProductClass.REGULAR, 1.0)
        y = Product("y", ProductClass.REGULAR, 1.0)
        with pytest.raises(ValueError, match="duplicate product 'x'"):
            cat.add_many([x, y, x])
        assert len(cat) == 0
        cat.add(x)
        with pytest.raises(ValueError, match="duplicate product 'x'"):
            cat.add_many([y, x])
        with pytest.raises(ValueError, match="negative initial stock for 'z'"):
            cat.add_many([y, Product("z", ProductClass.REGULAR, -1.0)])
        assert cat.items() == ["x"]

    def test_make_catalog_classes(self):
        cat = make_catalog(4, initial_stock=3.0, regular_fraction=0.5)
        assert cat.regular_items() == ["item0", "item1"]
        assert [p.initial_stock for p in cat] == [3.0] * 4


class TestBootstrapMonitor:
    def test_bootstrap_sends_one_define_per_site_item(self):
        """With a subscriber attached before bootstrap, every (site,
        regular item) pair still reports its ``av.define``, slice by
        slice."""
        topology = Topology.parse("regional:2x2:s2", item_ids(6))
        catalog = make_catalog(6, initial_stock=10.0, regular_fraction=0.5)
        monitor = _Events()
        sites = {}
        for name in topology.names:
            table = AVTable(name, obs=monitor.obs)
            sites[name] = SimpleNamespace(
                store=Store(name), av_table=table,
                accelerator=SimpleNamespace(beliefs=BeliefTable(name)),
            )
        bootstrap(sites, catalog, GlobalLedger(), topology=topology)
        regular = set(catalog.regular_items())
        assert [(site, item) for site, _op, item, _v in monitor.events] == [
            (name, item)
            for name in topology.names
            for item in topology.interest_of(name) if item in regular
        ]
        assert {op for _s, op, _i, _v in monitor.events} == {"av.define"}


class TestTopologyItems:
    def test_duplicate_items_rejected(self):
        specs = [
            SiteSpec("site0", "maker"),
            SiteSpec("site1", "retailer", parent="site0"),
        ]
        with pytest.raises(ValueError, match=r"duplicate items \['a'\]"):
            Topology(specs, {"site1": ["a", "b", "a"]}, items=["a", "b", "a"])

    def test_interest_is_catalogue_order_whatever_the_slice_order(self):
        specs = [
            SiteSpec("site0", "maker"),
            SiteSpec("agg0", "aggregator", parent="site0"),
            SiteSpec("site1", "retailer", parent="agg0"),
            SiteSpec("site2", "retailer", parent="agg0"),
        ]
        topology = Topology(
            specs, {"site1": ["c", "a", "a"], "site2": ["b", "c"]},
            items=["a", "b", "c"],
        )
        assert topology.interest_of("site1") == ("a", "c")
        assert topology.interest_of("agg0") == ("a", "b", "c")
        assert topology.sites_for("a") == ("site0", "agg0", "site1")
        assert topology.view("site2").serves("b")
        assert not topology.view("site2").serves("a")
        assert not topology.view("site2").serves("zzz")


class TestEndStateStrays:
    def test_av_outside_the_interest_set_still_counts(self):
        """An AV entry at a site outside the item's interest set is an
        interest-scope finding, and its volume still counts towards the
        item's AV total."""
        topology = Topology.parse("regional:2x2:s1", item_ids(4))
        system = DistributedSystem.build(
            paper_config(n_items=4, topology=topology, initial_stock=10.0)
        )
        outsider = next(
            n for n in topology.names if n not in topology.sites_for("item0")
        )
        system.site(outsider).av_table.debug_set("item0", 50.0)
        rules = {(f.rule, f.item, f.site) for f in end_state(system, False)}
        assert ("oracle.conservation", "item0", None) in rules
        assert ("oracle.interest-scope", "item0", outsider) in rules
