"""Unit tests for catalogue, config, bootstrap and system assembly."""

import pytest

from repro.cluster import (
    DistributedSystem,
    InvariantViolation,
    Product,
    ProductCatalog,
    ProductClass,
    SiteRole,
    SystemConfig,
    build_paper_system,
    make_catalog,
    paper_config,
    split_volume,
)
from repro.cluster.topology import SiteSpec, Topology
from repro.core import UpdateKind
from repro.experiments import make_paper_trace
from repro.workload import run_closed


class TestCatalog:
    def test_make_catalog_shape(self):
        cat = make_catalog(10, initial_stock=50.0, regular_fraction=0.7)
        assert len(cat) == 10
        assert len(cat.regular_items()) == 7
        assert len(cat.non_regular_items()) == 3
        assert cat.get("item0").regular
        assert not cat.get("item9").regular
        assert all(p.initial_stock == 50.0 for p in cat)

    def test_item_name_width_scales(self):
        cat = make_catalog(150)
        assert "item000" in cat and "item149" in cat

    def test_validation(self):
        with pytest.raises(ValueError):
            make_catalog(0)
        with pytest.raises(ValueError):
            make_catalog(5, regular_fraction=1.5)

    def test_duplicate_product_rejected(self):
        cat = ProductCatalog()
        cat.add(Product("x", ProductClass.REGULAR, 1.0))
        with pytest.raises(ValueError):
            cat.add(Product("x", ProductClass.REGULAR, 1.0))

    def test_negative_stock_rejected(self):
        with pytest.raises(ValueError):
            ProductCatalog().add(Product("x", ProductClass.REGULAR, -1.0))

    def test_fractional_stock_rejected(self):
        """Stock is a whole number of units; a fractional initial stock
        fails the whole batch."""
        cat = ProductCatalog()
        with pytest.raises(ValueError, match="whole number"):
            cat.add_many([
                Product("x", ProductClass.REGULAR, 10.0),
                Product("y", ProductClass.REGULAR, 12.5),
            ])
        assert len(cat) == 0
        with pytest.raises(ValueError, match="whole number"):
            build_paper_system(n_items=2, initial_stock=0.5)


class TestConfig:
    def test_site_names_and_roles(self):
        config = SystemConfig(n_retailers=3)
        assert config.site_names == ["site0", "site1", "site2", "site3"]
        assert config.maker == "site0"
        assert config.retailers == ["site1", "site2", "site3"]
        assert config.n_sites == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            SystemConfig(n_retailers=0)
        with pytest.raises(ValueError):
            SystemConfig(av_fraction=1.5)
        with pytest.raises(ValueError):
            SystemConfig(latency_mean=-1)

    @pytest.mark.parametrize("bad", [
        {"latency_mean": float("nan")},
        {"request_timeout": float("nan")},
        {"request_timeout": 0.0},
        {"request_timeout": -1.0},
    ], ids=["latency-nan", "timeout-nan", "timeout-zero", "timeout-negative"])
    def test_invalid_latency_or_timeout_rejected_at_construction(self, bad):
        """Not at the first remote request, as a kernel delay error."""
        with pytest.raises(ValueError):
            paper_config(**bad)

    def test_paper_config_defaults(self):
        config = paper_config()
        assert config.n_retailers == 2
        assert config.regular_fraction == 1.0


class TestSplitVolume:
    def test_equal_split_integral(self):
        shares = split_volume(90, {"a": 1, "b": 1, "c": 1}, ["a", "b", "c"])
        assert shares == {"a": 30.0, "b": 30.0, "c": 30.0}

    def test_remainder_goes_to_earliest(self):
        shares = split_volume(10, {"a": 1, "b": 1, "c": 1}, ["a", "b", "c"])
        assert shares == {"a": 4.0, "b": 3.0, "c": 3.0}
        assert sum(shares.values()) == 10

    def test_weighted(self):
        shares = split_volume(100, {"a": 3, "b": 1}, ["a", "b"])
        assert shares == {"a": 75.0, "b": 25.0}

    def test_validation(self):
        with pytest.raises(ValueError):
            split_volume(-1, {"a": 1}, ["a"])
        with pytest.raises(ValueError):
            split_volume(10, {"a": 1}, ["a", "b"])
        with pytest.raises(ValueError):
            split_volume(10, {"a": 0}, ["a"])


class TestSystemAssembly:
    def test_build_paper_system_shape(self):
        system = build_paper_system(n_items=4, initial_stock=60.0)
        assert len(system.sites) == 3
        assert system.maker.is_maker
        assert [r.role for r in system.retailers] == [SiteRole.RETAILER] * 2
        for site in system.sites.values():
            assert len(site.store) == 4
            assert site.value("item0") == 60.0
            assert site.av_table.get("item0") == 20.0

    def test_av_weights_respected(self):
        system = DistributedSystem.build(
            SystemConfig(
                n_items=1,
                initial_stock=100.0,
                av_weights={"site0": 2, "site1": 1, "site2": 1},
            )
        )
        assert system.site("site0").av_table.get("item0") == 50.0
        assert system.site("site1").av_table.get("item0") == 25.0

    def test_av_fraction(self):
        system = build_paper_system(n_items=1, initial_stock=90.0, av_fraction=0.5)
        assert system.av_total("item0") == 45.0

    def test_bootstrap_seeds_beliefs(self):
        system = build_paper_system(n_items=1, initial_stock=90.0)
        beliefs = system.site("site1").accelerator.beliefs
        assert beliefs.believed_volume("site0", "item0") == 30.0
        assert beliefs.believed_volume("site2", "item0") == 30.0
        assert beliefs.believed_volume("site1", "item0") is None  # not self

    def test_ledger_initialised(self):
        system = build_paper_system(n_items=2, initial_stock=10.0)
        assert system.collector.ledger.true_value("item1") == 10.0

    def test_non_regular_items_have_no_av(self):
        system = build_paper_system(
            n_items=2, initial_stock=10.0, regular_fraction=0.5
        )
        site = system.site("site1")
        assert site.av_table.defined("item0")
        assert not site.av_table.defined("item1")

    def test_invariant_violation_detected(self):
        system = build_paper_system(n_items=1, initial_stock=90.0)
        # Corrupt: mint AV out of thin air.
        system.site("site1").av_table.add("item0", 1000.0)
        with pytest.raises(InvariantViolation, match="exceeds true value"):
            system.check_invariants()

    def test_negative_av_detected(self):
        system = build_paper_system(n_items=1, initial_stock=90.0)
        system.site("site1").av_table.debug_set("item0", -1.0)
        with pytest.raises(InvariantViolation, match="negative AV"):
            system.check_invariants()

    def test_non_regular_divergence_detected(self):
        system = build_paper_system(
            n_items=1, initial_stock=90.0, regular_fraction=0.0
        )
        system.site("site1").store.set_value("item0", 42.0)
        with pytest.raises(InvariantViolation, match="diverged"):
            system.check_invariants()

    def test_site_value_passthrough(self):
        system = build_paper_system(n_items=1, initial_stock=90.0)
        assert system.site("site2").value("item0") == 90.0

    def test_repr(self):
        system = build_paper_system(n_items=1, initial_stock=90.0)
        assert "sites=3" in repr(system)


class TestTopologyConstruction:
    def test_item_served_by_no_leaf_rejected(self):
        specs = [
            SiteSpec("site0", "maker"),
            SiteSpec("site1", "retailer", parent="site0"),
            SiteSpec("site2", "retailer", parent="site0"),
        ]
        slices = {"site1": ["a", "b"], "site2": ["b"]}
        with pytest.raises(ValueError, match=r"items served by no leaf: \['c', 'd'\]"):
            Topology(specs, slices, items=["a", "b", "c", "d"])

    def test_regional_parse_matches_brute_force_reference(self):
        items = [f"item{i:03d}" for i in range(200)]
        leaves = [f"site{k}" for k in range(1, 7)]
        sites = [["site0", "maker", None, ""]]
        sites += [[f"agg{r}", "aggregator", "site0", f"region{r}"] for r in range(3)]
        sites += [
            [leaf, "retailer", f"agg{k // 2}", f"region{k // 2}"]
            for k, leaf in enumerate(leaves)
        ]
        # Round-robin deal, 2-way spread: item i lives on leaves i, i+1 (mod 6).
        slices = {
            leaf: [
                item for i, item in enumerate(items)
                if k in ((i % 6), ((i + 1) % 6))
            ]
            for k, leaf in enumerate(leaves)
        }
        topology = Topology.parse("regional:3x2:s2", items)
        assert topology.to_dict() == {
            "spec": "regional:3x2:s2",
            "items": items,
            "sites": sites,
            "slices": slices,
        }
        for i, item in enumerate(items):
            holders = {leaves[i % 6], leaves[(i + 1) % 6]}
            parents = {f"agg{leaves.index(leaf) // 2}" for leaf in holders}
            assert set(topology.sites_for(item)) == {"site0"} | holders | parents


class TestWalResidue:
    def test_quiescent_wal_retains_nothing(self):
        """A drive leaves no log records behind, only an LSN count.

        Every site's log is wrapped to count what is written: a fused
        Delay apply writes 3 records, a 2PC participant its BEGIN,
        DELTA and COMMIT/ABORT records one call each. At quiescence no
        transaction is open, so nothing is retained, and ``len`` still
        counts every record written (what ``db.wal_entries_per_update``
        reports).
        """
        system = build_paper_system(n_items=10, seed=3, regular_fraction=0.5)
        trace = make_paper_trace(3000, seed=3, n_items=10)
        written = {"atomic": 0, "single": 0}
        for site in system.sites.values():
            wal = site.accelerator.txns.wal
            for name in ("log_atomic", "log_begin", "log_delta", "log_commit", "log_abort"):
                key = "atomic" if name == "log_atomic" else "single"

                def spy(*args, _log=getattr(wal, name), _key=key):
                    written[_key] += 1
                    return _log(*args)

                setattr(wal, name, spy)

        results = run_closed(system, trace)

        kinds = {r.kind for r in results}
        assert kinds == {UpdateKind.DELAY, UpdateKind.IMMEDIATE}
        assert written["atomic"] > 0 and written["single"] > 0
        wals = [site.accelerator.txns.wal for site in system.sites.values()]
        assert all(list(wal) == [] and not wal.in_flight() for wal in wals)
        assert sum(len(wal) for wal in wals) == 3 * written["atomic"] + written["single"]
