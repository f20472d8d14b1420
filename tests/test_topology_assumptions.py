"""Regressions for latent flat-layout assumptions (scale-out satellite).

The seed code was written for a 3-site, everyone-replicates-everything
cluster, and several call sites silently baked that in: owed-balance
fan-out over ``endpoint.peers()``, 2PC over every live endpoint,
reconciled reads asking the whole cluster, the rebalancer pushing to
anyone, and rejoin folding the base's *entire* catalogue into the
recovering site. Each test here drives the corresponding path on a
partial-replication topology and asserts no item ever crosses an
interest boundary — these fail loudly if any call site regresses to
whole-cluster iteration.
"""

from __future__ import annotations

import pytest

from repro.cluster import DistributedSystem, Topology, paper_config

N_ITEMS = 8


def _items():
    return [f"item{i}" for i in range(N_ITEMS)]


def _build(**overrides):
    topology = Topology.regional(_items(), 2, 2, spread=2)
    defaults = dict(
        n_items=N_ITEMS,
        seed=5,
        topology=topology,
        request_timeout=8.0,
    )
    defaults.update(overrides)
    config = paper_config(**defaults)
    return DistributedSystem.build(config), topology


def _observe_items(system):
    """Record every delivered item-bearing message as (kind, dst, item)."""
    seen = []

    def observer(kind, now, fields):
        msg = fields.get("msg")
        if kind == "msg.recv" and isinstance(msg.payload, dict):
            item = msg.payload.get("item")
            if item is not None:
                seen.append((msg.kind, msg.dst, item))

    system.obs.subscribe_fields(observer)
    return seen


class TestOwedBalanceFanOut:
    def test_record_unsynced_targets_only_interest_peers(self):
        system, topology = _build()
        leaf = "site1"
        item = topology.interest_of(leaf)[0]
        accel = system.sites[leaf].accelerator
        proc = system.update(leaf, item, -3.0)
        system.run()
        assert proc.value.committed
        owed_peers = {
            peer for peer, balances in accel.owed.items() if item in balances
        }
        interest = set(topology.sites_for(item)) - {leaf}
        assert owed_peers == interest

    def test_sync_all_never_crosses_interest_boundaries(self):
        system, topology = _build(propagate=False)
        seen = _observe_items(system)
        for leaf in [n for n in topology.names if topology.role_of(n) == "retailer"]:
            for item in topology.interest_of(leaf)[:2]:
                system.update(leaf, item, -2.0)
        system.run()
        for name in system.config.site_names:
            system.sites[name].accelerator.sync_all()
        system.run()
        for kind, dst, item in seen:
            assert item in topology.interest_of(dst), (
                f"{kind} delivered {item!r} to {dst!r} outside its slice"
            )


class TestImmediateUpdateParticipants:
    def test_2pc_spans_exactly_the_interest_set(self):
        system, topology = _build(regular_fraction=0.0)
        seen = _observe_items(system)
        leaf = "site1"
        item = topology.interest_of(leaf)[0]
        proc = system.update(leaf, item, -4.0)
        system.run()
        assert proc.value.committed
        touched = {dst for kind, dst, it in seen if it == item}
        assert touched <= set(topology.sites_for(item))
        # The commit reached every replica, not a proper subset.
        for site in system.interested_sites(item):
            assert site.store.value(item) == pytest.approx(96.0)


class TestReconciledReads:
    def test_read_asks_only_the_items_replicas(self):
        from repro.core.reads import ReadConsistency

        system, topology = _build(propagate=False)
        leaf = "site1"
        item = topology.interest_of(leaf)[0]
        proc = system.sites[leaf].accelerator.read(
            item, ReadConsistency.RECONCILED
        )
        system.run()
        result = proc.value
        assert result.peers_asked == len(topology.sites_for(item)) - 1


class TestRebalancerScope:
    def test_pushes_stay_inside_interest_sets(self):
        from repro.core.rebalancer import AVRebalancer

        system, topology = _build()
        seen = _observe_items(system)
        maker = topology.maker
        accel = system.sites[maker].accelerator
        # Make one leaf believed-poor so the maker's surplus moves.
        item = topology.interest_of("site1")[0]
        for peer in topology.sites_for(item):
            if peer != maker:
                accel.beliefs.observe(peer, item, 0.0, system.env.now)
        AVRebalancer(accel).rebalance_once()
        system.run()
        pushes = [(dst, it) for kind, dst, it in seen if kind == "av.push"]
        assert pushes, "rebalancer moved nothing despite a believed-poor peer"
        for dst, it in pushes:
            assert it in topology.interest_of(dst)


class TestReclassificationScope:
    def test_class_change_round_trips_inside_interest_set(self):
        system, topology = _build()
        seen = _observe_items(system)
        maker = topology.maker
        accel = system.sites[maker].accelerator
        item = topology.interest_of("site1")[0]
        proc = accel.make_non_regular(item)
        system.run()
        assert proc.value == pytest.approx(100.0)
        for site in system.interested_sites(item):
            assert not site.av_table.defined(item)
        proc = accel.make_regular(item)
        system.run()
        for site in system.interested_sites(item):
            assert site.av_table.defined(item)
        for kind, dst, it in seen:
            assert it in topology.interest_of(dst)
        system.check_invariants()


class TestRejoinCatalogReconcile:
    def test_recovered_leaf_folds_in_only_its_slice(self):
        from repro.net.reliable import ReliabilityParams

        system, topology = _build(
            reliability=ReliabilityParams(), propagate=False
        )
        leaf = "site1"
        interest = set(topology.interest_of(leaf))
        system.run(until=5.0)
        system.sites[leaf].crash()
        system.run(until=20.0)
        system.sites[leaf].restart()
        system.run()
        accel = system.sites[leaf].accelerator
        defined = {item for item, _volume in accel.av_table.items()}
        assert defined == interest, (
            "rejoin folded the base's whole catalogue into the leaf"
        )
        believed = {item for _peer, item, _belief in accel.beliefs.entries()}
        assert believed <= interest
