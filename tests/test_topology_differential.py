"""The paper layout is a Topology: pinned digests of the one layout path.

A :class:`~repro.cluster.config.SystemConfig` without a topology gets
the paper's flat layout ``Topology.paper(n_retailers, items)``
(``flat:N``); there is no topology-free build left to compare against.
These digests were computed on the last tree that still had one, where
the topology path and the topology-free path agreed byte for byte. They
pin the update tags, replica values, correspondence counters and
telemetry, repr-exact floats included, so any drift of the one path (an
extra message, a reordered peer list, a perturbed RNG draw) flips them.
"""

from __future__ import annotations

import pytest

from repro.cluster import (
    DistributedSystem,
    InvariantViolation,
    Topology,
    item_ids,
    paper_config,
)
from repro.perf.tasks import _update_tags, digest

#: digests of the topology-free path these runs replaced
FIG6_DIGEST = "7f2d3968ada3d6429eb49d2611f49c94f0a0c0d3a5c4a196164ffcd8e2f2c6cc"
TABLE1_DIGEST = "3f772cc73e043f407455a3833ed4ebba455b158ec8abc35a0c43b9532d1f95ae"
FLAT4_DIGEST = "3737c2b9092e421aaed72bb1db39cef210bacdbf62034f4fcdcdc8c0e43ff634"
MIXED_DIGEST = "09b5d047e34e748b2ab76ca5f047684e0d8ea3a3d640cfd0ec8d8ff9fcc4f00e"


def _fig6_fingerprint() -> str:
    from repro.experiments.fig6 import run_fig6

    result = run_fig6(n_updates=160, seed=11, n_items=8)
    return digest(
        {
            "update_tags": _update_tags(result.proposal.results),
            "replicas": result.replicas,
            "counters": {
                "proposal": result.proposal.final().total_correspondences,
                "conventional": (
                    result.conventional.final().total_correspondences
                ),
            },
            "telemetry": result.telemetry,
        }
    )


def _table1_fingerprint() -> str:
    from repro.experiments.table1 import run_table1

    result = run_table1(n_updates=160, seed=11, n_items=8)
    final = result.proposal.final()
    return digest(
        {
            "update_tags": _update_tags(result.proposal.results),
            "replicas": result.replicas,
            "per_site": {s: final.per_site[s] for s in result.site_names},
            "telemetry": result.telemetry,
        }
    )


def _drive(topology=None) -> str:
    """A mixed propagate + timeout sequence on the 3-site paper layout."""
    cfg = paper_config(
        n_items=6,
        seed=7,
        propagate=True,
        request_timeout=8.0,
        topology=topology,
    )
    s = DistributedSystem.build(cfg)
    ids = [p.item for p in s.catalog]
    procs = []
    for i in range(40):
        site = s.config.site_names[i % 3]
        delta = 12.0 if site == s.config.maker else -7.0
        procs.append(s.update(site, ids[i % 6], delta))
    s.run()
    for name in s.config.site_names:
        s.sites[name].accelerator.sync_all()
    s.run()
    s.check_invariants(quiescent=True)
    return digest(
        {
            "results": [
                f"{p.value.outcome.value}:{p.value.av_requests}"
                f":{p.value.finished_at!r}"
                for p in procs
            ],
            "replicas": {
                n: site.store.as_dict() for n, site in s.sites.items()
            },
            "sent": s.stats.sent_total,
            "correspondences": s.stats.correspondences_total,
        }
    )


class TestPaperTopologyIsSeedPath:
    def test_fig6_digest_byte_identical(self):
        assert _fig6_fingerprint() == FIG6_DIGEST

    def test_table1_digest_byte_identical(self):
        assert _table1_fingerprint() == TABLE1_DIGEST

    def test_wider_flat_layout_matches_n_retailers(self):
        # n_retailers=4 is the flat:4 layout, byte for byte.
        from repro.experiments.fig6 import run_fig6

        assert paper_config(n_items=6, n_retailers=4).topology.spec == "flat:4"
        a = run_fig6(n_updates=100, seed=3, n_items=6, n_retailers=4)
        assert digest(
            {
                "update_tags": _update_tags(a.proposal.results),
                "replicas": a.replicas,
                "correspondences": a.proposal.final().total_correspondences,
            }
        ) == FLAT4_DIGEST


class TestTopologySystemEquivalence:
    """System-level digest on a mixed driving sequence."""

    def test_mixed_sequence_byte_identical(self):
        assert _drive() == MIXED_DIGEST

    def test_explicit_paper_topology_matches_default(self):
        assert _drive(Topology.parse("flat:2", item_ids(6))) == MIXED_DIGEST


class TestDefaultLayout:
    def test_config_without_topology_gets_flat_layout(self):
        cfg = paper_config(n_retailers=3)
        assert cfg.topology.spec == "flat:3"
        assert cfg.site_names == ["site0", "site1", "site2", "site3"]
        assert cfg.maker == "site0"
        assert list(cfg.topology.items) == item_ids(cfg.n_items)

    def test_configs_of_one_shape_share_one_topology(self):
        a = paper_config(n_retailers=3, n_items=12, seed=1)
        b = paper_config(n_retailers=3, n_items=12, seed=2, propagate=True)
        assert a.topology is b.topology
        assert paper_config(n_retailers=2, n_items=12).topology is not (
            a.topology
        )

    def test_explicit_topology_overrides_n_retailers(self):
        topo = Topology.parse("flat:5", item_ids(4))
        cfg = paper_config(n_items=4, topology=topo)
        assert cfg.topology is topo and cfg.n_sites == 6


class TestQuiescentCheck:
    def test_corrupted_paper_replica_fails_quiescent_check(self):
        s = DistributedSystem.build(
            paper_config(n_items=4, seed=5, propagate=True)
        )
        s.update("site0", "item0", 5.0)
        s.update("site1", "item1", -3.0)
        s.update("site2", "item2", -3.0)
        s.run()
        s.check_invariants(quiescent=True)
        # One replica drifts from the ledger while its peers agree.
        s.sites["site2"].store.apply_delta("item1", -1.0)
        with pytest.raises(InvariantViolation, match="site2 .* at quiescence"):
            s.check_invariants(quiescent=True)
