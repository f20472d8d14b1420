"""Cluster assembly: sites, catalogue, configuration, bootstrap, system."""

from repro.cluster.bootstrap import bootstrap, split_volume
from repro.cluster.catalog import (
    Product,
    ProductCatalog,
    ProductClass,
    item_ids,
    make_catalog,
)
from repro.cluster.config import SystemConfig, paper_config
from repro.cluster.rejoin import TAG_REJOIN, install_rejoin_handlers, rejoin
from repro.cluster.site import Site, SiteRole
from repro.cluster.system import DistributedSystem, InvariantViolation
from repro.cluster.topology import InterestView, SiteSpec, Topology


def build_paper_system(**overrides) -> DistributedSystem:
    """One-liner for the paper's §4 deployment (3 sites, 100 items)."""
    return DistributedSystem.build(paper_config(**overrides))


__all__ = [
    "DistributedSystem",
    "InterestView",
    "InvariantViolation",
    "Product",
    "ProductCatalog",
    "ProductClass",
    "Site",
    "SiteRole",
    "SiteSpec",
    "SystemConfig",
    "TAG_REJOIN",
    "Topology",
    "bootstrap",
    "build_paper_system",
    "install_rejoin_handlers",
    "item_ids",
    "make_catalog",
    "paper_config",
    "rejoin",
    "split_volume",
]
