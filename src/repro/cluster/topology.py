"""Declarative N-site topologies: roles, region tree, interest sets.

Every system runs on a :class:`Topology`; it is the only layout path.
The paper's §4 deployment, one maker plus two fully-replicated
retailers, is the special case :meth:`Topology.paper` (``flat:2``). A
topology describes the shape declaratively:

* **roles** — exactly one ``maker`` (the base / primary-copy site), any
  number of ``aggregator`` sites (regional AV pools, no user traffic)
  and ``retailer`` leaves (the sites users update);
* **region tree** — every non-maker site names a *parent*, forming a
  supply tree rooted at the maker. Leaves ask their parent aggregator
  for AV first (``av.pool.request``); a dry aggregator refills from its
  own parent (``av.pool.refill``) before answering;
* **interest sets** — each leaf serves a *slice* of the catalogue. An
  item's interest set is the set of sites that replicate it: the maker
  (which holds everything), the leaves whose slice contains it, and the
  aggregators on those leaves' supply paths. Sites instantiate stores,
  AV entries, beliefs and sync balances only for their slice, and no
  protocol message may reference an item outside the receiver's
  interest set (property-tested in ``tests/test_properties_topology.py``).

The paper's layout is :meth:`Topology.paper`: a flat tree in which
every item's interest set is every site, i.e. the paper's full
replication. ``SystemConfig`` builds it whenever no topology is given;
``tests/test_topology_differential.py`` pins its Fig. 6, Table 1 and
mixed-sequence digests.

Conservation statement (see ``docs/topology.md``): aggregator pools are
ordinary per-site AV tables, so the sanitizer's invariant

    Σ(leaf tables + aggregator pools + holds + in-transit) ≤ headroom

holds at every level of the tree with no extra bookkeeping — pool grants
and refills move volume between tables exactly like peer grants do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

ROLE_MAKER = "maker"
ROLE_AGGREGATOR = "aggregator"
ROLE_RETAILER = "retailer"
ROLES = (ROLE_MAKER, ROLE_AGGREGATOR, ROLE_RETAILER)


@dataclass(frozen=True)
class SiteSpec:
    """One site's place in the topology.

    ``parent`` is the AV-supply parent (``None`` only for the maker);
    ``region`` is a human-readable label for reports and has no protocol
    meaning.
    """

    name: str
    role: str
    parent: Optional[str] = None
    region: str = ""

    def __post_init__(self) -> None:
        if self.role not in ROLES:
            raise ValueError(f"unknown role {self.role!r} for {self.name!r}")
        if (self.parent is None) != (self.role == ROLE_MAKER):
            raise ValueError(
                f"{self.name!r}: exactly the maker has no parent"
                f" (role={self.role!r}, parent={self.parent!r})"
            )


class InterestView:
    """One site's slice of a :class:`Topology` (consumed by the
    accelerator): which items it serves, whom it asks per item, and its
    place in the supply tree."""

    def __init__(self, topology: "Topology", name: str) -> None:
        self.topology = topology
        self.name = name
        #: AV-supply parent (None for the maker)
        self.parent = topology.parent_of(name)
        #: direct children in the supply tree
        self.children = topology.children_of(name)
        #: parent to ask FIRST in the Delay gather loop — only set when
        #: the parent is an aggregator, so the flat paper layout keeps
        #: the paper's strategy-driven gather
        self.pool_parent = (
            self.parent
            if self.parent is not None
            and topology.role_of(self.parent) == ROLE_AGGREGATOR
            else None
        )
        #: item -> its interest set: the topology's index, shared
        self.sites_of = topology._sites_for
        #: interest set (``Topology.sites_for``) -> its peers here (a
        #: cache :meth:`peers_for` fills; read it, never write it)
        self.peers_by_set: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._neighbors: Optional[Tuple[str, ...]] = None

    def serves(self, item: str) -> bool:
        """Whether this site replicates ``item`` (read from the
        topology's item -> sites index; ``False`` for unknown items)."""
        return self.name in self.topology._sites_for.get(item, ())

    @property
    def neighbors(self) -> Tuple[str, ...]:
        """Sites sharing at least one item with this one (topology
        order) — the only peers sync/rejoin traffic can concern."""
        if self._neighbors is None:
            shared: Dict[str, None] = {}
            for item in self.topology.interest_of(self.name):
                for site in self.topology.sites_for(item):
                    if site != self.name:
                        shared.setdefault(site)
            order = {n: i for i, n in enumerate(self.topology.names)}
            self._neighbors = tuple(sorted(shared, key=order.__getitem__))
        return self._neighbors

    def peers_for(self, item: str) -> Tuple[str, ...]:
        """Interested peers for ``item`` (excluding this site), in
        topology order (maker, aggregators, then leaves). Items with one
        interest set share one tuple: the cache is keyed by the
        topology's interned ``sites_for`` tuple, not by item."""
        sites = self.sites_of[item]
        cached = self.peers_by_set.get(sites)
        if cached is None:
            cached = tuple(s for s in sites if s != self.name)
            self.peers_by_set[sites] = cached
        return cached


class Topology:
    """An immutable N-site deployment shape.

    Parameters
    ----------
    specs:
        Site specs in deployment order — the maker first by convention
        (builders guarantee it; direct construction must too).
    slices:
        ``{leaf name: item ids served}``. Keys must be exactly the
        retailer leaves; the maker always serves every item and each
        aggregator serves the union of its descendant leaves' slices.
    items:
        Catalogue order for the item universe, each item once (a repeat
        raises ``ValueError``); defaults to first-seen order across the
        slices.
    spec:
        The parse string this topology came from, if any (diagnostics,
        fuzz-case serialisation).
    """

    def __init__(
        self,
        specs: Sequence[SiteSpec],
        slices: Mapping[str, Sequence[str]],
        items: Optional[Sequence[str]] = None,
        spec: str = "",
    ) -> None:
        self.spec = spec
        self._specs: Dict[str, SiteSpec] = {}
        for s in specs:
            if s.name in self._specs:
                raise ValueError(f"duplicate site {s.name!r}")
            self._specs[s.name] = s
        makers = [s.name for s in specs if s.role == ROLE_MAKER]
        if len(makers) != 1:
            raise ValueError(f"need exactly one maker, got {makers}")
        self.maker = makers[0]
        if specs[0].name != self.maker:
            raise ValueError("the maker must be the first site spec")

        self._children: Dict[str, List[str]] = {s.name: [] for s in specs}
        for s in specs:
            if s.parent is not None:
                if s.parent not in self._specs:
                    raise ValueError(
                        f"{s.name!r} names unknown parent {s.parent!r}"
                    )
                self._children[s.parent].append(s.name)
        self._depth: Dict[str, int] = {}
        for s in specs:
            self._depth[s.name] = self._walk_depth(s.name, hops=len(specs))

        self.leaves = [s.name for s in specs if s.role == ROLE_RETAILER]
        self.aggregators = [
            s.name for s in specs if s.role == ROLE_AGGREGATOR
        ]
        for name in self.aggregators:
            if not self._descendant_leaves(name):
                raise ValueError(f"aggregator {name!r} has no leaves")

        extra = [n for n in slices if n not in self.leaves]
        if extra:
            raise ValueError(f"slices for non-leaf sites {extra}")
        missing = [n for n in self.leaves if n not in slices]
        if missing:
            raise ValueError(f"no slice for leaves {missing}")

        if items is None:
            seen: Dict[str, None] = {}
            for leaf in self.leaves:
                seen.update(dict.fromkeys(slices[leaf]))
            items = list(seen)
        self.items: Tuple[str, ...] = tuple(items)
        rank = {item: i for i, item in enumerate(self.items)}
        if len(rank) != len(self.items):
            repeated = list(dict.fromkeys(
                i for k, i in enumerate(self.items) if rank[i] != k
            ))
            raise ValueError(f"duplicate items {repeated}")
        for leaf in self.leaves:
            stray = [i for i in slices[leaf] if i not in rank]
            if stray:
                raise ValueError(f"{leaf!r} slice has unknown items {stray}")

        # Per-site interest: maker = everything; leaf = its slice;
        # aggregator = union over descendant leaves; each sorted by
        # catalogue rank.
        by_rank = rank.__getitem__
        self._interest: Dict[str, Tuple[str, ...]] = {
            self.maker: self.items
        }
        for leaf in self.leaves:
            self._interest[leaf] = tuple(sorted(set(slices[leaf]), key=by_rank))
        for name in self.aggregators:
            union = set().union(
                *(self._interest[leaf] for leaf in self._descendant_leaves(name))
            )
            self._interest[name] = tuple(sorted(union, key=by_rank))

        served = set().union(*(self._interest[leaf] for leaf in self.leaves))
        if len(served) != len(self.items):
            orphaned = [i for i in self.items if i not in served]
            raise ValueError(f"items served by no leaf: {orphaned}")

        # item -> interested sites, in topology (maker-first) order: the
        # interest sets inverted, one pass over each. Items with the same
        # interest set share one tuple.
        holders: Dict[str, List[str]] = {item: [] for item in self.items}
        for name in self._specs:
            for item in self._interest[name]:
                holders[item].append(name)
        shared: Dict[Tuple[str, ...], Tuple[str, ...]] = {}
        self._sites_for: Dict[str, Tuple[str, ...]] = {}
        for item, names in holders.items():
            key = tuple(names)
            self._sites_for[item] = shared.setdefault(key, key)

    # ------------------------------------------------------------- #
    # tree walks
    # ------------------------------------------------------------- #

    def _walk_depth(self, name: str, hops: int) -> int:
        depth = 0
        cursor: Optional[str] = name
        while cursor is not None:
            cursor = self._specs[cursor].parent
            depth += 1
            if depth > hops:
                raise ValueError(f"parent cycle through {name!r}")
        return depth - 1

    def _descendant_leaves(self, name: str) -> List[str]:
        found: List[str] = []
        frontier = [name]
        while frontier:
            cursor = frontier.pop()
            for child in self._children[cursor]:
                if self._specs[child].role == ROLE_RETAILER:
                    found.append(child)
                else:
                    frontier.append(child)
        return found

    # ------------------------------------------------------------- #
    # queries
    # ------------------------------------------------------------- #

    @property
    def names(self) -> List[str]:
        """Site names in deployment order (maker first)."""
        return list(self._specs)

    @property
    def n_sites(self) -> int:
        return len(self._specs)

    @property
    def levels(self) -> int:
        """Depth of the supply tree (1 = flat maker→leaves)."""
        return max(self._depth.values())

    def role_of(self, name: str) -> str:
        return self._specs[name].role

    def parent_of(self, name: str) -> Optional[str]:
        return self._specs[name].parent

    def children_of(self, name: str) -> Tuple[str, ...]:
        return tuple(self._children[name])

    def interest_of(self, name: str) -> Tuple[str, ...]:
        """Items ``name`` replicates, in catalogue order."""
        return self._interest[name]

    def sites_for(self, item: str) -> Tuple[str, ...]:
        """The item's interest set, in topology (maker-first) order."""
        return self._sites_for[item]

    def view(self, name: str) -> InterestView:
        """A fresh per-site view for one accelerator. Views cache their
        peer lists, and configs of one shape share a topology, so a
        shared view would carry one run's caches into the next."""
        return InterestView(self, name)

    # ------------------------------------------------------------- #
    # serialisation
    # ------------------------------------------------------------- #

    def to_dict(self) -> Dict:
        return {
            "spec": self.spec,
            "items": list(self.items),
            "sites": [
                [s.name, s.role, s.parent, s.region]
                for s in self._specs.values()
            ],
            "slices": {
                leaf: list(self._interest[leaf]) for leaf in self.leaves
            },
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> "Topology":
        specs = [
            SiteSpec(name, role, parent, region)
            for name, role, parent, region in data["sites"]
        ]
        return cls(
            specs,
            {leaf: list(items) for leaf, items in data["slices"].items()},
            items=list(data["items"]),
            spec=data.get("spec", ""),
        )

    def __repr__(self) -> str:
        return (
            f"<Topology {self.spec or 'custom'!s}: {self.n_sites} sites"
            f" ({len(self.aggregators)} aggregators,"
            f" {len(self.leaves)} leaves),"
            f" {len(self.items)} items, levels={self.levels}>"
        )

    # ------------------------------------------------------------- #
    # builders
    # ------------------------------------------------------------- #

    @classmethod
    def paper(cls, n_retailers: int, items: Sequence[str]) -> "Topology":
        """The paper's flat layout ``flat:N``: maker ``site0`` plus
        retailers ``site1..siteN``, every one replicating every item.
        This is the layout of a ``SystemConfig`` given no topology."""
        if n_retailers < 1:
            raise ValueError("need at least one retailer")
        specs = [SiteSpec("site0", ROLE_MAKER)]
        specs += [
            SiteSpec(f"site{i}", ROLE_RETAILER, parent="site0")
            for i in range(1, n_retailers + 1)
        ]
        slices = {s.name: list(items) for s in specs[1:]}
        return cls(specs, slices, items=items, spec=f"flat:{n_retailers}")

    @classmethod
    def regional(
        cls,
        items: Sequence[str],
        n_regions: int,
        leaves_per_region: int,
        spread: int = 2,
    ) -> "Topology":
        """Two-level tree: maker → ``n_regions`` aggregators → leaves.

        Items are dealt round-robin across the leaves; ``spread`` leaves
        replicate each item (clamped to the leaf count), so an item's
        interest set is those leaves, their aggregators, and the maker.
        """
        return cls._tree(items, [n_regions], leaves_per_region, spread,
                         spec=f"regional:{n_regions}x{leaves_per_region}"
                              f":s{spread}")

    @classmethod
    def deep(
        cls,
        items: Sequence[str],
        n_regions: int,
        subs_per_region: int,
        leaves_per_sub: int,
        spread: int = 2,
    ) -> "Topology":
        """Three-level tree: maker → regions → sub-regions → leaves."""
        return cls._tree(
            items, [n_regions, subs_per_region], leaves_per_sub, spread,
            spec=f"deep:{n_regions}x{subs_per_region}x{leaves_per_sub}"
                 f":s{spread}",
        )

    @classmethod
    def _tree(
        cls,
        items: Sequence[str],
        fanouts: Sequence[int],
        leaves_per_tail: int,
        spread: int,
        spec: str,
    ) -> "Topology":
        if any(f < 1 for f in fanouts) or leaves_per_tail < 1:
            raise ValueError(f"tree fanouts must be >= 1: {spec}")
        if spread < 1:
            raise ValueError("spread must be >= 1")
        specs = [SiteSpec("site0", ROLE_MAKER)]
        # Breadth-first aggregator layers: agg0.., then agg0.0.. under
        # them, region labels mirror the path.
        tails = ["site0"]
        labels = [""]
        for level, fanout in enumerate(fanouts):
            next_tails: List[str] = []
            next_labels: List[str] = []
            for parent, label in zip(tails, labels):
                for r in range(fanout):
                    sub = f"{label}.{r}" if label else str(r)
                    name = f"agg{sub}"
                    specs.append(SiteSpec(
                        name, ROLE_AGGREGATOR, parent=parent,
                        region=f"region{sub}",
                    ))
                    next_tails.append(name)
                    next_labels.append(sub)
            tails, labels = next_tails, next_labels

        leaves: List[str] = []
        k = 1
        for parent, label in zip(tails, labels):
            for _ in range(leaves_per_tail):
                name = f"site{k}"
                specs.append(SiteSpec(
                    name, ROLE_RETAILER, parent=parent,
                    region=f"region{label}",
                ))
                leaves.append(name)
                k += 1

        spread = min(spread, len(leaves))
        slices: Dict[str, List[str]] = {leaf: [] for leaf in leaves}
        for i, item in enumerate(items):
            for j in range(spread):
                slices[leaves[(i + j) % len(leaves)]].append(item)
        return cls(specs, slices, items=items, spec=spec)

    @classmethod
    def parse(cls, spec: str, items: Sequence[str]) -> "Topology":
        """Build a topology from a compact spec string.

        * ``flat:N`` — the paper's shape with N retailers;
        * ``regional:RxL[:sS]`` — maker → R aggregators → R·L leaves,
          S-way item spread (default 2);
        * ``deep:RxSxL[:sS]`` — three-level tree.
        """
        parts = spec.split(":")
        kind = parts[0]
        spread = 2
        dims = parts[1] if len(parts) > 1 else ""
        for extra in parts[2:]:
            if extra.startswith("s"):
                spread = int(extra[1:])
            else:
                raise ValueError(f"unknown topology option {extra!r}")
        try:
            if kind == "flat":
                return cls.paper(int(dims), items)
            counts = [int(d) for d in dims.split("x")]
            if kind == "regional" and len(counts) == 2:
                return cls.regional(items, counts[0], counts[1], spread)
            if kind == "deep" and len(counts) == 3:
                return cls.deep(
                    items, counts[0], counts[1], counts[2], spread
                )
        except ValueError as exc:
            raise ValueError(f"bad topology spec {spec!r}: {exc}") from None
        raise ValueError(f"unknown topology spec {spec!r}")
