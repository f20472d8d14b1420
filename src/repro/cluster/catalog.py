"""Product catalogue: items, their class, and initial stock.

The paper's SCM model (§1.1) distinguishes **regular** products (stocked
at retailers; Delay Update) from **non-regular** products (made to
order; Immediate Update). "The classification between regular and
non-regular products is known" (§3.2) — the catalogue *is* that shared
knowledge, identical at every site.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List


class ProductClass(enum.Enum):
    REGULAR = "regular"
    NON_REGULAR = "non-regular"


@dataclass(frozen=True, slots=True)
class Product:
    """One catalogue entry."""

    item: str
    product_class: ProductClass
    initial_stock: float

    @property
    def regular(self) -> bool:
        return self.product_class is ProductClass.REGULAR


class ProductCatalog:
    """Ordered, immutable-after-build collection of products."""

    def __init__(self) -> None:
        self._products: Dict[str, Product] = {}

    def add(self, product: Product) -> None:
        self.add_many((product,))

    def add_many(self, products: Iterable[Product]) -> None:
        """Add every product, in order; all or nothing."""
        own = self._products
        batch: Dict[str, Product] = {}
        for product in products:
            if product.item in own or product.item in batch:
                raise ValueError(f"duplicate product {product.item!r}")
            if product.initial_stock < 0:
                raise ValueError(
                    f"negative initial stock for {product.item!r}"
                )
            batch[product.item] = product
        own.update(batch)

    def get(self, item: str) -> Product:
        return self._products[item]

    def __contains__(self, item: str) -> bool:
        return item in self._products

    def __len__(self) -> int:
        return len(self._products)

    def __iter__(self) -> Iterator[Product]:
        return iter(self._products.values())

    def items(self) -> List[str]:
        return list(self._products)

    def regular_items(self) -> List[str]:
        return [p.item for p in self if p.regular]

    def non_regular_items(self) -> List[str]:
        return [p.item for p in self if not p.regular]

    def __repr__(self) -> str:
        return (
            f"<ProductCatalog {len(self)} products,"
            f" {len(self.regular_items())} regular>"
        )


def item_ids(n_items: int) -> List[str]:
    """The catalogue's item ids, ``item0..`` zero-padded to one width so
    they sort in catalogue order. Every layout, trace and fuzz case
    names items through this one rule."""
    width = len(str(n_items - 1))
    return [f"item{i:0{width}d}" for i in range(n_items)]


def make_catalog(
    n_items: int,
    initial_stock: float = 100.0,
    regular_fraction: float = 1.0,
) -> ProductCatalog:
    """Build a uniform catalogue over :func:`item_ids`.

    The first ``round(n_items * regular_fraction)`` items are regular
    (deterministic, so experiments are reproducible by construction).
    The paper's Fig. 6 simulation uses only Delay Updates, i.e.
    ``regular_fraction=1.0``; the immediate/delay-mix ablation sweeps it.
    """
    if n_items <= 0:
        raise ValueError(f"n_items must be positive, got {n_items}")
    if not 0.0 <= regular_fraction <= 1.0:
        raise ValueError(f"regular_fraction {regular_fraction} not in [0, 1]")
    catalog = ProductCatalog()
    n_regular = round(n_items * regular_fraction)
    regular, non_regular = ProductClass.REGULAR, ProductClass.NON_REGULAR
    catalog.add_many([
        Product(item, regular if i < n_regular else non_regular, initial_stock)
        for i, item in enumerate(item_ids(n_items))
    ])
    return catalog
