"""In-memory value store — one per site.

A thin, well-checked ``{item: value}`` dictionary. All protocol layers
mutate values exclusively through :meth:`apply_delta` /
:meth:`set_value` so non-negativity stays enforced in one place.
"""

from __future__ import annotations

from typing import Dict, Iterable, Iterator, Mapping, Tuple

from repro.db.errors import DuplicateItem, NegativeValue, UnknownItem


class Store:
    """Per-site table of numeric values.

    Parameters
    ----------
    name:
        Identifier used in error messages and traces (usually the site name).
    allow_negative:
        When ``False`` (default) a delta that would take a value below zero
        raises :class:`NegativeValue`. Delay updates are AV-gated and should
        never trip this; tripping it indicates a protocol bug.
    """

    def __init__(self, name: str = "store", allow_negative: bool = False) -> None:
        self.name = name
        self.allow_negative = allow_negative
        self._values: Dict[str, float] = {}

    # ---------------------------------------------------------------- #
    # schema
    # ---------------------------------------------------------------- #

    def insert(self, item: str, value: float) -> None:
        """Create a new item; the id must be fresh."""
        self.insert_many({item: value})

    def insert_many(self, values: Mapping[str, float]) -> None:
        """Create every item of ``values`` in its order; all or nothing.
        Every id must be fresh."""
        own = self._values
        if not own.keys().isdisjoint(values):
            item = next(i for i in values if i in own)
            raise DuplicateItem(f"item {item!r} already in store {self.name!r}")
        if not self.allow_negative and values and min(values.values()) < 0:
            item = next(i for i, v in values.items() if v < 0)
            raise NegativeValue(item, 0, values[item])
        own.update(values)

    def drop(self, item: str) -> None:
        if item not in self._values:
            raise UnknownItem(item)
        del self._values[item]

    # ---------------------------------------------------------------- #
    # access
    # ---------------------------------------------------------------- #

    def value(self, item: str) -> float:
        try:
            return self._values[item]
        except KeyError:
            raise UnknownItem(item) from None

    def __contains__(self, item: str) -> bool:
        return item in self._values

    def __len__(self) -> int:
        return len(self._values)

    def items(self) -> Iterator[Tuple[str, float]]:
        """Iterate ``(item, value)`` pairs in insertion order."""
        return iter(self._values.items())

    def item_ids(self) -> Iterable[str]:
        return self._values.keys()

    # ---------------------------------------------------------------- #
    # mutation
    # ---------------------------------------------------------------- #

    def apply_delta(self, item: str, delta: float, force: bool = False) -> float:
        """Add ``delta`` to an item's value; returns the new value.

        ``force=True`` bypasses the non-negativity check. Replication of
        Delay Updates needs this: a replica may transiently dip below zero
        when decrements arrive before the mints that funded them — the AV
        mechanism guarantees the *global* value stays nonnegative, not
        each replica's partial view.
        """
        values = self._values
        try:
            value = values[item]
        except KeyError:
            raise UnknownItem(item) from None
        if not force and not self.allow_negative and value + delta < 0:
            raise NegativeValue(item, value, delta)
        value += delta
        values[item] = value
        return value

    def set_value(self, item: str, value: float) -> None:
        """Overwrite an item's value (replication/recovery path)."""
        try:
            old = self._values[item]
        except KeyError:
            raise UnknownItem(item) from None
        if not self.allow_negative and value < 0:
            raise NegativeValue(item, old, value - old)
        self._values[item] = value

    # ---------------------------------------------------------------- #
    # bulk views
    # ---------------------------------------------------------------- #

    def as_dict(self) -> Dict[str, float]:
        """Plain ``{item: value}`` snapshot of current values."""
        return dict(self._values)

    def total(self) -> float:
        """Sum of all values (conservation checks)."""
        return sum(self._values.values())

    def __repr__(self) -> str:
        return f"<Store {self.name!r} items={len(self._values)}>"
