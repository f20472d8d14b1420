"""Record: one numeric datum with its mutation count and time.

The paper's database is a table of ``(product, stock amount)`` rows,
replicated at every site of the item's interest set. A record reports
one row: its value, how many times it was mutated (``version``) and when
last (``updated_at``). Those two are diagnostics: no protocol layer
reads them, and snapshots keep values only.
:meth:`~repro.db.storage.Store.record` returns a record as a copy of a
store row.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(slots=True)
class Record:
    """A mutable stock record.

    Attributes
    ----------
    item:
        Item (product) identifier.
    value:
        Current numeric amount.
    version:
        Monotonic per-record mutation counter.
    updated_at:
        Simulation time of the last mutation.
    """

    item: str
    value: float
    version: int = 0
    updated_at: float = 0.0

    def apply(self, delta: float, now: float = 0.0) -> float:
        """Add ``delta`` to the value; returns the new value."""
        self.value += delta
        self.version += 1
        self.updated_at = now
        return self.value

    def set(self, value: float, now: float = 0.0) -> None:
        """Overwrite the value (used by bootstrap and replication)."""
        self.value = value
        self.version += 1
        self.updated_at = now

    def copy(self) -> "Record":
        return Record(self.item, self.value, self.version, self.updated_at)

    def __str__(self) -> str:
        return f"{self.item}={self.value} (v{self.version})"
