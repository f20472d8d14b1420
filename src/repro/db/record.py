"""Record: one numeric datum with its mutation count and time.

The paper's database is a table of ``(product, stock amount)`` rows,
replicated at every site of the item's interest set. A record reports
one row: its value, how many times it was mutated (``version``) and when
last (``updated_at``). Those two are diagnostics: no protocol layer
reads them.
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

    def __str__(self) -> str:
        return f"{self.item}={self.value} (v{self.version})"
