"""Workload trace record/replay.

A trace freezes a generated stream into columns that can be saved
to disk and replayed bit-identically — useful for regression-pinning a
benchmark workload, for comparing two mechanisms on *exactly* the same
updates (the fig6 harness does this), and for sharing failing cases.
"""

from __future__ import annotations

import sys
from collections import Counter
from itertools import compress, islice, repeat
from pathlib import Path
from typing import Dict, Iterable, Iterator, Union

from repro.sim.engine import collect_young_after
from repro.workload.generators import (
    Columns, WorkloadEvent, WorkloadGenerator, events_of, transpose,
)


class WorkloadTrace(WorkloadGenerator):
    """A frozen stream of events, itself usable as a generator.

    The events are kept as three columns — sites, items, deltas — of
    references to shared objects: 24 B per event, one object per
    distinct value. Each event read is built as it is read.
    """

    def __init__(self, events: Iterable[WorkloadEvent] = ()) -> None:
        self._sites, self._items, self._deltas = transpose(events)

    @classmethod
    def of_columns(cls, columns: Columns) -> "WorkloadTrace":
        """The trace of equal-length ``(sites, items, deltas)`` tuples."""
        trace = cls.__new__(cls)
        trace._sites, trace._items, trace._deltas = columns
        return trace

    @classmethod
    @collect_young_after
    def capture(cls, generator: WorkloadGenerator, n: int) -> "WorkloadTrace":
        """Materialise the first ``n`` events of ``generator``."""
        return cls.of_columns(generator.columns(n))

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        if n > len(self._sites):
            raise ValueError(
                f"trace holds {len(self._sites)} events, {n} requested"
            )
        return islice(iter(self), n)

    def by_site(self) -> Dict[str, "WorkloadTrace"]:
        """One trace per site, each its site's events in order, sites in
        order of first appearance."""
        sites, items, deltas = self._sites, self._items, self._deltas
        out: Dict[str, WorkloadTrace] = {}
        for site in dict.fromkeys(sites):
            mine = tuple(map(site.__eq__, sites))
            out[site] = self.of_columns((
                tuple(compress(sites, mine)),
                tuple(compress(items, mine)),
                tuple(compress(deltas, mine)),
            ))
        return out

    def rows(self) -> Iterator[tuple]:
        """The events as plain ``(site, item, delta)`` tuples: what a
        driver reading no event attribute iterates, with no event built."""
        return zip(self._sites, self._items, self._deltas)

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self) -> Iterator[WorkloadEvent]:
        return events_of(self._sites, self._items, self._deltas)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return list(events_of(
                self._sites[index], self._items[index], self._deltas[index]
            ))
        return WorkloadEvent(
            self._sites[index], self._items[index], self._deltas[index]
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadTrace):
            return NotImplemented
        return (
            self._sites == other._sites
            and self._items == other._items
            and self._deltas == other._deltas
        )

    # ---------------------------------------------------------------- #
    # persistence (simple one-event-per-line text format)
    # ---------------------------------------------------------------- #

    def save(self, path: Union[str, Path]) -> None:
        """Write ``site<TAB>item<TAB>delta`` lines."""
        lines = "\n".join(map(
            "{}\t{}\t{!r}".format, self._sites, self._items, self._deltas
        ))
        Path(path).write_text(lines + ("\n" if self._sites else ""))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkloadTrace":
        """Read a trace written by :meth:`save`."""
        lines = Path(path).read_text().splitlines()
        rows = list(map(str.split, filter(str.strip, lines), repeat("\t")))
        if set(map(len, rows)) - {3}:
            for lineno, line in enumerate(lines, 1):
                if line.strip() and len(line.split("\t")) != 3:
                    raise ValueError(
                        f"{path}:{lineno}: malformed trace line {line!r}"
                    )
        if not rows:
            return cls()
        sites, items, texts = zip(*rows)
        floats = {text: float(text) for text in dict.fromkeys(texts)}
        return cls.of_columns((
            tuple(map(sys.intern, sites)),
            tuple(map(sys.intern, items)),
            tuple(map(floats.__getitem__, texts)),
        ))

    # ---------------------------------------------------------------- #
    # analysis
    # ---------------------------------------------------------------- #

    def summary(self) -> "TraceSummary":
        """Aggregate statistics of the frozen stream."""
        net_delta: dict[str, float] = {}
        increments = decrements = 0
        volume_in = volume_out = 0.0
        for item, delta in zip(self._items, self._deltas):
            net_delta[item] = net_delta.get(item, 0.0) + delta
            if delta >= 0:
                increments += 1
                volume_in += delta
            else:
                decrements += 1
                volume_out -= delta
        return TraceSummary(
            events=len(self._sites),
            per_site=dict(Counter(self._sites)),
            per_item=dict(Counter(self._items)),
            net_delta=net_delta,
            increments=increments,
            decrements=decrements,
            volume_in=volume_in,
            volume_out=volume_out,
        )

    def __repr__(self) -> str:
        return f"<WorkloadTrace {len(self._sites)} events>"


from dataclasses import dataclass  # noqa: E402


@dataclass(frozen=True)
class TraceSummary:
    """What a workload asks of the system, in aggregate.

    ``volume_in / volume_out`` near 1.0 means supply and demand balance
    — the regime the paper's experiment runs in; well below 1.0 the
    system runs dry and every mechanism degenerates into rejections
    (see the scale-ablation notes in EXPERIMENTS.md).
    """

    events: int
    per_site: Dict[str, int]
    per_item: Dict[str, int]
    net_delta: Dict[str, float]
    increments: int
    decrements: int
    volume_in: float
    volume_out: float

    @property
    def supply_demand_ratio(self) -> float:
        return self.volume_in / self.volume_out if self.volume_out else float("inf")

    def __str__(self) -> str:
        return (
            f"TraceSummary(events={self.events},"
            f" +{self.increments}/-{self.decrements},"
            f" in={self.volume_in:g} out={self.volume_out:g},"
            f" supply/demand={self.supply_demand_ratio:.2f})"
        )
