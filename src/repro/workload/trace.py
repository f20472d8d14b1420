"""Workload trace record/replay.

A trace freezes a generated stream into a plain list that can be saved
to disk and replayed bit-identically — useful for regression-pinning a
benchmark workload, for comparing two mechanisms on *exactly* the same
updates (the fig6 harness does this), and for sharing failing cases.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable, Iterator, List, Union

from repro.sim.engine import collect_young_after
from repro.workload.generators import WorkloadEvent, WorkloadGenerator


class WorkloadTrace(WorkloadGenerator):
    """A frozen stream of events, itself usable as a generator."""

    def __init__(self, events: Iterable[WorkloadEvent] = ()) -> None:
        self._events: List[WorkloadEvent] = list(events)

    @classmethod
    @collect_young_after
    def capture(cls, generator: WorkloadGenerator, n: int) -> "WorkloadTrace":
        """Materialise the first ``n`` events of ``generator``."""
        return cls(generator.events(n))

    def events(self, n: int) -> Iterator[WorkloadEvent]:
        if n > len(self._events):
            raise ValueError(
                f"trace holds {len(self._events)} events, {n} requested"
            )
        return iter(self._events[:n])

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[WorkloadEvent]:
        return iter(self._events)

    def __getitem__(self, index: int) -> WorkloadEvent:
        return self._events[index]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WorkloadTrace):
            return NotImplemented
        return self._events == other._events

    # ---------------------------------------------------------------- #
    # persistence (simple one-event-per-line text format)
    # ---------------------------------------------------------------- #

    def save(self, path: Union[str, Path]) -> None:
        """Write ``site<TAB>item<TAB>delta`` lines."""
        lines = [f"{e.site}\t{e.item}\t{e.delta!r}" for e in self._events]
        Path(path).write_text("\n".join(lines) + ("\n" if lines else ""))

    @classmethod
    def load(cls, path: Union[str, Path]) -> "WorkloadTrace":
        """Read a trace written by :meth:`save`."""
        events = []
        for lineno, line in enumerate(Path(path).read_text().splitlines(), 1):
            if not line.strip():
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise ValueError(f"{path}:{lineno}: malformed trace line {line!r}")
            site, item, delta = parts
            events.append(WorkloadEvent(site, item, float(delta)))
        return cls(events)

    # ---------------------------------------------------------------- #
    # analysis
    # ---------------------------------------------------------------- #

    def summary(self) -> "TraceSummary":
        """Aggregate statistics of the frozen stream."""
        per_site: dict[str, int] = {}
        per_item: dict[str, int] = {}
        net_delta: dict[str, float] = {}
        increments = decrements = 0
        volume_in = volume_out = 0.0
        for event in self._events:
            per_site[event.site] = per_site.get(event.site, 0) + 1
            per_item[event.item] = per_item.get(event.item, 0) + 1
            net_delta[event.item] = net_delta.get(event.item, 0.0) + event.delta
            if event.delta >= 0:
                increments += 1
                volume_in += event.delta
            else:
                decrements += 1
                volume_out -= event.delta
        return TraceSummary(
            events=len(self._events),
            per_site=per_site,
            per_item=per_item,
            net_delta=net_delta,
            increments=increments,
            decrements=decrements,
            volume_in=volume_in,
            volume_out=volume_out,
        )

    def __repr__(self) -> str:
        return f"<WorkloadTrace {len(self._events)} events>"


from dataclasses import dataclass, field  # noqa: E402
from typing import Dict  # noqa: E402


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
