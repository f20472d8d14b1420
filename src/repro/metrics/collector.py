"""Update-level metrics collection and the global ledger.

:class:`GlobalLedger` tracks ground truth — the value every replica would
converge to if all committed deltas were applied — independently of any
site's partial view. The conservation and non-negativity invariants are
checked against it.

:class:`MetricsCollector` accumulates one
:class:`~repro.core.types.UpdateResult` per finished update. That list
is the run's one record of updates: the registry's ``updates.<outcome>``
counters, ``av.requests`` and ``update.latency`` histograms are folded
from it, and every other figure is a scan of it.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from repro.core.types import UpdateKind, UpdateOutcome, UpdateResult
from repro.obs.registry import MetricRegistry


class GlobalLedger:
    """Ground-truth item values: initial + every committed delta."""

    def __init__(self) -> None:
        self._initial: Dict[str, float] = {}
        self._delta_sum: Dict[str, float] = {}

    def set_initial(self, item: str, value: float) -> None:
        self._initial[item] = value
        self._delta_sum.setdefault(item, 0.0)

    def record_delta(self, item: str, delta: float) -> None:
        if item not in self._initial:
            raise KeyError(f"ledger has no initial value for {item!r}")
        self._delta_sum[item] += delta

    def true_value(self, item: str) -> float:
        return self._initial[item] + self._delta_sum[item]

    def items(self) -> Iterable[str]:
        return self._initial.keys()


class _ResultFold:
    """A collector's registry feeder: feeds ``results[done:]`` to the
    registry's instruments, in record order.

    It holds the results list, never the collector, so registering it
    makes no reference cycle: a finished run's collector is still freed
    the moment its last reference goes, not at the next garbage
    collection.
    """

    __slots__ = ("results", "done", "outcome_counters", "kind_histograms",
                 "av_counter", "latency_histogram")

    def __init__(self, results: List[UpdateResult]) -> None:
        self.results = results
        #: results[:done] have reached the registry instruments
        self.done = 0
        # The fold visits every finished update; resolving a metric by
        # name costs an f-string build plus a registry dict probe every
        # time. The handles are stable objects, so memoise them per
        # enum value / kind the first time each is seen.
        self.outcome_counters: Dict[UpdateOutcome, object] = {}
        self.kind_histograms: Dict[UpdateKind, object] = {}
        self.av_counter = None
        self.latency_histogram = None

    def __call__(self, registry: MetricRegistry) -> None:
        """Fold the unfolded results in. ``done`` moves first, so the
        lookups made here, which run the feeders again, find nothing
        left to fold."""
        results = self.results
        start = self.done
        if start == len(results):
            return
        self.done = len(results)
        for result in results[start:]:
            outcome = result.outcome
            counter = self.outcome_counters.get(outcome)
            if counter is None:
                counter = registry.counter(f"updates.{outcome.value}")
                self.outcome_counters[outcome] = counter
            counter.inc()
            if result.av_requests:
                av_counter = self.av_counter
                if av_counter is None:
                    av_counter = self.av_counter = registry.counter(
                        "av.requests"
                    )
                av_counter.inc(result.av_requests)
            if result.committed:
                latency = result.latency
                histogram = self.latency_histogram
                if histogram is None:
                    histogram = self.latency_histogram = registry.histogram(
                        "update.latency"
                    )
                histogram.observe(latency)
                kind = result.kind
                kind_histogram = self.kind_histograms.get(kind)
                if kind_histogram is None:
                    kind_histogram = registry.histogram(
                        f"update.latency.{kind.value}"
                    )
                    self.kind_histograms[kind] = kind_histogram
                kind_histogram.observe(latency)


class MetricsCollector:
    """Aggregates finished updates for one simulation run.

    Parameters
    ----------
    registry:
        Metric registry receiving streaming aggregates (latency
        histograms per update kind, outcome counters). A private one is
        created when omitted; observed systems share the run's
        :class:`~repro.obs.hub.Observability` registry instead.

    The instruments are fed when read: :meth:`record` only appends, and
    the fold is the registry's feeder, so whoever reads the registry,
    private or shared, first folds the unfolded tail of :attr:`results`
    in record order — the same instrument calls in the same order as
    folding each record at once, hence the same float sums.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.results: List[UpdateResult] = []
        self.ledger = GlobalLedger()
        #: the registry; reading it folds every recorded result in
        self.registry = registry if registry is not None else MetricRegistry()
        self._fold = _ResultFold(self.results)
        self.registry.add_feeder(self._fold)

    def record(self, result: UpdateResult) -> None:
        """Account one finished update (and its delta, if committed)."""
        self.results.append(result)
        if result.outcome is UpdateOutcome.COMMITTED:  # no property call
            request = result.request
            self.ledger.record_delta(request.item, request.delta)

    @property
    def total(self) -> int:
        return len(self.results)
