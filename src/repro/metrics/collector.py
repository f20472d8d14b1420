"""Update-level metrics collection and the global ledger.

:class:`GlobalLedger` tracks ground truth — the value every replica would
converge to if all committed deltas were applied — independently of any
site's partial view. The conservation and non-negativity invariants are
checked against it.

:class:`MetricsCollector` accumulates one
:class:`~repro.core.types.UpdateResult` per finished update in a
:class:`ResultLog`. That log is the run's one record of updates: the
registry's ``updates.<outcome>`` counters, ``av.requests`` and
``update.latency`` histograms are folded from it, and every other
figure is a scan of it.
"""

from __future__ import annotations

from array import array
from collections.abc import Sequence
from itertools import chain, islice, repeat
from operator import attrgetter, eq, index as as_index
from typing import Dict, Iterable, Iterator, List, Optional

from repro.core.types import UpdateKind, UpdateOutcome, UpdateRequest, UpdateResult
from repro.obs.registry import MetricRegistry

_new_tuple = tuple.__new__

#: results the log keeps as tuples before packing them into its columns
CHUNK = 1024

#: the log's columns, in order: the request's fields, then the result's
FIELDS = (
    "site", "item", "delta", "issued_at", "request_id",
    "kind", "outcome", "local_only", "finished_at", "av_requests",
    "av_obtained", "retry_after",
)
_FIELD_INDEX = {name: i for i, name in enumerate(FIELDS)}

_KINDS = tuple(UpdateKind)
_OUTCOMES = tuple(UpdateOutcome)
_BOOLS = (False, True)
# Codes are looked up by the member's value string: hashing an enum
# member runs ``Enum.__hash__``, a Python frame per record.
_KIND_CODES = {member.value: code for code, member in enumerate(_KINDS)}
_OUTCOME_CODES = {member.value: code for code, member in enumerate(_OUTCOMES)}
_member_value = attrgetter("_value_")

#: per column: the tuple a stored code indexes, or None if stored as is
_DECODE = (None,) * 5 + (_KINDS, _OUTCOMES, _BOOLS) + (None,) * 4
#: per column: how a field is read from a recorded UpdateResult
_GETTERS = tuple(
    attrgetter(("request." if i < 5 else "") + name)
    for i, name in enumerate(FIELDS)
)


class _Storage:
    """What a log and its views share: the packed columns, which only
    ever grow, and the tail list, which :meth:`ResultLog.pack` replaces
    rather than empties."""

    __slots__ = ("columns", "tail")

    def __init__(self) -> None:
        self.columns = (
            # the recorded objects, so an int delta stays an int
            [], [], [],
            array("d"), array("q"),
            # one byte each: a code into _DECODE's tuple
            bytearray(), bytearray(), bytearray(),
            array("d"), array("q"),
            [], [],
        )
        self.tail: List[UpdateResult] = []


class ResultLog(Sequence):
    """The finished updates of one run, in record order, as columns.

    Up to :data:`CHUNK` newest results are kept as the recorded
    :class:`~repro.core.types.UpdateResult` tuples (the tail); when the
    tail is full, :meth:`pack` moves it into one column per field of
    :data:`FIELDS`: the times in ``array("d")``, request ids and AV
    request counts in ``array("q")``, kind, outcome and ``local_only``
    as one byte each, everything else as the recorded objects. About
    80 B per update instead of two nested tuples.

    A read-only sequence of results: indexing, slicing and iteration
    rebuild tuples equal to the recorded ones (the tail's are the
    recorded objects), with the enum members and ``bool`` restored, and
    a log compares equal to any sequence of equal results. :meth:`column`
    and :meth:`columns` read fields without rebuilding anything: full
    scans use them. :meth:`since` is a live view of the records from a
    position on. An iterator covers the records there were when it was
    made, and copies nothing: the columns only grow, and a pack leaves
    the old tail list as it was.
    """

    __slots__ = ("_storage", "_start")

    def __init__(self) -> None:
        self._storage = _Storage()
        #: first record this log (or view) shows
        self._start = 0

    def pack(self) -> List[UpdateResult]:
        """Move the tail into the columns; returns the new, empty tail."""
        storage = self._storage
        tail = storage.tail
        storage.tail = []
        if tail:
            (requests, kinds, outcomes, local_only, finished_at, av_requests,
             av_obtained, retry_after) = zip(*tail)
            columns = storage.columns
            for column, values in zip(columns, zip(*requests)):
                column.extend(values)
            columns[5].extend(
                map(_KIND_CODES.__getitem__, map(_member_value, kinds))
            )
            columns[6].extend(
                map(_OUTCOME_CODES.__getitem__, map(_member_value, outcomes))
            )
            columns[7].extend(local_only)
            columns[8].extend(finished_at)
            columns[9].extend(av_requests)
            columns[10].extend(av_obtained)
            columns[11].extend(retry_after)
        return storage.tail

    def since(self, start: int) -> "ResultLog":
        """A live view of this log's records from position ``start`` on:
        it shares the storage, so it grows as the log does."""
        if not 0 <= start <= len(self):
            raise IndexError(f"since({start}) outside a log of {len(self)}")
        view = ResultLog.__new__(ResultLog)
        view._storage = self._storage
        view._start = self._start + start
        return view

    # ---------------------------------------------------------------- #
    # column reads
    # ---------------------------------------------------------------- #

    def _split(self, start: int):
        """The records from ``start`` on: the (begin, end) span of the
        columns they cover, or None, and an iterator over the tail's."""
        storage = self._storage
        begin = self._start + start
        packed = len(storage.columns[0])
        tail = storage.tail
        return (
            (begin, packed) if begin < packed else None,
            islice(tail, max(begin - packed, 0), len(tail)),
        )

    def _packed(self, i: int, span) -> Iterator:
        """Column ``i`` over ``span`` (begin, end), decoded, without
        copying it."""
        if span is None:
            return iter(())
        begin, end = span
        column = self._storage.columns[i]
        if begin == 0:
            values = islice(column, end)
        else:
            values = map(column.__getitem__, range(begin, end))
        decode = _DECODE[i]
        return values if decode is None else map(decode.__getitem__, values)

    def column(self, name: str, start: int = 0) -> Iterator:
        """One field of the records from ``start`` on, in record order,
        read from its column: no tuple is rebuilt."""
        i = _FIELD_INDEX[name]
        span, tail = self._split(start)
        return chain(self._packed(i, span), map(_GETTERS[i], tail))

    def columns(self, *names: str, start: int = 0) -> Iterator[tuple]:
        """The named fields of the records from ``start`` on, zipped."""
        return zip(*[self.column(name, start) for name in names])

    # ---------------------------------------------------------------- #
    # the sequence
    # ---------------------------------------------------------------- #

    def __len__(self) -> int:
        storage = self._storage
        return len(storage.columns[0]) + len(storage.tail) - self._start

    def __iter__(self) -> Iterator[UpdateResult]:
        """The packed records rebuilt, then the tail's recorded tuples."""
        span, tail = self._split(0)
        if span is None:
            return tail
        fields = [self._packed(i, span) for i in range(len(FIELDS))]
        requests = map(_new_tuple, repeat(UpdateRequest), zip(*fields[:5]))
        head = map(_new_tuple, repeat(UpdateResult), zip(requests, *fields[5:]))
        return chain(head, tail)

    def __getitem__(self, index):
        size = len(self)
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(size))]
        index = as_index(index)
        if index < 0:
            index += size
        if not 0 <= index < size:
            raise IndexError("result index out of range")
        index += self._start
        columns = self._storage.columns
        packed = len(columns[0])
        if index >= packed:
            return self._storage.tail[index - packed]
        (site, item, delta, issued_at, request_id, kind, outcome, local_only,
         finished_at, av_requests, av_obtained, retry_after) = columns
        return _new_tuple(UpdateResult, (
            _new_tuple(UpdateRequest, (
                site[index], item[index], delta[index], issued_at[index],
                request_id[index],
            )),
            _KINDS[kind[index]], _OUTCOMES[outcome[index]],
            _BOOLS[local_only[index]], finished_at[index],
            av_requests[index], av_obtained[index], retry_after[index],
        ))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self) -> str:
        return f"<ResultLog of {len(self)} results>"


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
    """A collector's registry feeder: folds the log's records from its
    cursor ``done`` on into the registry's instruments, in record order,
    reading the outcome, AV-request, time and kind columns.

    It holds the log, never the collector, so registering it makes no
    reference cycle: a finished run's collector is still freed the
    moment its last reference goes, not at the next garbage collection.
    """

    __slots__ = ("log", "done", "outcome_counters", "kind_histograms",
                 "av_counter", "latency_histogram")

    def __init__(self, log: ResultLog) -> None:
        self.log = log
        #: log[:done] has reached the registry instruments
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
        """Fold the unfolded records in. ``done`` moves first, so the
        lookups made here, which run the feeders again, find nothing
        left to fold."""
        log = self.log
        start = self.done
        if start == len(log):
            return
        self.done = len(log)
        committed = UpdateOutcome.COMMITTED
        for outcome, av_requests, finished_at, issued_at, kind in log.columns(
            "outcome", "av_requests", "finished_at", "issued_at", "kind",
            start=start,
        ):
            counter = self.outcome_counters.get(outcome)
            if counter is None:
                counter = registry.counter(f"updates.{outcome.value}")
                self.outcome_counters[outcome] = counter
            counter.inc()
            if av_requests:
                av_counter = self.av_counter
                if av_counter is None:
                    av_counter = self.av_counter = registry.counter(
                        "av.requests"
                    )
                av_counter.inc(av_requests)
            if outcome is committed:
                latency = finished_at - issued_at
                histogram = self.latency_histogram
                if histogram is None:
                    histogram = self.latency_histogram = registry.histogram(
                        "update.latency"
                    )
                histogram.observe(latency)
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

    :attr:`results` is a :class:`ResultLog`: :meth:`record` appends the
    result to its tail, and every :data:`CHUNK` results the tail is
    packed into columns, so a read rebuilds tuples equal to the
    recorded ones. The instruments are fed when read: the fold is the
    registry's feeder, so whoever reads the registry, private or
    shared, first folds the unfolded records in record order — the same
    instrument calls in the same order as folding each record at once,
    hence the same float sums.
    """

    def __init__(self, registry: Optional[MetricRegistry] = None) -> None:
        self.results = ResultLog()
        self._tail = self.results._storage.tail
        self.ledger = GlobalLedger()
        #: the registry; reading it folds every recorded result in
        self.registry = registry if registry is not None else MetricRegistry()
        self._fold = _ResultFold(self.results)
        self.registry.add_feeder(self._fold)

    def record(self, result: UpdateResult) -> None:
        """Account one finished update (and its delta, if committed)."""
        tail = self._tail
        tail.append(result)
        if len(tail) == CHUNK:
            self._tail = self.results.pack()
        if result.outcome is UpdateOutcome.COMMITTED:  # no property call
            request = result.request
            self.ledger.record_delta(request.item, request.delta)

    @property
    def total(self) -> int:
        return len(self.results)
