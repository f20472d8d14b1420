"""Causal spans: timed, linked intervals of protocol work.

A :class:`Span` is one interval of simulated time attributed to a named
piece of protocol work at one site (an AV request round-trip, a 2PC lock
wait, a sync pass). Spans carry a ``trace_id`` shared by every span of
one logical operation and a ``parent_id`` linking them into a tree, so
the full chain behind a single update — checking, selecting, the AV
request at the requester, the deciding/grant at the *grantor*, the final
apply — reconstructs from the flat span list.

Cross-site linkage works by piggybacking ``{"trace", "span"}`` context
on protocol payloads (only when recording is enabled, so the disabled
wire format is byte-identical to an uninstrumented run); the remote
handler opens its span with that context as parent.

A span that opens and closes with no ``yield`` in between needs no
handle: :meth:`SpanRecorder.open_row` takes its id (where ``start``
would) and returns a :data:`Row`, and :meth:`SpanRecorder.write_row`
writes it when it closes — the same row ``Span.finish`` writes. The
covered update's whole tree (:data:`TREE_KINDS`) never waits either:
:meth:`SpanRecorder.open_tree` reserves its ids at once and
:meth:`SpanRecorder.write_tree` writes it as one record, which readers
expand into the spans its rows would have been. Two spans that open
back to back are one record too (:data:`PAIR_KINDS`): an update that
waits and its checking verdict, each AV round's selecting and request,
and a grant and its deciding (:meth:`SpanRecorder.open_pair`,
:meth:`SpanRecorder.close_pair`, :meth:`SpanRecorder.write_pair`).

:class:`NullSpanRecorder` is the disabled implementation: ``start``
returns the shared :data:`NULL_SPAN` whose mutators are no-ops, keeping
instrumented hot paths near-zero-cost when observability is off.
"""

from __future__ import annotations

import hashlib
from array import array
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union


class Span:
    """One timed interval of work, linked into a per-trace tree.

    A finished span is immutable: a second :meth:`finish`, or an
    :meth:`annotate` after the first, raises :class:`ValueError`.
    """

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "site",
                 "start", "end", "attrs", "_recorder")

    def __init__(
        self,
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        site: str,
        start: float,
        attrs: Optional[Dict[str, Any]] = None,
        recorder: Optional["SpanRecorder"] = None,
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.site = site
        self.start = start
        self.end: Optional[float] = None
        self.attrs = attrs
        self._recorder = recorder

    def finish(self, now: float, **attrs: Any) -> "Span":
        """Close the span at ``now``, merging any final attributes."""
        if self.end is not None:
            raise ValueError(f"{self!r} is already finished")
        self.end = now
        if attrs:
            if self.attrs is None:
                self.attrs = attrs
            else:
                self.attrs.update(attrs)
        if self._recorder is not None:
            self._recorder._pack(self)
        return self

    def annotate(self, **attrs: Any) -> None:
        """Attach key/value attributes to the (still open) span."""
        if self.end is not None:
            raise ValueError(f"{self!r} is already finished")
        if self.attrs is None:
            self.attrs = {}
        self.attrs.update(attrs)

    @property
    def finished(self) -> bool:
        return self.end is not None

    @property
    def duration(self) -> float:
        """Sim-time length (0 for still-open spans)."""
        return (self.end - self.start) if self.end is not None else 0.0

    def __repr__(self) -> str:
        endp = f"{self.end:g}" if self.end is not None else "…"
        return (
            f"<Span {self.name!r} {self.site} trace={self.trace_id}"
            f" id={self.span_id} parent={self.parent_id}"
            f" [{self.start:g}, {endp}]>"
        )


class _NullSpan(Span):
    """The shared do-nothing span returned by a disabled recorder."""

    __slots__ = ()

    def __init__(self) -> None:
        super().__init__("", 0, None, "", "", 0.0)

    def finish(self, now: float, **attrs: Any) -> "Span":
        return self

    def annotate(self, **attrs: Any) -> None:
        return None


#: singleton no-op span; safe to use as a parent (treated as "no parent")
NULL_SPAN = _NullSpan()

#: a span with no handle, from :meth:`SpanRecorder.open_row`:
#: ``(trace_id, span_id, parent_id)``. A parent wherever a :class:`Span` is.
Row = Tuple[str, int, Optional[int]]

#: the row of a span the cap dropped (or a disabled recorder's): as a
#: parent it means "no parent", exactly like :data:`NULL_SPAN`
NULL_ROW: Row = ("", 0, None)

ParentLike = Union[Span, Row, int, None]

#: ``parent_id`` column value of a root span
_NO_PARENT = -1

#: every span kind ``src/`` records: a closed vocabulary, so a misspelt
#: kind is a lint finding, never a new span name (the
#: ``span-kind-registry`` rule checks every constant kind against it)
SPAN_KINDS = (
    # the update root + delay-update (AV) chain
    "update", "read", "av.checking", "av.selecting", "av.request",
    "av.grant", "av.deciding", "av.push.apply", "delay.apply",
    # reclassification (regular <-> non-regular migration)
    "cls.regular", "cls.nonregular", "cls.lock", "cls.apply",
    # AV rebalancing daemon
    "rebal.pass",
    # immediate update: 2PC + lock manager
    "imm.lock", "imm.prepare", "imm.commit", "imm.abort", "imm.apply",
    # replica synchronisation (lazy sync + eager propagation)
    "sync.pass", "sync.push", "prop.push", "prop.apply",
)

#: the spans of a covered update's tree, by span id from its root: the
#: update, the checking function's verdict, the apply and, under eager
#: propagation only, the push. All start and end at the same instant.
TREE_KINDS = ("update", "av.checking", "delay.apply", "prop.push")

#: how far a covered update's tree got before a step raised (see
#: :meth:`SpanRecorder.break_tree`): verdict written, apply open, apply
#: written, push open
TREE_CHECKED, TREE_APPLYING, TREE_APPLIED, TREE_PUSHING = range(4)

#: the last span id a tree's steps took, past its root, by step
_TREE_LAST = (1, 2, 2, 3)

#: ``av.checking``'s ``verdict`` in a tree: a covered update is routed
#: to Delay (``UpdateKind.DELAY.value``)
_TREE_VERDICT = ("delay",)

#: ``_shapes`` of a tree record: its index into ``_shape_keys`` holds
#: ``None``, never a shape key, so no row or pair can take it
_LAZY_TREE, _EAGER_TREE = 0, 1


#: the span pairs written as one record, by pair kind: the first span's
#: name, then the second's, whose id is the next one. The root pair is
#: an update that waits and its verdict; the round pair one AV round's
#: selecting and request, both children of the update; the grant pair a
#: grant and its deciding.
PAIR_KINDS = (
    ("update", "av.checking"),
    ("av.selecting", "av.request"),
    ("av.grant", "av.deciding"),
)
PAIR_ROOT, PAIR_ROUND, PAIR_GRANT = range(3)

#: attribute values a pair record holds, by pair kind (see
#: :func:`_pair_spans`)
_PAIR_WIDTH = (4, 3, 6)


def update_trace(site: str, request_id: int) -> str:
    """The trace id of the update ``request_id`` issued at ``site``."""
    return f"{site}:u{request_id}"


def _tree_spans(
    base: int, request_id: int, now: float, site: str, values: List[Any]
) -> List[Span]:
    """Expand one tree record (see :meth:`SpanRecorder.write_tree`)
    into its spans, in id order; ``values`` are its item, delta,
    outcome and, in an eager tree, push count."""
    trace = update_trace(site, request_id)
    update, checking, apply, push = TREE_KINDS
    item, delta, outcome = values[:3]
    spans = [
        Span(trace, base, None, update, site, now,
             {"item": item, "delta": delta, "outcome": outcome}),
        Span(trace, base + 1, base, checking, site, now,
             {"verdict": _TREE_VERDICT[0]}),
        Span(trace, base + 2, base, apply, site, now,
             {"item": item, "delta": delta}),
    ]
    if len(values) == 4:
        spans.append(Span(trace, base + 3, base, push, site, now,
                          {"item": item, "peers": values[3]}))
    for span in spans:
        span.end = now
    return spans


def _pair_spans(
    kind: int,
    base: int,
    parent_id: Optional[int],
    trace: str,
    site: str,
    start: float,
    end: Optional[float],
    key: Optional[str],
    values: List[Any],
) -> Tuple[Span, Span]:
    """Expand one span pair (see :meth:`SpanRecorder.open_pair`) into its
    spans, in id order. While the pair is open, ``end`` and ``key`` are
    ``None`` and ``values`` stop short of the closing value; the open
    span keeps ``start`` as given, as a handle would, and its finished
    partner reads it as a ``float``, as a row would.

    The values are, by kind: item, delta, verdict and the outcome (root
    pair); target, amount and the request's closing value (round pair);
    item, requester, granted, AV after, available and requested (grant
    pair). An empty ``trace`` means the spans started fresh traces."""
    first_name, second_name = PAIR_KINDS[kind]
    first_trace = trace or f"t{base}"
    instant = float(start)
    if kind == PAIR_ROOT:
        item, delta, verdict = values[:3]
        attrs = {"item": item, "delta": delta}
        if key is not None:
            attrs[key] = values[3]
        first = Span(first_trace, base, parent_id, first_name, site, start,
                     attrs)
        first.end = end
        second = Span(first_trace, base + 1, base, second_name, site,
                      instant, {"verdict": verdict})
        second.end = instant
        return first, second
    if kind == PAIR_ROUND:
        target, amount = values[:2]
        first = Span(first_trace, base, parent_id, first_name, site, instant,
                     {"target": target})
        first.end = instant
        attrs = {"target": target, "amount": amount}
        if key is not None:
            attrs[key] = values[2]
        second = Span(trace or f"t{base + 1}", base + 1, parent_id,
                      second_name, site, start, attrs)
        second.end = end
        return first, second
    item, requester, granted, after, available, requested = values
    first = Span(first_trace, base, parent_id, first_name, site, instant,
                 {"item": item, "requester": requester, "granted": granted,
                  "av_after": after})
    first.end = instant
    second = Span(first_trace, base + 1, base, second_name, site, instant,
                  {"available": available, "requested": requested,
                   "granted": granted})
    second.end = instant
    return first, second


def _link(parent: ParentLike, trace: Optional[str]):
    """``(parent_id, trace)`` of a span opened under ``parent``: a
    :class:`Span` or :data:`Row` parent lends its trace id when
    ``trace`` is omitted; a raw span id (cross-site context) does not."""
    if parent is None:
        return None, trace
    if isinstance(parent, tuple):
        parent_trace, parent_id, _ = parent
    elif isinstance(parent, Span):
        parent_trace, parent_id = parent.trace_id, parent.span_id
    else:
        return parent, trace
    if trace is None and parent_trace:
        trace = parent_trace
    return parent_id or None, trace


_span_id = attrgetter("span_id")


class SpanRecorder:
    """Collects spans; every view yields them in start (= span id) order,
    deterministic under a fixed seed.

    Storage model: an open span is a :class:`Span` handle (``start``
    returned it; held in ``_open``) or an open pair entry (see
    :meth:`open_pair`; held in ``_open_pairs``). A finished span is part
    of one record of flat columns — ``array`` ids, parents, start and
    end times, one string (shared with the caller, not copied), an index
    into a small table of shape keys, and the attribute values in one
    list — so it leaves no Python container behind. Three record kinds
    share the columns, told apart by their shape key:

    * a *row* is one span: its trace id is its string, and its shape key
      is ``(name, site, keys)``. One writer, :meth:`write_row`, appends
      every row: ``Span.finish`` packs a handle through it, and a span
      that never waits calls it directly (see :meth:`open_row`);
    * a *tree* is a covered update's whole span tree (:meth:`write_tree`):
      its root id, its request id in the parent column, its one instant,
      its site as its string, and its item, delta, outcome (and push
      count) as values;
    * a *pair* is two spans with consecutive ids (:data:`PAIR_KINDS`):
      the first id, the first span's parent, the pair's start and the
      end of the span that stayed open, the trace id (empty for a fresh
      trace) as its string, and shape key ``(pair kind, site, closing
      key)``.

    One reader expands all three. Readers rebuild finished spans on
    demand: no identity is promised for them (two reads give equal,
    distinct objects), times come back as ``float``, and attribute keys
    keep their order (``start`` keys, then ``finish`` keys; a repeated
    key keeps its first position and takes the last value). An open span
    comes back as its live handle, or, for an open pair, as a fresh
    unfinished :class:`Span` beside its finished partner.

    Parameters
    ----------
    max_spans:
        Optional cap; further ``start`` calls return :data:`NULL_SPAN`
        (``open_row`` calls :data:`NULL_ROW`) and are counted in
        :attr:`dropped`; :meth:`fingerprint` still covers that count.
    """

    enabled = True

    def __init__(self, max_spans: Optional[int] = None) -> None:
        self.max_spans = max_spans
        self.dropped = 0
        #: spans started (open + finished); also the last span id
        self._started = 0
        self._open: Dict[int, Span] = {}
        #: open pairs by the id of their open span: pair kind, first id,
        #: parent id, trace id ("" for a fresh trace), site, start, values
        self._open_pairs: Dict[int, tuple] = {}
        # finished spans, one record each, in finish order
        self._ids = array("q")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        #: trace id per row and pair; site per tree
        self._strings: List[str] = []
        self._shapes = array("H")
        #: shape index -> shape key; the tree shapes hold None
        self._shape_keys: List[Optional[tuple]] = [None, None]
        self._shape_index: Dict[tuple, int] = {}
        self._values: List[Any] = []

    # ---------------------------------------------------------------- #
    # recording
    # ---------------------------------------------------------------- #

    def start(
        self,
        name: str,
        site: str,
        now: float,
        trace: Optional[str] = None,
        parent: ParentLike = None,
        **attrs: Any,
    ) -> Span:
        """Open a span; the caller must ``finish()`` it.

        ``parent`` may be a :class:`Span` or a :data:`Row` (its trace id
        is inherited when ``trace`` is omitted), a raw span id
        (cross-site context — pass ``trace`` too), or
        ``None``/:data:`NULL_SPAN`/:data:`NULL_ROW` for a root. A root
        with no ``trace`` starts a fresh trace (id ``t<span_id>``).
        """
        trace, span_id, parent_id = self.open_row(parent, trace)
        if not span_id:
            return NULL_SPAN
        span = Span(
            trace, span_id, parent_id, name, site, now, attrs or None, self
        )
        self._open[span_id] = span
        return span

    def open_row(
        self, parent: ParentLike = None, trace: Optional[str] = None
    ) -> Row:
        """Open a span that needs no handle: one that closes before
        anything can suspend, so nothing outside the caller sees it open.

        Takes the span id :meth:`start` would take, with the same
        ``parent``/``trace`` rules and the same cap (past it, returns
        :data:`NULL_ROW` and counts a drop). The caller closes it with
        :meth:`write_row`, or with :meth:`keep_open` if its body raised.
        """
        if self.max_spans is not None and self._started >= self.max_spans:
            self.dropped += 1
            return NULL_ROW
        self._started = span_id = self._started + 1
        if parent is None:
            return (trace or f"t{span_id}"), span_id, None
        parent_id, trace = _link(parent, trace)
        return (trace or f"t{span_id}"), span_id, parent_id

    def write_row(
        self,
        row: Row,
        name: str,
        site: str,
        start: float,
        end: float,
        keys: Tuple[str, ...] = (),
        values: Iterable[Any] = (),
    ) -> None:
        """Append a finished span as one row: the one writer.

        ``keys`` are the attribute names in order (distinct; ``start``
        keys, then ``finish`` keys) and ``values`` theirs. A dropped
        row (:data:`NULL_ROW`) writes nothing.
        """
        trace, span_id, parent_id = row
        if not span_id:
            return
        self._ids.append(span_id)
        self._parents.append(_NO_PARENT if parent_id is None else parent_id)
        self._starts.append(start)
        self._ends.append(end)
        self._strings.append(trace)
        shape_key = (name, site, keys)
        shape = self._shape_index.get(shape_key)
        if shape is None:
            shape = self._new_shape(shape_key)
        self._shapes.append(shape)
        if keys:
            self._values += values

    def _new_shape(self, shape_key: tuple) -> int:
        """Add ``shape_key`` to the shape table; returns its index."""
        shape = self._shape_index[shape_key] = len(self._shape_keys)
        self._shape_keys.append(shape_key)
        if shape == 0x10000:  # past what a 16-bit column holds
            self._shapes = array("I", self._shapes)
        return shape

    def keep_open(
        self,
        row: Row,
        name: str,
        site: str,
        start: float,
        keys: Tuple[str, ...] = (),
        values: Iterable[Any] = (),
    ) -> None:
        """The body of an :meth:`open_row` span raised: keep the span
        open, with its ``start`` attributes, as the handle :meth:`start`
        returned would have stayed."""
        trace, span_id, parent_id = row
        if span_id:
            self._open[span_id] = Span(
                trace, span_id, parent_id, name, site, start,
                dict(zip(keys, values)) or None, self,
            )

    def open_pair(
        self,
        kind: int,
        site: str,
        now: float,
        values: Tuple[Any, ...],
        parent: ParentLike = None,
        trace: Optional[str] = None,
    ) -> Tuple[Row, Row]:
        """Open a span pair that stays open across a wait: the root pair
        (the update stays open, its verdict is finished) or the round
        pair (the selecting is finished, the request stays open).

        Takes the two ids :meth:`open_row` would take for them, back to
        back, with the same ``parent``/``trace`` rules; ``values`` are
        the pair's opening values (see :func:`_pair_spans`). No
        :class:`Span` is made: the open span is an entry that readers
        expand, and :meth:`close_pair` writes the pair as one record.
        Returns the two spans' rows. Where the cap falls between or
        before the ids, writes what :meth:`open_row` and
        :meth:`write_row` would have left instead: the update kept open
        as a handle, the selecting as a row, and a drop for each id cut.
        """
        started = self._started
        if self.max_spans is not None and started + 2 > self.max_spans:
            return self._cut_pair(kind, site, now, values, parent, trace)
        base = started + 1
        self._started = started + 2
        parent_id, trace = _link(parent, trace)
        first = (trace or f"t{base}", base, parent_id)
        if kind == PAIR_ROOT:  # the verdict hangs off the open update
            second = (first[0], base + 1, base)
            opened = base
        else:  # the open request is the selecting's sibling
            second = (trace or f"t{base + 1}", base + 1, parent_id)
            opened = base + 1
        self._open_pairs[opened] = (
            kind, base, parent_id, trace or "", site, now, values,
        )
        return first, second

    def _cut_pair(self, kind, site, now, values, parent, trace):
        """A pair the cap cuts: its spans as rows and handles, each id
        past the cap dropped. The second span never gets an id, so only
        the first is written: the update kept open, the selecting or
        the grant as a row."""
        first = self.open_row(parent, trace)
        second = self.open_row(parent if kind == PAIR_ROUND else first)
        name = PAIR_KINDS[kind][0]
        if kind == PAIR_ROOT:
            self.keep_open(first, name, site, now, ("item", "delta"),
                           values[:2])
        elif kind == PAIR_ROUND:
            self.write_row(first, name, site, now, now, ("target",),
                           values[:1])
        else:
            self.write_row(first, name, site, now, now,
                           ("item", "requester", "granted", "av_after"),
                           values[:4])
        return first, second

    def close_pair(self, row: Row, end: float, key: str, value: Any) -> None:
        """Close the open span of a pair :meth:`open_pair` opened at
        ``end``, adding ``key=value`` to its attributes (``outcome`` for
        the update; ``granted``, ``timeout`` or ``error`` for the
        request), and write the pair as one record. ``row`` is the open
        span's row: the update's, or the request's. A pair the cap cut
        closes its update handle, or nothing."""
        entry = self._open_pairs.pop(row[1], None)
        if entry is None:
            span = self._open.get(row[1])
            if span is not None:
                span.finish(end, **{key: value})
            return
        kind, base, parent_id, trace, site, start, values = entry
        self._append_pair(kind, base, parent_id, trace, site, start, end,
                          key, values)
        self._values.append(value)

    def write_pair(
        self,
        site: str,
        now: float,
        values: Tuple[Any, ...],
        parent: ParentLike = None,
        trace: Optional[str] = None,
    ) -> None:
        """Append a span pair that opens and closes at ``now`` — the
        grant pair — as one record, taking the two ids
        :meth:`open_row` would take for it, with the same
        ``parent``/``trace`` rules. ``values`` are the pair's values
        (see :func:`_pair_spans`). Where the cap cuts the pair, writes
        the grant as a row and drops what is past the cap."""
        started = self._started
        if self.max_spans is not None and started + 2 > self.max_spans:
            self._cut_pair(PAIR_GRANT, site, now, values, parent, trace)
            return
        self._started = started + 2
        parent_id, trace = _link(parent, trace)
        self._append_pair(PAIR_GRANT, started + 1, parent_id, trace or "",
                          site, now, now, None, values)

    def _append_pair(self, kind, base, parent_id, trace, site, start, end,
                     key, values) -> None:
        """Append one pair record (see :func:`_pair_spans`)."""
        self._ids.append(base)
        self._parents.append(_NO_PARENT if parent_id is None else parent_id)
        self._starts.append(start)
        self._ends.append(end)
        self._strings.append(trace)
        shape_key = (kind, site, key)
        shape = self._shape_index.get(shape_key)
        if shape is None:
            shape = self._new_shape(shape_key)
        self._shapes.append(shape)
        self._values += values

    def open_tree(self, push: bool) -> int:
        """Reserve a covered update's span ids at once, where
        :meth:`open_row` would take its root's: the root,
        ``av.checking``, ``delay.apply`` and, if ``push``, ``prop.push``
        (:data:`TREE_KINDS`). Returns the root's id, or 0 when the cap
        would cut the tree; the caller then writes it as rows, which
        drop where the cap falls.

        Nothing may open a span before the caller writes the tree
        (:meth:`write_tree`) or breaks it (:meth:`break_tree`).
        """
        started = self._started
        end = started + (4 if push else 3)
        if self.max_spans is not None and end > self.max_spans:
            return 0
        self._started = end
        return started + 1

    def write_tree(
        self,
        base: int,
        site: str,
        request_id: int,
        now: float,
        item: str,
        delta: float,
        outcome: str,
        pushed: Optional[int] = None,
    ) -> None:
        """Append the covered update tree :meth:`open_tree` reserved at
        ``base`` as one record. It reads back as the spans its rows
        would have been: trace :func:`update_trace`, every span at
        ``now``; the root carries ``item``, ``delta`` and ``outcome``,
        ``av.checking`` the Delay verdict, ``delay.apply`` the item and
        delta, and ``prop.push`` (only when ``pushed`` is given) the
        item and ``pushed`` as ``peers``."""
        self._ids.append(base)
        self._parents.append(request_id)
        self._starts.append(now)
        self._ends.append(now)
        self._strings.append(site)
        if pushed is None:
            self._shapes.append(_LAZY_TREE)
            self._values += (item, delta, outcome)
        else:
            self._shapes.append(_EAGER_TREE)
            self._values += (item, delta, outcome, pushed)

    def break_tree(
        self,
        base: int,
        step: int,
        trace: str,
        site: str,
        now: float,
        item: str,
        delta: float,
    ) -> None:
        """A step of the tree reserved at ``base`` raised after reaching
        ``step`` (``TREE_CHECKED`` … ``TREE_PUSHING``). Write what the
        tree's rows would have left: the spans closed so far as rows and
        the one in progress kept open, and give back the ids of the
        steps never reached. The root is left to the caller, as an
        :meth:`open_row` root would be."""
        self.write_row((trace, base + 1, base), "av.checking", site, now, now,
                       ("verdict",), _TREE_VERDICT)
        apply = (trace, base + 2, base)
        if step == TREE_APPLYING:
            self.keep_open(apply, "delay.apply", site, now,
                           ("item", "delta"), (item, delta))
        elif step != TREE_CHECKED:
            self.write_row(apply, "delay.apply", site, now, now,
                           ("item", "delta"), (item, delta))
        if step == TREE_PUSHING:
            self.keep_open((trace, base + 3, base), "prop.push", site, now,
                           ("item",), (item,))
        self._started = base + _TREE_LAST[step]

    def _pack(self, span: Span) -> None:
        """Move a just-finished span from ``_open`` into the columns."""
        del self._open[span.span_id]
        attrs = span.attrs
        self.write_row(
            (span.trace_id, span.span_id, span.parent_id), span.name,
            span.site, span.start, span.end,
            tuple(attrs) if attrs else (), attrs.values() if attrs else (),
        )

    # ---------------------------------------------------------------- #
    # views
    # ---------------------------------------------------------------- #

    def _finished(self) -> Iterator[Span]:
        """Rebuild the finished spans, record by record in finish order
        (a tree's or a pair's spans in id order)."""
        shape_keys, values = self._shape_keys, self._values
        at = 0
        records = zip(self._ids, self._parents, self._starts, self._ends,
                      self._shapes, self._strings)
        for span_id, parent_id, start, end, shape, text in records:
            shape_key = shape_keys[shape]
            if shape_key is None:
                n = 4 if shape == _EAGER_TREE else 3
                yield from _tree_spans(
                    span_id, parent_id, start, text, values[at:at + n]
                )
                at += n
                continue
            name, site, keys = shape_key
            parent = None if parent_id == _NO_PARENT else parent_id
            if name.__class__ is int:
                n = _PAIR_WIDTH[name]
                yield from _pair_spans(
                    name, span_id, parent, text, site, start, end, keys,
                    values[at:at + n],
                )
                at += n
                continue
            attrs = None
            if keys:
                attrs = dict(zip(keys, values[at:at + len(keys)]))
                at += len(keys)
            span = Span(text, span_id, parent, name, site, start, attrs)
            span.end = end
            yield span

    def by_trace(self, trace_id: str) -> List[Span]:
        return [s for s in self if s.trace_id == trace_id]

    def traces(self) -> Dict[str, List[Span]]:
        """All spans grouped by trace id (insertion-ordered)."""
        out: Dict[str, List[Span]] = {}
        for span in self:
            out.setdefault(span.trace_id, []).append(span)
        return out

    def roots(self) -> List[Span]:
        return [s for s in self if s.parent_id is None]

    def children(self, parent: Span) -> List[Span]:
        return [
            s for s in self
            if s.parent_id == parent.span_id and s.trace_id == parent.trace_id
        ]

    def names(self) -> Dict[str, int]:
        """Span count by name (summary tables)."""
        out: Dict[str, int] = {}
        for span in self:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def fingerprint(self) -> int:
        """Order-sensitive digest of the whole span tree.

        Covers trace/parent linkage, timing, attributes and the drop
        count; the determinism tests compare it across runs (same seed
        ⇒ same value). It hashes a
        canonical ``repr`` of each span with ``hashlib``, never
        ``hash()``, so the value is stable across processes too.
        """
        digest = hashlib.blake2b(digest_size=8)
        for s in self:
            attrs = tuple(sorted(s.attrs.items())) if s.attrs else ()
            key = (s.trace_id, s.span_id, s.parent_id, s.name, s.site,
                   s.start, s.end, attrs)
            digest.update(repr(key).encode() + b"\n")
        digest.update(repr(self.dropped).encode())
        return int.from_bytes(digest.digest(), "big")

    def __len__(self) -> int:
        return self._started

    def __iter__(self) -> Iterator[Span]:
        spans = list(self._finished())
        spans += self._open.values()
        for kind, base, parent_id, trace, site, start, values in (
            self._open_pairs.values()
        ):
            spans += _pair_spans(kind, base, parent_id, trace, site, start,
                                 None, None, values)
        spans.sort(key=_span_id)
        return iter(spans)

    def __repr__(self) -> str:
        return f"<SpanRecorder spans={len(self)} dropped={self.dropped}>"


class NullSpanRecorder(SpanRecorder):
    """A recorder that never records (the disabled fast path)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_spans=None)

    def start(self, name, site, now, trace=None, parent=None, **attrs):
        return NULL_SPAN

    def open_row(self, parent=None, trace=None):
        return NULL_ROW

    def open_tree(self, push):
        return 0

    def open_pair(self, kind, site, now, values, parent=None, trace=None):
        return NULL_ROW, NULL_ROW

    def write_pair(self, site, now, values, parent=None, trace=None):
        return None
