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

Writers hold a span by its :data:`Row`, ``(trace_id, span_id,
parent_id)``, never by an object. A span that may wait is opened by
:meth:`SpanRecorder.open_span` and closed by
:meth:`SpanRecorder.close_span`; while it waits it is one entry in the
recorder's one open-span table. A span that opens and closes with no
``yield`` in between is not entered there at all:
:meth:`SpanRecorder.open_row` takes its id and
:meth:`SpanRecorder.write_row` writes it when it closes — the same row
``close_span`` writes. The covered update's whole tree
(:data:`TREE_KINDS`) never waits either: :meth:`SpanRecorder.open_tree`
reserves its ids at once and :meth:`SpanRecorder.write_tree` writes it
as one record, which readers expand into the spans its rows would have
been. Two spans that open back to back are one record too
(:data:`PAIR_KINDS`): an update that waits and its checking verdict,
each AV round's selecting and request, and a grant and its deciding
(:meth:`SpanRecorder.open_pair`, closed by ``close_span``, and
:meth:`SpanRecorder.write_pair`).

:class:`NullSpanRecorder` is the disabled implementation; every call
site tests ``recorder.enabled`` first, so an unobserved run makes no
recorder call at all.
"""

from __future__ import annotations

import hashlib
from array import array
from operator import attrgetter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union


class Span:
    """One timed interval of work, linked into a per-trace tree, as the
    recorder's readers rebuild it (``end`` is ``None`` while the span is
    open). Writers hold a span by its :data:`Row`."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "site",
                 "start", "end", "attrs")

    def __init__(
        self,
        trace_id: str,
        span_id: int,
        parent_id: Optional[int],
        name: str,
        site: str,
        start: float,
        end: Optional[float],
        attrs: Optional[Dict[str, Any]],
    ) -> None:
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.site = site
        self.start = start
        self.end = end
        self.attrs = attrs

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


#: how a writer holds a span, from :meth:`SpanRecorder.open_row` or
#: :meth:`SpanRecorder.open_span`: ``(trace_id, span_id, parent_id)``
Row = Tuple[str, int, Optional[int]]

#: the row of a span the cap dropped (or a disabled recorder's): as a
#: parent it means "no parent"
NULL_ROW: Row = ("", 0, None)

ParentLike = Union[Row, int, None]

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
        Span(trace, base, None, update, site, now, now,
             {"item": item, "delta": delta, "outcome": outcome}),
        Span(trace, base + 1, base, checking, site, now, now,
             {"verdict": _TREE_VERDICT[0]}),
        Span(trace, base + 2, base, apply, site, now, now,
             {"item": item, "delta": delta}),
    ]
    if len(values) == 4:
        spans.append(Span(trace, base + 3, base, push, site, now, now,
                          {"item": item, "peers": values[3]}))
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
    span keeps ``start`` as given, as any open span does, and its
    finished partner reads it as a ``float``, as a row would.

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
        return (
            Span(first_trace, base, parent_id, first_name, site, start, end,
                 attrs),
            Span(first_trace, base + 1, base, second_name, site, instant,
                 instant, {"verdict": verdict}),
        )
    if kind == PAIR_ROUND:
        target, amount = values[:2]
        attrs = {"target": target, "amount": amount}
        if key is not None:
            attrs[key] = values[2]
        return (
            Span(first_trace, base, parent_id, first_name, site, instant,
                 instant, {"target": target}),
            Span(trace or f"t{base + 1}", base + 1, parent_id, second_name,
                 site, start, end, attrs),
        )
    item, requester, granted, after, available, requested = values
    return (
        Span(first_trace, base, parent_id, first_name, site, instant, instant,
             {"item": item, "requester": requester, "granted": granted,
              "av_after": after}),
        Span(first_trace, base + 1, base, second_name, site, instant, instant,
             {"available": available, "requested": requested,
              "granted": granted}),
    )


def _link(parent: ParentLike, trace: Optional[str]):
    """``(parent_id, trace)`` of a span opened under ``parent``: a
    :data:`Row` parent lends its trace id when ``trace`` is omitted; a
    raw span id (cross-site context) does not."""
    if parent is None:
        return None, trace
    if parent.__class__ is not tuple:
        return parent, trace
    parent_trace, parent_id, _ = parent
    if trace is None and parent_trace:
        trace = parent_trace
    return parent_id or None, trace


_span_id = attrgetter("span_id")


class SpanRecorder:
    """Collects spans; every view yields them in start (= span id) order,
    deterministic under a fixed seed.

    Storage model: an open span is one entry in ``_open``, keyed by its
    span id: ``(name, site, start, trace, parent_id, keys, values)``,
    its opening attributes as names and values. An open pair's entry
    (see :meth:`open_pair`) is keyed by its open span's id and holds the
    pair kind as its name, an empty trace for a fresh trace, no keys and
    the pair's opening values. :meth:`open_span` opens an entry,
    :meth:`keep_open` leaves one for a span whose body raised, and
    :meth:`close_span` closes either kind. A finished span is part of
    one record of flat columns — ``array`` ids, parents, start and end
    times, one string (shared with the caller, not copied), an index
    into a small table of shape keys, and the attribute values in one
    list — so it leaves no Python container behind. Three record kinds
    share the columns, told apart by their shape key:

    * a *row* is one span: its trace id is its string, and its shape key
      is ``(name, site, keys)``. One writer, :meth:`write_row`, appends
      every row: :meth:`close_span` writes an open span through it, and
      a span that never waits calls it directly (see :meth:`open_row`);
    * a *tree* is a covered update's whole span tree (:meth:`write_tree`):
      its root id, its request id in the parent column, its one instant,
      its site as its string, and its item, delta, outcome (and push
      count) as values;
    * a *pair* is two spans with consecutive ids (:data:`PAIR_KINDS`):
      the first id, the first span's parent, the pair's start and the
      end of the span that stayed open, the trace id (empty for a fresh
      trace) as its string, and shape key ``(pair kind, site, closing
      key)``.

    One reader expands all three. Readers rebuild spans on demand: no
    identity is promised for them (two reads give equal, distinct
    objects), a finished span's times come back as ``float`` and an open
    span's start as given, and attribute keys keep their order (opening
    keys, then closing keys; a repeated key keeps its first position and
    takes the last value).

    Parameters
    ----------
    max_spans:
        Optional cap; further opens return :data:`NULL_ROW` and are
        counted in :attr:`dropped`; :meth:`fingerprint` still covers
        that count.
    """

    enabled = True

    def __init__(self, max_spans: Optional[int] = None) -> None:
        self.max_spans = max_spans
        self.dropped = 0
        #: spans started (open + finished); also the last span id
        self._started = 0
        #: open spans and pairs by span id (see the class docstring)
        self._open: Dict[int, tuple] = {}
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

    def open_span(
        self,
        name: str,
        site: str,
        now: float,
        keys: Tuple[str, ...] = (),
        values: Tuple[Any, ...] = (),
        parent: ParentLike = None,
        trace: Optional[str] = None,
    ) -> Row:
        """Open a span that may wait; :meth:`close_span` closes it.

        Takes its id as :meth:`open_row` does and keeps ``keys`` /
        ``values`` as its opening attributes. Returns its row (past the
        cap, :data:`NULL_ROW`). A body that raises before the close
        leaves the span open, which is what it was.
        """
        row = self.open_row(parent, trace)
        self.keep_open(row, name, site, now, keys, values)
        return row

    def open_row(
        self, parent: ParentLike = None, trace: Optional[str] = None
    ) -> Row:
        """Take the id of a span that closes before anything can
        suspend, so nothing outside the caller sees it open, and return
        its row; the caller closes it with :meth:`write_row`, or with
        :meth:`keep_open` if its body raised.

        ``parent`` may be a :data:`Row` (its trace id is inherited when
        ``trace`` is omitted), a raw span id (cross-site context — pass
        ``trace`` too), or ``None``/:data:`NULL_ROW` for a root. A root
        with no ``trace`` starts a fresh trace (id ``t<span_id>``). Past
        the cap, returns :data:`NULL_ROW` and counts a drop.
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

        ``keys`` are the attribute names in order (opening keys, then
        closing keys; readers keep a repeated key at its first position,
        with its last value) and ``values`` theirs. A dropped row
        (:data:`NULL_ROW`) writes nothing.
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
        values: Tuple[Any, ...] = (),
    ) -> None:
        """Keep the span of ``row`` open, with its opening attributes:
        :meth:`open_span`'s entry, or what the body of an
        :meth:`open_row` span leaves when it raises."""
        trace, span_id, parent_id = row
        if span_id:
            self._open[span_id] = (name, site, start, trace, parent_id,
                                   keys, values)

    def close_span(
        self,
        row: Row,
        end: float,
        keys: Tuple[str, ...] = (),
        values: Tuple[Any, ...] = (),
    ) -> None:
        """Close the open span of ``row`` at ``end``, adding ``keys`` /
        ``values`` to its attributes, and write it: a span as the row
        :meth:`write_row` writes, the open span of a pair (the update's
        or the request's row, closed by one key: ``outcome``, or
        ``granted``, ``timeout`` or ``error``) as the pair's one record.
        A row the cap dropped closes nothing."""
        span_id = row[1]
        entry = self._open.pop(span_id, None)
        if entry is None:
            return
        name, site, start, trace, parent_id, opened, held = entry
        if name.__class__ is int:
            self._append_pair(name, span_id - (name == PAIR_ROUND),
                              parent_id, trace, site, start, end, keys[0],
                              held)
            self._values += values
            return
        self.write_row((trace, span_id, parent_id), name, site, start, end,
                       opened + keys, (*held, *values))

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
        the pair's opening values (see :func:`_pair_spans`). The open
        span is one entry that readers expand into both spans, and
        :meth:`close_span` writes the pair as one record. Returns the
        two spans' rows. Where the cap falls between or before the ids,
        writes what :meth:`open_row` and :meth:`write_row` would have
        left instead: the update kept open as a span, the selecting as a
        row, and a drop for each id cut.
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
        self._open[opened] = (kind, site, now, trace or "", parent_id, (),
                              values)
        return first, second

    def _cut_pair(self, kind, site, now, values, parent, trace):
        """A pair the cap cuts: its spans as rows and open spans, each id
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
            yield Span(text, span_id, parent, name, site, start, end, attrs)

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
        for span_id, entry in self._open.items():
            name, site, start, trace, parent_id, keys, values = entry
            if name.__class__ is int:
                spans += _pair_spans(name, span_id - (name == PAIR_ROUND),
                                     parent_id, trace, site, start, None,
                                     None, values)
            else:
                spans.append(Span(trace, span_id, parent_id, name, site,
                                  start, None, dict(zip(keys, values)) or None))
        spans.sort(key=_span_id)
        return iter(spans)

    def __repr__(self) -> str:
        return f"<SpanRecorder spans={len(self)} dropped={self.dropped}>"


class _NullHandle:
    """What :meth:`NullSpanRecorder.start` returns."""

    __slots__ = ()

    def finish(self, now: float, **attrs: Any) -> "_NullHandle":
        return self


_NULL_HANDLE = _NullHandle()


class NullSpanRecorder(SpanRecorder):
    """A recorder that never records (the disabled fast path)."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(max_spans=None)

    def start(self, name, site, now, trace=None, parent=None, **attrs):
        """A no-op handle: ``src/`` opens spans with :meth:`open_span`
        and never calls this. It is kept for the e2e benchmark's
        ``probe.obs_null_span_ns``, which times ``start(...).finish(...)``
        on the disabled hub."""
        return _NULL_HANDLE

    def open_row(self, parent=None, trace=None):
        return NULL_ROW

    def open_tree(self, push):
        return 0

    def open_pair(self, kind, site, now, values, parent=None, trace=None):
        return NULL_ROW, NULL_ROW

    def write_pair(self, site, now, values, parent=None, trace=None):
        return None
