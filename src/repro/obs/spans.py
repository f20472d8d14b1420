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
expand into the spans its rows would have been.

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
#: ``None``, never a key tuple, so no row can take it
_LAZY_TREE, _EAGER_TREE = 1, 2


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


_span_id = attrgetter("span_id")


class SpanRecorder:
    """Collects spans; every view yields them in start (= span id) order,
    deterministic under a fixed seed.

    Storage model: only *open* spans are :class:`Span` objects, the live
    handles ``start`` returned, held in ``_open``. A finished span is one
    row of flat columns — ``array`` ids, parents, start and end times,
    the trace/name/site strings (shared with the caller, not copied), an
    index into a small table of attribute-key tuples, and the attribute
    values in one list — so it leaves no Python container behind. One
    writer, :meth:`write_row`, appends every row: ``Span.finish`` packs
    a handle through it, and a span that never waits calls it directly
    (see :meth:`open_row`). The columns hold one other record kind, a
    covered update's whole tree (:meth:`write_tree`): its root id, its
    request id in the parent column, its one instant, its site as the
    only string, a shape index marking it a tree, and its item, delta,
    outcome (and push count) as values. One reader expands both kinds.
    Readers rebuild finished spans on demand:
    no identity is promised for them (two reads give equal, distinct
    objects), times come back as ``float``, and attribute keys keep
    their order (``start`` keys, then ``finish`` keys; a repeated key
    keeps its first position and takes the last value). An open span
    comes back as its live handle.

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
        # finished spans, one row (or tree) each, in finish order
        self._ids = array("q")
        self._parents = array("q")
        self._starts = array("d")
        self._ends = array("d")
        #: trace id, name, site per row; site per tree
        self._strings: List[str] = []
        self._shapes = array("H")
        #: shape index -> attribute keys; shape 0 is "no attributes",
        #: and the tree shapes hold None
        self._shape_keys: List[Optional[Tuple[str, ...]]] = [(), None, None]
        self._shape_index: Dict[Tuple[str, ...], int] = {(): 0}
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
        # A Span or Row parent lends its trace id when ``trace`` is
        # omitted; a raw span id (cross-site context) does not.
        if parent is None:
            parent_id = None
        elif isinstance(parent, tuple):
            parent_trace, parent_id, _ = parent
            parent_id = parent_id or None
            if trace is None and parent_trace:
                trace = parent_trace
        elif isinstance(parent, Span):
            parent_id = parent.span_id or None
            if trace is None and parent.trace_id:
                trace = parent.trace_id
        else:
            parent_id = parent
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
        self._strings += (trace, name, site)
        if keys:
            shape = self._shape_index.get(keys)
            if shape is None:
                shape = self._shape_index[keys] = len(self._shape_keys)
                self._shape_keys.append(keys)
            self._shapes.append(shape)
            self._values += values
        else:
            self._shapes.append(0)

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
        (a tree's spans in id order)."""
        strings, shape_keys, values = self._strings, self._shape_keys, self._values
        at = text = 0
        records = zip(self._ids, self._parents, self._starts, self._ends,
                      self._shapes)
        for span_id, parent_id, start, end, shape in records:
            keys = shape_keys[shape]
            if keys is None:
                n = 4 if shape == _EAGER_TREE else 3
                yield from _tree_spans(
                    span_id, parent_id, start, strings[text],
                    values[at:at + n],
                )
                text += 1
                at += n
                continue
            attrs = None
            if keys:
                attrs = dict(zip(keys, values[at:at + len(keys)]))
                at += len(keys)
            span = Span(
                strings[text], span_id,
                None if parent_id == _NO_PARENT else parent_id,
                strings[text + 1], strings[text + 2], start, attrs,
            )
            text += 3
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
