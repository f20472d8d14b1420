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
parent_id)``, never by an object: a span that may wait is one entry in
the recorder's open-span table from :meth:`SpanRecorder.open_span` to
:meth:`SpanRecorder.close_span`; one that never waits takes its id from
:meth:`SpanRecorder.open_row` and is written by
:meth:`SpanRecorder.write_row`. A covered update's whole tree
(:data:`TREE_KINDS`) is one record, and so are two spans that open back
to back (:data:`PAIR_KINDS`). A finished record keeps no Python object
of its own (see :class:`SpanRecorder`).

:class:`NullSpanRecorder` is the disabled implementation; every call
site tests ``recorder.enabled`` first, so an unobserved run makes no
recorder call at all.
"""

from __future__ import annotations

import hashlib
from array import array
from operator import attrgetter
from struct import error as StructError, pack
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple, Union


class Span:
    """One timed interval of work, linked into a per-trace tree, as the
    recorder's readers rebuild it (``end`` is ``None`` while the span is
    open). Writers hold a span by its :data:`Row`."""

    __slots__ = ("trace_id", "span_id", "parent_id", "name", "site",
                 "start", "end", "attrs")

    def __init__(self, trace_id: str, span_id: int, parent_id: Optional[int],
                 name: str, site: str, start: float, end: Optional[float],
                 attrs: Optional[Dict[str, Any]]) -> None:
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

#: a disabled recorder's row: as a parent it means "no parent"
NULL_ROW: Row = ("", 0, None)

ParentLike = Union[Row, int, None]

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

#: a tree record's form in its shape key (a row's is its span name, a
#: pair's its pair kind)
_TREE = -1

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


def update_trace(site: str, request_id: int) -> str:
    """The trace id of the update ``request_id`` issued at ``site``."""
    return f"{site}:u{request_id}"


def _tree_spans(base: int, trace: str, now: float, site: str,
                values: List[Any]) -> List[Span]:
    """Expand one tree record (see :meth:`SpanRecorder.write_tree`)
    into its spans, in id order; ``values`` are its item, delta,
    outcome and, in an eager tree, push count."""
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


def _pair_spans(kind: int, base: int, parent_id: Optional[int],
                trace: Optional[str], site: str, start: float,
                end: Optional[float], key: Optional[str],
                values: List[Any]) -> Tuple[Span, Span]:
    """Expand one span pair (see :meth:`SpanRecorder.open_pair`) into its
    spans, in id order. While the pair is open, ``end`` and ``key`` are
    ``None`` and ``values`` stop short of the closing value; the open
    span keeps ``start`` as given, and its finished partner reads it as
    a ``float``, as a row would. The values are, by kind: item, delta,
    verdict and the outcome (root pair); target, amount and the
    request's closing value (round pair); item, requester, granted, AV
    after, available and requested (grant pair). No ``trace`` means the
    spans started fresh traces."""
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


def _trace_code(trace: str) -> tuple:
    """A trace id as a record keeps it: ``(prefix, number)`` when it ends
    in a decimal number (``site1:u42`` -> ``("site1:u", 42)``, read back
    as ``f"{prefix}{number}"``), else ``((trace,), None)``."""
    prefix = trace.rstrip("0123456789")
    digits = trace[len(prefix):]
    if 0 < len(digits) < 19 and (digits[0] != "0" or digits == "0"):
        return prefix, int(digits)
    return (trace,), None


_FRESH = (None, None)  # the trace code of a fresh pair

_span_id = attrgetter("span_id")

#: doubles the staging buffer holds before the recorder packs it into
#: its columns; every record stages one at least, so this also bounds
#: the records a run holds unpacked
STAGE_FLOATS = 256

#: the layout slot of a ``True`` closing value (a timeout or an error)
_TRUE = (bool, True)

#: the attributes of an ``av.selecting`` row whose function found nobody
_TARGET, _NO_TARGET = ("target",), ("<none>",)


class SpanRecorder:
    """Collects spans; every view yields them in start (= span id) order,
    deterministic under a fixed seed.

    Storage model: an open span is one entry in ``_open``, keyed by its
    span id: ``(name, site, start, trace, parent_id, keys, values,
    code)``, with its opening attributes and trace code (see
    :func:`_trace_code`); an open pair's holds its kind as its name,
    ``None`` as its trace for a fresh trace, and its opening values.

    A finished record (a *row*, one span; a *tree*, :meth:`write_tree`;
    a *pair*, :meth:`open_pair` / :meth:`write_pair`) keeps no Python
    object of its own. Its ints (one ``array``, 32-bit, widened to 64)
    are its shape index, first span id, parent id if any and the number
    its trace id ends in, if any. Its doubles (another) are its start,
    its end unless it ends at its start, and its ``float`` values. The
    rest is its *shape key*, kept once: ``(form, site, keys, trace
    prefix, has a parent, one time, *layout)``; the form is a span name,
    a pair kind or :data:`_TREE`, and a layout slot is ``float``, a
    string itself, or ``(type, value)`` (an int, a bool, ``None``). A
    span that shares its open parent's trace reuses the parent's code.

    The writers of the records a run writes most (a lazy tree, a
    closing root or round pair, a grant, an ``av.selecting`` row with no
    target) find their shape in a memo keyed by what varies from record
    to record, and append their ints and doubles to a staging buffer
    (at most :data:`STAGE_FLOATS` doubles). The buffer is packed into
    the columns in bulk, the ints of a chunk widened all or nothing,
    before every read; other records take the general path, which loops
    over their values to build the shape key.

    One reader expands all three. Readers rebuild spans on demand: no
    identity is promised for them (two reads give equal, distinct
    objects), a finished span's times come back as ``float`` and an open
    span's start as given, and attribute keys keep their order (opening
    keys, then closing keys; a repeated key keeps its first position and
    takes the last value). A value that is not a ``float`` must be
    hashable.
    """

    enabled = True

    def __init__(self) -> None:
        #: spans started (open + finished); also the last span id
        self._started = 0
        #: open spans and pairs by span id (see the class docstring)
        self._open: Dict[int, tuple] = {}
        # finished records in finish order: the packed columns, then
        # the staging buffer not yet packed into them
        self._int_column = array("i")
        self._float_column = array("d")
        self._stage_ints: List[int] = []
        self._stage_floats: List[float] = []
        #: shape index -> shape key, and back
        self._shape_keys: List[tuple] = []
        self._shape_index: Dict[tuple, int] = {}
        #: an update's trace prefix by site: ``site:u``
        self._update_prefix: Dict[str, str] = {}
        #: shape index by what varies: a lazy tree's by (site, item,
        #: outcome); a closing pair's by (kind, site, trace prefix,
        #: closing key, opening strs, closing slot, linked, instant); a
        #: grant's by (site, trace prefix, item, requester); a row with
        #: no target's by (site, trace prefix)
        self._trees: Dict[tuple, int] = {}
        self._closes: Dict[tuple, int] = {}
        self._grants: Dict[tuple, int] = {}
        self._no_targets: Dict[tuple, int] = {}

    # ---------------------------------------------------------------- #
    # recording
    # ---------------------------------------------------------------- #

    def open_span(self, name: str, site: str, now: float,
                  keys: Tuple[str, ...] = (), values: Tuple[Any, ...] = (),
                  parent: ParentLike = None,
                  trace: Optional[str] = None) -> Row:
        """Open a span that may wait; :meth:`close_span` closes it.

        Takes its id as :meth:`open_row` does and keeps ``keys`` /
        ``values`` as its opening attributes. Returns its row. A body
        that raises before the close leaves the span open, which is what
        it was.
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
        with no ``trace`` starts a fresh trace (id ``t<span_id>``).
        """
        self._started = span_id = self._started + 1
        if parent is None:
            return (trace or f"t{span_id}"), span_id, None
        parent_id, trace = _link(parent, trace)
        return (trace or f"t{span_id}"), span_id, parent_id

    def write_row(self, row: Row, name: str, site: str, start: float,
                  end: float, keys: Tuple[str, ...] = (),
                  values: Iterable[Any] = ()) -> None:
        """Append a finished span as one row.

        ``keys`` are the attribute names in order (opening keys, then
        closing keys; readers keep a repeated key at its first position,
        with its last value) and ``values`` theirs. :data:`NULL_ROW`
        writes nothing.
        """
        trace, span_id, parent_id = row
        if span_id:
            self._append(name, site, keys, values, trace, span_id, parent_id,
                         start, end)

    def _code(self, trace: str, parent_id: Optional[int]) -> tuple:
        """The trace code of ``trace``: its open parent's if it is that
        span's trace, else :func:`_trace_code`'s."""
        entry = self._open.get(parent_id)
        if entry is not None and entry[3] is trace:
            return entry[7]
        return _trace_code(trace)

    def _update_code(self, site: str, request_id: int) -> tuple:
        """The trace code of ``update_trace(site, request_id)``."""
        prefix = self._update_prefix.get(site)
        if prefix is None:
            prefix = self._update_prefix[site] = update_trace(site, "")
        return prefix, request_id

    def _append(self, form, site, keys, values, trace, first, parent_id,
                start, end) -> None:
        """Stage one record by the general path (see the class
        docstring). ``trace`` is its trace id, ``None`` for a fresh
        pair, or its trace code."""
        if trace is None:
            prefix = number = None
        elif trace.__class__ is tuple:
            prefix, number = trace
        else:
            prefix, number = self._code(trace, parent_id)
        instant = start is end
        floats = [start] if instant else [start, end]
        shape_key = [form, site, keys, prefix, parent_id is not None, instant]
        for value in values:
            cls = value.__class__
            if cls is float:
                floats.append(value)
                shape_key.append(float)
            elif cls is str:
                shape_key.append(value)
            else:
                shape_key.append((cls, value))
        ints = [self._shape(tuple(shape_key)), first]
        if parent_id is not None:
            ints.append(parent_id)
        if number is not None:
            ints.append(number)
        self._stage_ints += ints
        stage = self._stage_floats
        stage += floats
        if len(stage) >= STAGE_FLOATS:
            self._flush()

    def _shape(self, shape_key: tuple) -> int:
        """The index of ``shape_key`` in the shape table, added if new."""
        shape = self._shape_index.get(shape_key)
        if shape is None:
            shape = self._shape_index[shape_key] = len(self._shape_keys)
            self._shape_keys.append(shape_key)
        return shape

    def _flush(self) -> None:
        """Pack the staging buffer into the columns: its ints all or
        nothing, widening the int column to 64 bits when 32 do not hold
        them. (``struct`` converts a value faster than ``fromlist``.)"""
        ints, floats = self._stage_ints, self._stage_floats
        column = self._int_column
        try:
            packed = pack(f"{len(ints)}{column.typecode}", *ints)
        except StructError:  # past what a 32-bit column holds
            column = self._int_column = array("q", column)
            packed = pack(f"{len(ints)}q", *ints)
        column.frombytes(packed)
        self._float_column.frombytes(pack(f"{len(floats)}d", *floats))
        ints.clear()
        floats.clear()

    @property
    def _ints(self) -> array:
        """The int column, the staging buffer packed into it."""
        self._flush()
        return self._int_column

    def keep_open(self, row: Row, name: str, site: str, start: float,
                  keys: Tuple[str, ...] = (),
                  values: Tuple[Any, ...] = ()) -> None:
        """Keep the span of ``row`` open, with its opening attributes:
        :meth:`open_span`'s entry, or what the body of an
        :meth:`open_row` span leaves when it raises."""
        trace, span_id, parent_id = row
        if span_id:
            self._open[span_id] = (name, site, start, trace, parent_id,
                                   keys, values, self._code(trace, parent_id))

    def close_span(self, row: Row, end: float, keys: Tuple[str, ...] = (),
                   values: Tuple[Any, ...] = ()) -> None:
        """Close the open span of ``row`` at ``end``, adding ``keys`` /
        ``values`` to its attributes, and write it as a row, or, for a
        pair's open span (closed by one key: ``outcome``, ``granted``,
        ``timeout`` or ``error``), as the pair's record. :data:`NULL_ROW`
        closes nothing."""
        span_id = row[1]
        entry = self._open.pop(span_id, None)
        if entry is None:
            return
        name, site, start, _, parent_id, opened, held, code = entry
        if name.__class__ is not int:
            self._append(name, site, opened + keys, (*held, *values), code,
                         span_id, parent_id, start, end)
            return
        value = values[0]
        prefix, number = code
        instant = start is end
        if name == PAIR_ROOT:  # item, delta, verdict; the outcome
            first = span_id
            item, delta, verdict = held
            if (number is not None and delta.__class__ is float
                    and str is item.__class__ is verdict.__class__
                    is value.__class__):
                memo = (name, site, prefix, keys[0], item, verdict, value,
                        parent_id is None, instant)
                shape = self._closes.get(memo)
                if shape is None:
                    shape = self._closes[memo] = self._shape((
                        name, site, keys[0], prefix, parent_id is not None,
                        instant, item, float, verdict, value))
                floats = (start, delta) if instant else (start, end, delta)
            else:
                shape = None
        else:  # target, amount; the closing value
            first = span_id - 1
            item, delta = held
            cls = value.__class__
            slot = float if cls is float else _TRUE if value is True else None
            if (number is not None and slot is not None
                    and item.__class__ is str and delta.__class__ is float):
                memo = (name, site, prefix, keys[0], item, slot,
                        parent_id is None, instant)
                shape = self._closes.get(memo)
                if shape is None:
                    shape = self._closes[memo] = self._shape((
                        name, site, keys[0], prefix, parent_id is not None,
                        instant, item, float, slot))
                if slot is float:
                    floats = ((start, delta, value) if instant
                              else (start, end, delta, value))
                else:
                    floats = (start, delta) if instant else (start, end, delta)
            else:
                shape = None
        if shape is None:
            self._append(name, site, keys[0], (*held, value), code, first,
                         parent_id, start, end)
            return
        if parent_id is None:
            self._stage_ints += (shape, first, number)
        else:
            self._stage_ints += (shape, first, parent_id, number)
        stage = self._stage_floats
        stage += floats
        if len(stage) >= STAGE_FLOATS:
            self._flush()

    def open_pair(self, kind: int, site: str, now: float,
                  values: Tuple[Any, ...], parent: ParentLike = None,
                  trace: Optional[str] = None,
                  request: Optional[int] = None) -> Tuple[Row, Row]:
        """Open a span pair that stays open across a wait: the root pair
        (the update stays open, its verdict is finished) or the round
        pair (the selecting is finished, the request stays open), and
        return the two spans' rows.

        Takes the two ids :meth:`open_row` would take, with its
        ``parent``/``trace`` rules; given its update's ``request`` id, a
        root pair's trace is :func:`update_trace` ``(site, request)``.
        ``values`` are the opening values (see :func:`_pair_spans`); the
        open span is one entry, and :meth:`close_span` writes the pair
        as one record."""
        base = self._started + 1
        self._started = base + 1
        if parent is None:
            parent_id = None
        elif parent.__class__ is tuple:  # _link(parent, trace), inline
            parent_trace, parent_id, _ = parent
            parent_id = parent_id or None
            if trace is None and parent_trace:
                trace = parent_trace
        else:
            parent_id = parent
        if request is not None:
            prefix = self._update_prefix.get(site)
            if prefix is None:
                prefix = self._update_prefix[site] = update_trace(site, "")
            code = prefix, request
            trace = f"{prefix}{request}"
        elif trace:
            entry = self._open.get(parent_id)
            code = (entry[7] if entry is not None and entry[3] is trace
                    else _trace_code(trace))
        else:
            code = _FRESH
        if kind == PAIR_ROOT:  # the verdict hangs off the open update
            first = (trace or f"t{base}", base, parent_id)
            self._open[base] = (kind, site, now, trace or None, parent_id, (),
                                values, code)
            return first, (first[0], base + 1, base)
        # the open request is the selecting's sibling
        self._open[base + 1] = (kind, site, now, trace or None, parent_id, (),
                                values, code)
        if trace:
            return (trace, base, parent_id), (trace, base + 1, parent_id)
        return (f"t{base}", base, parent_id), (f"t{base + 1}", base + 1,
                                               parent_id)

    def write_pair(self, site: str, now: float, values: Tuple[Any, ...],
                   parent: ParentLike = None,
                   trace: Optional[str] = None) -> None:
        """Append the grant pair, which opens and closes at ``now``, as
        one record, taking the two ids :meth:`open_row` would take, with
        its ``parent``/``trace`` rules (values: see :func:`_pair_spans`)."""
        started = self._started
        self._started = started + 2
        if parent.__class__ is tuple:
            parent_id, trace = _link(parent, trace)
        else:  # a raw span id (cross-site context) or no parent
            parent_id = parent
        entry = self._open.get(parent_id)
        item, requester, granted, after, available, requested = values
        if (entry is not None and entry[3] is trace
                and str is item.__class__ is requester.__class__
                and float is granted.__class__ is after.__class__
                is available.__class__ is requested.__class__):
            prefix, number = entry[7]
            if number is not None:
                memo = (site, prefix, item, requester)
                shape = self._grants.get(memo)
                if shape is None:
                    shape = self._grants[memo] = self._shape((
                        PAIR_GRANT, site, None, prefix, True, True, item,
                        requester, float, float, float, float))
                self._stage_ints += (shape, started + 1, parent_id, number)
                stage = self._stage_floats
                stage += (now, granted, after, available, requested)
                if len(stage) >= STAGE_FLOATS:
                    self._flush()
                return
        self._append(PAIR_GRANT, site, None, values, trace or None,
                     started + 1, parent_id, now, now)

    def write_no_target(self, parent: ParentLike, site: str,
                        now: float) -> None:
        """Append the ``av.selecting`` row of a selecting function that
        found nobody to ask (target ``<none>``), opening and closing at
        ``now``, taking the id :meth:`open_row` would take, with its
        ``parent`` rule."""
        self._started = span_id = self._started + 1
        if parent.__class__ is tuple:  # _link(parent, None), inline
            trace, parent_id, _ = parent
            parent_id = parent_id or None
        else:
            parent_id, trace = parent, None
        entry = self._open.get(parent_id)
        if trace and entry is not None and entry[3] is trace:
            prefix, number = entry[7]
            if number is not None:
                shape = self._no_targets.get((site, prefix))
                if shape is None:
                    shape = self._no_targets[site, prefix] = self._shape((
                        "av.selecting", site, _TARGET, prefix, True, True,
                        _NO_TARGET[0]))
                self._stage_ints += (shape, span_id, parent_id, number)
                stage = self._stage_floats
                stage.append(now)
                if len(stage) >= STAGE_FLOATS:
                    self._flush()
                return
        self._append("av.selecting", site, _TARGET, _NO_TARGET,
                     trace or f"t{span_id}", span_id, parent_id, now, now)

    def open_tree(self, push: bool) -> int:
        """Reserve a covered update's span ids at once, where
        :meth:`open_row` would take its root's: the root,
        ``av.checking``, ``delay.apply`` and, if ``push``, ``prop.push``
        (:data:`TREE_KINDS`). Returns the root's id.

        Nothing may open a span before the caller writes the tree
        (:meth:`write_tree`) or breaks it (:meth:`break_tree`).
        """
        started = self._started
        self._started = started + (4 if push else 3)
        return started + 1

    def write_tree(self, base: int, site: str, request_id: int, now: float,
                   item: str, delta: float, outcome: str,
                   pushed: Optional[int] = None) -> None:
        """Append a covered update's tree as one record, read back as
        its rows: trace :func:`update_trace`, every span at ``now``; the
        root carries ``item``, ``delta`` and ``outcome``,
        ``av.checking`` the Delay verdict, ``delay.apply`` the item and
        delta, and ``prop.push`` (if ``pushed`` is given) the item and
        ``pushed`` as ``peers``. Its ids are those :meth:`open_tree`
        reserved at ``base``, or, with ``base`` 0, taken now, as
        :meth:`open_tree` would have."""
        if not base:
            base = self._started + 1
            self._started = base + (2 if pushed is None else 3)
        if (pushed is None and delta.__class__ is float
                and str is item.__class__ is outcome.__class__):
            shape = self._trees.get((site, item, outcome))
            if shape is None:
                shape = self._trees[site, item, outcome] = self._shape(
                    (_TREE, site, None, self._update_code(site, 0)[0], False,
                     True, item, float, outcome))
            self._stage_ints += (shape, base, request_id)
            stage = self._stage_floats
            stage += (now, delta)
            if len(stage) >= STAGE_FLOATS:
                self._flush()
        else:
            values = (item, delta, outcome)
            if pushed is not None:
                values += (pushed,)
            self._append(_TREE, site, None, values,
                         self._update_code(site, request_id), base, None,
                         now, now)

    def break_tree(self, base: int, step: int, trace: str, site: str,
                   now: float, item: str, delta: float) -> int:
        """A step of the tree reserved at ``base`` (0: whose ids were
        not taken yet) raised after reaching ``step`` (``TREE_CHECKED``
        … ``TREE_PUSHING``). Write what the tree's rows would have left:
        the spans closed so far as rows and the one in progress kept
        open, and give back the ids of the steps never reached. The root
        is left to the caller, as an :meth:`open_row` root would be;
        returns its id."""
        if not base:
            base = self._started + 1
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
        return base

    # ---------------------------------------------------------------- #
    # views
    # ---------------------------------------------------------------- #

    def _finished(self) -> Iterator[Span]:
        """Rebuild the finished spans, record by record in finish order
        (a tree's or a pair's spans in id order)."""
        self._flush()
        shape_keys = self._shape_keys
        ints, floats = self._int_column, self._float_column
        i = f = 0
        while i < len(ints):
            shape_key = shape_keys[ints[i]]
            form, site, keys, trace, linked, instant = shape_key[:6]
            span_id = ints[i + 1]
            parent_id = ints[i + 2] if linked else None
            i += 2 + linked
            if trace.__class__ is str:
                trace = f"{trace}{ints[i]}"
                i += 1
            elif trace is not None:
                trace = trace[0]
            start = floats[f]
            end = start if instant else floats[f + 1]
            f += 2 - instant
            values = []
            for slot in shape_key[6:]:
                if slot is float:
                    values.append(floats[f])
                    f += 1
                else:
                    values.append(slot if slot.__class__ is str else slot[1])
            if form.__class__ is str:
                yield Span(trace, span_id, parent_id, form, site, start, end,
                           dict(zip(keys, values)) if keys else None)
            elif form == _TREE:
                yield from _tree_spans(span_id, trace, start, site, values)
            else:
                yield from _pair_spans(form, span_id, parent_id, trace, site,
                                       start, end, keys, values)

    def records(self) -> int:
        """Finished records in the store: a row, a tree or a pair each
        (see the class docstring)."""
        self._flush()
        widths = [2 + key[4] + (key[3].__class__ is str)
                  for key in self._shape_keys]
        ints = self._int_column
        i = count = 0
        while i < len(ints):
            i += widths[ints[i]]
            count += 1
        return count

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

        Covers trace/parent linkage, timing and attributes; the
        determinism tests compare it across runs (same seed
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
        # Where a removed span cap's drop count (0 for every run) was
        # hashed: the constant keeps every pinned fingerprint valid.
        digest.update(b"0")
        return int.from_bytes(digest.digest(), "big")

    def __len__(self) -> int:
        return self._started

    def __iter__(self) -> Iterator[Span]:
        spans = list(self._finished())
        for span_id, entry in self._open.items():
            name, site, start, trace, parent_id, keys, values, _ = entry
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
        return f"<SpanRecorder spans={len(self)}>"


class _NullHandle:
    """What :meth:`NullSpanRecorder.start` returns."""

    __slots__ = ()

    def finish(self, now: float, **attrs: Any) -> "_NullHandle":
        return self


_NULL_HANDLE = _NullHandle()


class NullSpanRecorder(SpanRecorder):
    """A recorder that never records (the disabled fast path)."""

    enabled = False

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

    def open_pair(self, kind, site, now, values, parent=None, trace=None,
                  request=None):
        return NULL_ROW, NULL_ROW

    def write_pair(self, site, now, values, parent=None, trace=None):
        return None

    def write_no_target(self, parent, site, now):
        return None
