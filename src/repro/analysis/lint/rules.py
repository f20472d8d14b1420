"""The repro lint rules.

Every rule guards a repo-wide convention the simulator's correctness
arguments lean on (see ``docs/analysis.md``):

* ``wall-clock`` / ``seeded-rng`` — determinism: sim/protocol code must
  take time from the simulation clock and randomness from named
  :class:`~repro.sim.rng.RngRegistry` streams, never from the host.
* ``unordered-iter`` — determinism: iterating a set directly makes event
  order depend on hash seeds; wrap in ``sorted(...)``.
* ``span-coverage`` — observability: public protocol entry points must
  route through the span recorder so sanitizer findings can always name
  a span.
* ``span-kind-registry`` — a closed span-name vocabulary: every span
  kind recorded in ``src/`` (started as a handle, written as a row, or
  named in a span tree's ``TREE_KINDS`` or a span pair's
  ``PAIR_KINDS``) must be declared in
  :data:`~repro.obs.spans.SPAN_KINDS`, so a misspelt kind can never
  quietly become a new span name.
* ``unbounded-queue`` — overload robustness: message-queue/backlog
  state in ``src/`` must grow under a budget. A surge workload turns
  any unbounded ``.append`` into silent memory growth and unbounded
  latency, which is exactly what the admission layer exists to
  prevent — so a queue-named attribute may only be appended to in a
  scope that also checks a budget, and ``deque()`` must be given a
  ``maxlen`` (or carry a justified suppression naming the external
  bound).

The old per-file ``message-handlers`` rule was retired in favour of the
whole-program registry checks in :mod:`repro.analysis.protoflow`
(``proto-missing-handler`` and friends), which resolve dynamic kinds the
per-file pass could not see.
"""

from __future__ import annotations

import ast
from typing import List, Set, Tuple

from repro.analysis.lint.visitor import FileContext, Rule, in_src


def dotted(expr: ast.AST) -> Tuple[str, ...]:
    """``a.b.c`` -> ``("a", "b", "c")``; unknown bases become ``""``."""
    parts: List[str] = []
    while isinstance(expr, ast.Attribute):
        parts.append(expr.attr)
        expr = expr.value
    parts.append(expr.id if isinstance(expr, ast.Name) else "")
    return tuple(reversed(parts))


class WallClockRule(Rule):
    """No host-clock reads in simulation/protocol source."""

    name = "wall-clock"
    nodes = (ast.Call,)
    BANNED: Set[Tuple[str, str]] = {
        ("time", "time"),
        ("time", "time_ns"),
        ("time", "monotonic"),
        ("time", "monotonic_ns"),
        ("time", "perf_counter"),
        ("time", "perf_counter_ns"),
        ("datetime", "now"),
        ("datetime", "utcnow"),
        ("date", "today"),
    }

    def applies_to(self, path: str) -> bool:
        return in_src(path)

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        name = dotted(node.func)
        if len(name) >= 2 and name[-2:] in self.BANNED:
            ctx.report(
                self.name, node,
                f"host clock read {'.'.join(name)}() — simulation code"
                " must use env.now",
            )


class SeededRngRule(Rule):
    """All randomness flows through RngRegistry streams."""

    name = "seeded-rng"
    nodes = (ast.Call,)

    def applies_to(self, path: str) -> bool:
        return in_src(path)

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        name = dotted(node.func)
        if name[-1] == "default_rng":
            ctx.report(
                self.name, node,
                "direct default_rng() construction — derive streams from"
                " RngRegistry so seeds stay centralised",
            )
        elif len(name) >= 2 and name[-2:] == ("random", "seed"):
            ctx.report(
                self.name, node,
                "global numpy seed mutation — use RngRegistry streams",
            )


class UnorderedIterRule(Rule):
    """No iteration directly over sets in deterministic paths."""

    name = "unordered-iter"
    nodes = (ast.For, ast.comprehension)

    def applies_to(self, path: str) -> bool:
        return in_src(path)

    @staticmethod
    def _unordered(expr: ast.AST) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        return (
            isinstance(expr, ast.Call)
            and isinstance(expr.func, ast.Name)
            and expr.func.id in ("set", "frozenset")
        )

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if self._unordered(node.iter):
            ctx.report(
                self.name, node.iter,
                "iteration over a set — order depends on hashing; wrap in"
                " sorted(...)",
            )


class SpanCoverageRule(Rule):
    """Public protocol entry points record causal spans.

    Applies to classes named ``*Protocol``: their ``execute``,
    ``make_*`` and ``handle_*`` methods must touch the span recorder
    (a ``*span*`` identifier or attribute, or ``.recorder``
    access) somewhere in their body. Pure-read handlers can opt out
    with ``# repro-lint: disable=span-coverage`` plus a justification.
    """

    name = "span-coverage"
    nodes = (ast.ClassDef,)

    def applies_to(self, path: str) -> bool:
        return in_src(path)

    @staticmethod
    def _is_entry_point(fn: ast.AST) -> bool:
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return False
        return (
            fn.name == "execute"
            or fn.name.startswith("make_")
            or fn.name.startswith("handle_")
        )

    @staticmethod
    def _touches_recorder(fn: ast.AST) -> bool:
        for node in ast.walk(fn):
            if isinstance(node, ast.Attribute):
                if node.attr == "recorder" or "span" in node.attr.lower():
                    return True
            elif isinstance(node, ast.Name) and "span" in node.id.lower():
                return True
        return False

    def check(self, node: ast.ClassDef, ctx: FileContext) -> None:
        if not node.name.endswith("Protocol"):
            return
        for fn in node.body:
            if not self._is_entry_point(fn):
                continue
            if self._touches_recorder(fn):
                continue
            ctx.report(
                self.name, fn,
                f"{node.name}.{fn.name} is a protocol entry point but"
                " never touches the span recorder",
            )


#: span-recorder calls that name a span kind: method -> index of the
#: kind among the positional arguments (a site argument follows it)
_SPAN_KIND_ARG = {"open_span": 0, "write_row": 1, "keep_open": 1}


#: module constants that declare the span kinds a record writer takes
#: (flat, or a tuple of pairs)
_KIND_TABLES = ("TREE_KINDS", "PAIR_KINDS")


def _flat_elts(node: ast.AST) -> List[ast.AST]:
    """The elements of a constant tuple or list, nested ones flattened."""
    if not isinstance(node, (ast.Tuple, ast.List)):
        return [node]
    return [leaf for elt in node.elts for leaf in _flat_elts(elt)]


class SpanKindRegistryRule(Rule):
    """Every span kind recorded in src/ is a registered span kind.

    Matches the span recorder's calls that name a kind —
    ``<expr>.open_span("kind", site, ...)`` for a span that waits, and
    ``<expr>.write_row(row, "kind", site, ...)`` /
    ``<expr>.keep_open(row, "kind", site, ...)`` for a row — and the
    kinds the tree and pair writers record,
    declared as the constant tuples ``TREE_KINDS = ("kind", ...)`` and
    ``PAIR_KINDS = (("kind", "kind"), ...)``, and requires each
    constant kind to appear in :data:`~repro.obs.spans.SPAN_KINDS`,
    the recorder's closed vocabulary. A call with no
    positional argument after the kind is ignored.
    """

    name = "span-kind-registry"
    nodes = (ast.Call, ast.Assign)

    def __init__(self) -> None:
        self._registry = None

    def _known_kinds(self) -> Set[str]:
        if self._registry is None:
            # Deferred import: the linter must not drag the recorder in
            # unless this rule actually fires on a recorder call.
            from repro.obs.spans import SPAN_KINDS

            self._registry = set(SPAN_KINDS)
        return self._registry

    def applies_to(self, path: str) -> bool:
        return in_src(path)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Assign):
            if any(isinstance(t, ast.Name) and t.id in _KIND_TABLES
                   for t in node.targets):
                for arg in _flat_elts(node.value):
                    self._check_kind(arg, arg, ctx)
            return
        if not isinstance(node.func, ast.Attribute):
            return
        at = _SPAN_KIND_ARG.get(node.func.attr)
        if at is None or len(node.args) < at + 2:
            return
        self._check_kind(node, node.args[at], ctx)

    def _check_kind(self, node: ast.AST, arg: ast.AST, ctx: FileContext) -> None:
        """Report ``node`` unless ``arg`` is a registered kind (or not a
        constant string)."""
        if not (isinstance(arg, ast.Constant) and isinstance(arg.value, str)):
            return
        kind = arg.value
        if kind in self._known_kinds():
            return
        ctx.report(
            self.name, node,
            f"span kind {kind!r} is not declared in"
            " repro.obs.spans.SPAN_KINDS — add it to the vocabulary"
            " if it is a new kind, or fix the spelling",
        )


class UnboundedQueueRule(Rule):
    """Queue/backlog growth in src/ must happen under a budget.

    Two patterns are flagged:

    * ``deque(...)`` constructed without a ``maxlen`` keyword;
    * ``.append(...)`` on an attribute whose name says *queue* —
      ``queue``, ``backlog``, ``pending``, ``inbox``, ``mailbox``,
      ``buffer`` — in a function scope that shows no budget evidence
      (no ``len(...)`` comparison and no ``budget``/``maxlen``/
      ``limit``/``bound`` identifier).

    The check is a heuristic, deliberately biased toward firing: a
    queue that really is bounded elsewhere (drained every step by the
    kernel, capped at admission by the overload layer) gets a
    ``# repro-lint: disable=unbounded-queue (why it is bounded)``
    suppression naming the external bound, which doubles as
    documentation at the growth site.
    """

    name = "unbounded-queue"
    nodes = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Call)

    QUEUE_WORDS = ("queue", "backlog", "pending", "inbox", "mailbox", "buffer")
    BUDGET_WORDS = ("budget", "maxlen", "limit", "bound")

    def applies_to(self, path: str) -> bool:
        return in_src(path)

    @staticmethod
    def _scope(fn: ast.AST):
        """Own-scope nodes of ``fn``: stop at nested defs/classes."""
        stack = list(ast.iter_child_nodes(fn))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ):
                continue
            stack.extend(ast.iter_child_nodes(node))

    @classmethod
    def _queue_append(cls, node: ast.AST) -> bool:
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        if node.func.attr != "append":
            return False
        target = dotted(node.func.value)[-1].lower()
        return any(word in target for word in cls.QUEUE_WORDS)

    @classmethod
    def _budget_evidence(cls, node: ast.AST) -> bool:
        if isinstance(node, ast.Compare):
            return any(
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Name)
                and sub.func.id == "len"
                for sub in ast.walk(node)
            )
        name = ""
        if isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.keyword):
            name = node.arg or ""
        return any(word in name.lower() for word in cls.BUDGET_WORDS)

    def check(self, node: ast.AST, ctx: FileContext) -> None:
        if isinstance(node, ast.Call):
            if dotted(node.func)[-1] != "deque":
                return
            if any(kw.arg == "maxlen" for kw in node.keywords):
                return
            ctx.report(
                self.name, node,
                "deque() without maxlen — give it a bound, or suppress"
                " with a justification naming the external budget",
            )
            return
        scope = list(self._scope(node))
        appends = [n for n in scope if self._queue_append(n)]
        if not appends:
            return
        if any(self._budget_evidence(n) for n in scope):
            return
        for call in appends:
            target = ".".join(dotted(call.func.value))
            ctx.report(
                self.name, call,
                f"append to {target!r} with no budget check in scope —"
                " a surge grows this without bound; gate it on a budget"
                " or suppress with the external bound named",
            )


def default_rules() -> List[Rule]:
    """Fresh instances of every repro lint rule."""
    return [
        WallClockRule(),
        SeededRngRule(),
        UnorderedIterRule(),
        SpanCoverageRule(),
        SpanKindRegistryRule(),
        UnboundedQueueRule(),
    ]
