"""Perf gate for the consolidated static suite.

PR 7 moved the lint rules onto the shared protoflow engine so that lint
plus all five protocol-flow checks are ONE parse of the tree, and
retired the per-file ``message-handlers`` rule in favour of the
registry checks. The deal only holds if the combined pass is not slower
than the old standalone lint:

* **baseline** — the pre-consolidation suite: the per-file
  :class:`~repro.analysis.lint.visitor.Linter` running today's rules
  plus a faithful reimplementation of the retired ``message-handlers``
  rule (which applied to *every* file, so the old lint walked the full
  ``tests/`` tree as well);
* **candidate** — ``index_project`` over the same lint scope with the
  same five surviving rules AND the full protocol IR + registry checks
  on top.

Best-of-``ROUNDS`` each to shave scheduler noise; the combined pass
must come in at or under the old lint's time (``MAX_RATIO``).
"""

import ast
import time
from pathlib import Path
from typing import List, Set, Tuple

from repro.analysis.lint import Linter, default_rules
from repro.analysis.lint.visitor import FileContext, LintFinding, Rule
from repro.analysis.lint.visitor import in_tests_or_benchmarks
from repro.analysis.protoflow import run_checks
from repro.analysis.protoflow.ir import index_project
from repro.net.protocol import PROTOCOL

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT_SCOPE = [str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")]
FLOW_SCOPE = [str(REPO_ROOT / "src")]

#: the combined pass (lint + whole-program flow checks, one parse) may
#: not be slower than the old lint suite alone
MAX_RATIO = 1.0

ROUNDS = 5


class OldMessageHandlerRule(Rule):
    """The retired per-file rule, reproduced for an honest baseline.

    Replaced in PR 7 by protoflow's ``proto-missing-handler`` /
    ``proto-unregistered-kind`` registry checks. Note ``applies_to`` is
    the inherited always-True: this rule collected registrations from
    tests as well, which is what forced the old lint to walk the whole
    ``tests/`` tree.
    """

    name = "message-handlers"
    nodes = (ast.Call,)

    def __init__(self) -> None:
        self.registered: Set[str] = set()
        self.pending: List[Tuple[str, int, int, str]] = []

    @staticmethod
    def _const_str(node):
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        return None

    def check(self, node: ast.Call, ctx: FileContext) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        attr = node.func.attr
        if attr == "on" and node.args:
            kind = self._const_str(node.args[0])
            if kind is not None:
                self.registered.add(kind)
        elif attr in ("send", "request") and len(node.args) >= 2:
            kind = self._const_str(node.args[1])
            if kind is None or kind.endswith(".reply"):
                return
            if in_tests_or_benchmarks(ctx.path):
                return
            if ctx.suppressed(node.lineno, self.name):
                return
            self.pending.append(
                (ctx.path, node.lineno, node.col_offset, kind)
            )

    def finish(self) -> List[LintFinding]:
        return [
            LintFinding(
                rule=self.name, path=path, line=line, col=col,
                message=f"message kind {kind!r} has no handler",
            )
            for path, line, col, kind in self.pending
            if kind not in self.registered
        ]


def _best(fn) -> float:
    best = float("inf")
    for _ in range(ROUNDS):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _old_lint():
    Linter([*default_rules(), OldMessageHandlerRule()]).run(LINT_SCOPE)


def _combined_pass():
    _, ir = index_project(
        LINT_SCOPE, rules=default_rules(), flow_paths=FLOW_SCOPE
    )
    run_checks(ir, PROTOCOL)


def bench_combined_static_pass_not_slower(benchmark):
    legacy = _best(_old_lint)
    t0 = time.perf_counter()
    benchmark.pedantic(_combined_pass, rounds=1, iterations=1)
    combined = min(time.perf_counter() - t0, _best(_combined_pass))

    ratio = combined / legacy
    report = "\n".join([
        "scope                  : src + tests lint, src flow checks",
        f"old lint (best/{ROUNDS})     : {legacy * 1e3:.1f} ms",
        f"combined pass (best/{ROUNDS}) : {combined * 1e3:.1f} ms",
        f"ratio                  : {ratio:.2f}x (bound {MAX_RATIO:.2f}x)",
    ])
    print(f"\n{report}\n")
    assert ratio <= MAX_RATIO, report
