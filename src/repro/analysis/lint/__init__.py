"""Static lint pass, run with the protocol-flow checks by
``python -m repro check --static``.

See :mod:`repro.analysis.lint.rules` for the rules and
``docs/analysis.md`` for rationale and the suppression syntax.
"""

from repro.analysis.lint.rules import default_rules
from repro.analysis.lint.visitor import FileContext, LintFinding, Linter, Rule


def lint_paths(paths) -> list:
    """Run the default rule set over ``paths`` (files or directories).

    Delegates to the shared protoflow engine
    (:func:`repro.analysis.protoflow.ir.index_project`) so lint shares
    its single parse of the tree with the flow checks; ``flow_paths=()``
    keeps this a lint-only pass. :class:`Linter` remains as the
    standalone fallback engine (and the benchmark baseline in
    ``benchmarks/bench_lint_perf.py``).
    """
    from repro.analysis.protoflow.ir import index_project

    findings, _ir = index_project(paths, rules=default_rules(), flow_paths=())
    return findings


__all__ = [
    "FileContext",
    "LintFinding",
    "Linter",
    "Rule",
    "default_rules",
    "lint_paths",
]
