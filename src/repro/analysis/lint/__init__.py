"""Static lint pass, run with the protocol-flow checks by
``python -m repro check --static``: the rules here ride the protoflow
engine's single parse of the tree
(:func:`repro.analysis.protoflow.ir.index_project`, ``rules=``).
:class:`Linter` remains as the standalone engine (and the benchmark
baseline in ``benchmarks/bench_lint_perf.py``).

See :mod:`repro.analysis.lint.rules` for the rules and
``docs/analysis.md`` for rationale and the suppression syntax.
"""

from repro.analysis.lint.rules import default_rules
from repro.analysis.lint.visitor import FileContext, LintFinding, Linter, Rule

__all__ = [
    "FileContext",
    "LintFinding",
    "Linter",
    "Rule",
    "default_rules",
]
