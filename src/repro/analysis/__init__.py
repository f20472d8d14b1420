"""Analysis and correctness tooling for the protocol stack.

Its parts (see ``docs/analysis.md``):

* the **runtime sanitizer** (:mod:`repro.analysis.sanitizer`,
  :mod:`repro.analysis.invariants`, :mod:`repro.analysis.hb`) audits a
  live run's events against the paper's invariants — enable with
  ``SystemConfig.sanitize=True`` or ``python -m repro check``;
* the **end-state checker** (:mod:`repro.analysis.end_state`) judges a
  finished run — the one judge ``check_invariants``, the chaos harness
  and the fuzzer share;
* the **static lint pass** (:mod:`repro.analysis.lint`) enforces
  repo-specific determinism and instrumentation rules over the source
  tree;
* the **protocol-flow analyzer** (:mod:`repro.analysis.protoflow`)
  checks the whole tree against the declared message registry
  (:mod:`repro.net.protocol`); both run in one parse with
  ``python -m repro check --static``;
* executable **sequence diagrams** from live traces
  (:mod:`repro.analysis.sequence`).
"""

from repro.analysis.check import CheckRun, run_check
from repro.analysis.end_state import end_state
from repro.analysis.hb import CausalOrder
from repro.analysis.invariants import SanitizerReport, Violation
from repro.analysis.sanitizer import ProtocolSanitizer
from repro.analysis.sequence import (
    SequenceEvent,
    SequenceRecorder,
    record_scenario,
    render_sequence,
)

__all__ = [
    "CausalOrder",
    "CheckRun",
    "ProtocolSanitizer",
    "SanitizerReport",
    "SequenceEvent",
    "SequenceRecorder",
    "Violation",
    "end_state",
    "record_scenario",
    "render_sequence",
    "run_check",
]
