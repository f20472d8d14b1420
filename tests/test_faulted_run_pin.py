"""Byte-identity pins for faulted runs: fuzz outcomes and the chaos suite.

The fuzzer and the chaos suite judge the same kind of run — drive a
workload through a fault window, heal, settle, then audit the end
state. These hashes pin what both report, so a change to how a faulted
run is driven, healed or judged must leave every one unchanged:

* fuzz cases ``make_case(0, 0..39)`` — each outcome's replay digest and
  its sent-message census (surge, topology and faulted cases all
  appear among them);
* the planted ``av-double-grant`` case, which must fail;
* ``run_chaos(small=False, n_updates=120, seed=0)`` — the suite's
  render, and each scenario's kernel-event count and telemetry.
"""

from __future__ import annotations

import functools
import hashlib

from repro.experiments.chaos import run_chaos
from repro.perf.tasks import canonical_json
from repro.testkit import make_case, run_case

N_CASES = 40

#: sha256 over every case's (index, digest, sent-kind census)
FUZZ_PIN = "f874d0c50d171d21bbd05eb45489fab159d023facb4d75fbae33ab1fbf52f977"
#: digest of the planted-bug case ``make_case(0, 0, inject=...)``
PLANTED_PIN = "6d39033f99b75af70dec863fa720d0204e8487c7cc5576f3acb31994ca8b471a"
#: sha256 over the suite render and each scenario's events and telemetry
CHAOS_PIN = "2ce255b07e416b0a59b9c85a8a3c242c94140916b84e387f306a1c96603d8038"


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _fuzz():
    cases = [make_case(0, i) for i in range(N_CASES)]
    outcomes = [run_case(case) for case in cases]
    text = canonical_json([
        [i, outcome.digest(), outcome.sent_kinds]
        for i, outcome in enumerate(outcomes)
    ])
    return cases, _sha(text)


def test_the_pinned_cases_cover_surge_topology_and_faults():
    cases, _ = _fuzz()
    assert sum(c.overload for c in cases) == 9
    assert sum(bool(c.topology) for c in cases) == 9
    assert sum(bool(c.faults) for c in cases) == 20


def test_fuzz_outcomes_are_pinned():
    assert _fuzz()[1] == FUZZ_PIN


def test_planted_case_is_pinned():
    outcome = run_case(make_case(0, 0, inject="av-double-grant"))
    assert not outcome.ok
    assert outcome.digest() == PLANTED_PIN


def test_full_chaos_suite_is_pinned():
    report = run_chaos(small=False, n_updates=120, seed=0)
    assert report.ok, report.render()
    text = canonical_json([
        report.render(),
        [
            [r.scenario, r.events_processed, r.telemetry]
            for r in report.results
        ],
    ])
    assert _sha(text) == CHAOS_PIN
