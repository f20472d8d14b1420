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
FUZZ_PIN = "fbcb0edb81d87763df9e713e511607ab988a17db3ce71b8d45619977d6a298db"
#: digest of the planted-bug case ``make_case(0, 0, inject=...)``
PLANTED_PIN = "d82918fc99c700115e1beeec9d8497a888a55510117dacc495ec5da5692536e5"
#: sha256 over the suite render and each scenario's events and telemetry
CHAOS_PIN = "33db59d33748cb57e8bc5910a295df2ee8dd08175fd458c7200227421e753f53"


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
