"""The known-failure ledger: fuzz cases that fail with both protocols on.

Every catalogue the fuzzer draws is all-regular, so its cases never run
Immediate Update (2PC), reclassify or demotion. This test re-runs
``make_case(0, i)`` for i in 0..299 with half the items non-regular
(``regular_fraction=0.5``, applied by wrapping the runner's
``paper_config``, so no case field and no pinned artefact changes) and
asserts that the failing set is *exactly* :data:`KNOWN_FAILURES`.

The ledger is the inverse of a pin: it may only shrink. A fix that
clears a case fails this test until the case leaves the dict (and
CHANGES.md names it); a change that makes a new case fail fails it too.
Each case carries its cause, as ROADMAP item 20 names them:

* ``20(i)``: a rejoining site installs a catch-up snapshot taken while
  a 2PC it is not part of was still under way (the server coordinating
  it, or not prepared for it yet);
* ``20(iii)``: the catch-up gives up after its 10 pulls while the base
  withholds the item behind a queue of stranded in-doubt participants;
* ``20(iv)``: the catch-up finds no source that answers (the site
  restarts inside a partition) and is never retried;
* ``20(v)``: the catch-up pulls from a peer that does not replicate the
  item (partial replication, the base itself restarting);
* ``unexplained``: not diagnosed yet.

Cause ``20(ii)`` (a prepare queued for the item lock when its site
crashed applied after the restart) left with its 16 cases when a crash
became fail-stop; 20(i) cases 69, 138 and 228 left with them (see
CHANGES.md).
"""

from __future__ import annotations

import pytest

import repro.testkit.runner as runner
from repro.testkit import make_case

N_CASES = 300

#: case index -> cause; every case not listed must end clean
KNOWN_FAILURES = {
    1: "20(i)",
    7: "20(iii)",
    40: "20(iv)",
    110: "20(iii)",
    230: "20(i)",
    235: "20(i)",
    239: "20(v)",
}


@pytest.fixture(scope="module")
def failing():
    """``{case index: finding rules}`` over the 300 mixed-protocol cases."""
    paper_config = runner.paper_config
    with pytest.MonkeyPatch.context() as monkeypatch:
        monkeypatch.setattr(
            runner, "paper_config",
            lambda **kw: paper_config(**{**kw, "regular_fraction": 0.5}),
        )
        outcomes = [runner.run_case(make_case(0, i)) for i in range(N_CASES)]
    return {i: out.rules for i, out in enumerate(outcomes) if not out.ok}


def test_the_failing_set_is_the_ledger(failing):
    cleared = sorted(set(KNOWN_FAILURES) - set(failing))
    new = sorted(set(failing) - set(KNOWN_FAILURES))
    assert not cleared, f"cases now pass; remove them from the ledger: {cleared}"
    assert not new, f"cases newly fail: { {i: failing[i] for i in new} }"


def test_every_ledger_case_fails_on_convergence(failing):
    assert all(rules == ["oracle.convergence"] for rules in failing.values())


def test_causes_are_named():
    assert set(KNOWN_FAILURES.values()) <= {
        "20(i)", "20(iii)", "20(iv)", "20(v)", "unexplained",
    }
