"""What a crash ends, read from the kernel's process census.

At every ``Site.crash`` these tests list ``env.owned(site)`` just
before it: the crashed site's live processes, in spawn order, each as
``(owner, generator qualname)``. The census is keyed by owner, not
parsed from a name, so ``agg0``'s processes never include ``agg0.0``'s.
Both runs are the ones ``tests/test_faulted_run_pin.py`` pins. A crash
is fail-stop: right after it, ``env.owned(site)`` is empty, so none of
these processes runs through the outage; the restart starts what the
site runs again (its sync loop, one expiry per open lease).
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.cluster.site import Site
from repro.experiments.chaos import run_chaos
from repro.testkit import make_case, run_case

SYNC = "Periodic._loop"
LEASE = "LeaseTable._expiry"

#: ``run_chaos(small=False, n_updates=120, seed=0)``: (site, census)
CHAOS_CENSUS = [
    ("site0", [("site0", SYNC)]),
    ("site1", [("site1", SYNC)]),
    ("site0", [("site0", SYNC)]),
    ("site1", [("site1", SYNC)]),
    ("site2", [("site2", SYNC)]),
]

#: the crash steps of ``make_case(0, i)``, i in 0..39: (case, site, census)
FUZZ_CENSUS = [
    (0, "site0", [SYNC]),
    (1, "site3", [SYNC]),
    (4, "site0", [SYNC]),
    (7, "site2", [SYNC]),
    (9, "site1", [SYNC]),
    (12, "agg0", [SYNC, LEASE]),
    (15, "site0", [SYNC, LEASE, LEASE]),
    (18, "agg0", [SYNC, LEASE, LEASE, LEASE, LEASE]),
    # a second crash step inside the first one's window: agg0 is down
    # and runs nothing
    (18, "agg0", []),
    (27, "site1", [SYNC]),
    (35, "site3", [SYNC, LEASE]),
    (36, "agg1", [SYNC, LEASE, LEASE]),
    (36, "site6", [SYNC]),
    (39, "site2", [SYNC]),
]


@pytest.fixture
def crash_census(monkeypatch):
    """Record ``(site, [(owner, qualname), ...])`` at every crash, and
    check that the crash left the site no process."""
    steps: list = []
    crash = Site.crash

    def recording_crash(self):
        steps.append((self.name, [
            (proc.owner, proc._generator.__qualname__)
            for proc in self.env.owned(self.name)
        ]))
        crash(self)
        assert self.env.owned(self.name) == [], steps[-1]

    monkeypatch.setattr(Site, "crash", recording_crash)
    return steps


def test_chaos_suite_crash_census(crash_census):
    report = run_chaos(small=False, n_updates=120, seed=0)
    assert report.ok, report.render()
    assert crash_census == CHAOS_CENSUS


def test_fuzz_crash_census(crash_census):
    seen = []
    for i in range(40):
        start = len(crash_census)
        run_case(make_case(0, i))
        seen.extend(
            (i, site, [qualname for _owner, qualname in census])
            for site, census in crash_census[start:]
        )
    assert seen == FUZZ_CENSUS
    # Every listed process belongs to the crashed site, nested names
    # (agg0 against agg0.0) included.
    assert all(
        owner == site for site, census in crash_census for owner, _ in census
    )
    counts = Counter(q for _i, _site, census in seen for q in census)
    assert counts == {SYNC: 13, LEASE: 10}
