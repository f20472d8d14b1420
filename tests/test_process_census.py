"""What a crashed site is running, read from the kernel's process census.

At every ``FaultInjector.crash`` these tests list ``env.owned(site)``:
the crashed site's live processes, in spawn order, each as
``(owner, generator qualname)``. The census is keyed by owner, not
parsed from a name, so ``agg0``'s processes never include ``agg0.0``'s.
Both runs are the ones ``tests/test_faulted_run_pin.py`` pins. A crash
today only cuts the site's links, so these processes live on through
the outage; the lists are what a fail-stop crash has to end.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro.experiments.chaos import run_chaos
from repro.net.faults import FaultInjector
from repro.net.network import Network
from repro.testkit import make_case, run_case

SYNC = "SyncScheduler._loop"
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
    (18, "agg0", [SYNC, LEASE, LEASE, LEASE]),
    (27, "site1", [SYNC]),
    (35, "site3", [SYNC, LEASE]),
    (36, "agg1", [SYNC, LEASE, LEASE]),
    (36, "site6", [SYNC]),
    (39, "site2", [SYNC]),
]


@pytest.fixture
def crash_census(monkeypatch):
    """Record ``(site, [(owner, qualname), ...])`` at every crash."""
    envs: dict = {}
    steps: list = []
    network_init, crash = Network.__init__, FaultInjector.crash

    def recording_init(self, env, *args, **kwargs):
        network_init(self, env, *args, **kwargs)
        envs[self.faults] = env

    def recording_crash(self, site):
        steps.append((site, [
            (proc.owner, proc._generator.__qualname__)
            for proc in envs[self].owned(site)
        ]))
        crash(self, site)

    monkeypatch.setattr(Network, "__init__", recording_init)
    monkeypatch.setattr(FaultInjector, "crash", recording_crash)
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
    assert counts == {SYNC: 14, LEASE: 13}
