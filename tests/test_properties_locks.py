"""Stateful property test for the lock manager.

A hypothesis rule machine drives random acquire/release sequences and
checks the safety invariants after every step:

* never two holders when one is exclusive;
* FIFO queue never starves (every waiter is eventually granted once all
  earlier conflicting holders release — checked by full teardown drain);
* internal bookkeeping stays consistent.
"""

from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.db import LockManager, LockMode
from repro.sim import Environment

OWNERS = [f"p{i}" for i in range(5)]
ITEMS = ["A", "B"]


class LockMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.env = Environment()
        self.lm = LockManager(self.env)
        #: (item, owner) -> granted event for requests we issued
        self.requests = {}

    # -------------------------------------------------------------- #
    # rules
    # -------------------------------------------------------------- #

    @rule(owner=st.sampled_from(OWNERS), item=st.sampled_from(ITEMS),
          exclusive=st.booleans())
    def acquire(self, owner, item, exclusive):
        key = (item, owner)
        if key in self.requests:
            return  # one outstanding request per (item, owner) in this model
        mode = LockMode.EXCLUSIVE if exclusive else LockMode.SHARED
        held = self.lm.holders(item).get(owner)
        if held is LockMode.SHARED and mode is LockMode.EXCLUSIVE:
            if len(self.lm.holders(item)) > 1:
                return  # upgrade with other holders raises; out of scope
        self.requests[key] = self.lm.acquire(item, owner, mode)

    @rule(owner=st.sampled_from(OWNERS), item=st.sampled_from(ITEMS))
    def release(self, owner, item):
        if owner not in self.lm.holders(item):
            return
        self.lm.release(item, owner)
        self.requests.pop((item, owner), None)

    # -------------------------------------------------------------- #
    # invariants
    # -------------------------------------------------------------- #

    @invariant()
    def exclusive_means_alone(self):
        for item in ITEMS:
            holders = self.lm.holders(item)
            if any(m is LockMode.EXCLUSIVE for m in holders.values()):
                assert len(holders) == 1, holders

    @invariant()
    def granted_requests_hold_the_lock(self):
        for (item, owner), event in self.requests.items():
            if event.triggered:
                held = self.lm.holders(item).get(owner)
                assert held is not None, (item, owner)

    @invariant()
    def waiting_count_matches_ungranted(self):
        for item in ITEMS:
            ungranted = sum(
                1
                for (i, _o), ev in self.requests.items()
                if i == item and not ev.triggered
            )
            assert self.lm.waiting(item) == ungranted

    @invariant()
    def total_waiting_is_the_sum_of_queues(self):
        # The manager keeps a running count; every queue must agree.
        assert self.lm.total_waiting() == sum(
            self.lm.waiting(item) for item in ITEMS
        )

    def teardown(self):
        # Drain: releasing every holder repeatedly must grant every
        # queued waiter (no starvation, no lost wakeups).
        for _ in range(len(OWNERS) * len(ITEMS) * 3):
            progressed = False
            for item in ITEMS:
                for owner in list(self.lm.holders(item)):
                    self.lm.release(item, owner)
                    self.requests.pop((item, owner), None)
                    progressed = True
            if not progressed:
                break
        for (item, owner), event in self.requests.items():
            assert event.triggered, f"starved: {owner} on {item}"
            # they were granted during drain; release to leave clean
        for item in ITEMS:
            assert self.lm.waiting(item) == 0


TestLockMachine = LockMachine.TestCase
TestLockMachine.settings = settings(max_examples=60, stateful_step_count=40, deadline=None)
