"""Lock manager: per-item shared/exclusive locks with FIFO queuing.

The Immediate Update protocol (primary-copy scheme, paper §3.3) locks the
item at every site before applying. Lock waits integrate with the
simulation kernel: :meth:`LockManager.acquire` returns an event that
succeeds when the lock is granted, so protocol processes simply ``yield``
it.

Fairness: requests queue FIFO; a grant wave admits the longest-waiting
request plus any immediately following compatible ones (no starvation, no
barging).

Every grant, wait and release is published on the hub's taps
(``lock.grant``, ``lock.wait``, ``lock.release``) with the item's
holders and queue at that moment, when they have subscribers; the
runtime sanitizer rebuilds wait-for edges from them.
"""

from __future__ import annotations

import enum
from collections import deque
from heapq import heappush
from typing import Dict, Optional

from repro.db.errors import LockError, LockUpgradeError
from repro.obs.hub import NULL_OBS, Observability
from repro.sim.engine import Environment
from repro.sim.events import NORMAL, Event

_new_object = object.__new__


class LockMode(enum.Enum):
    SHARED = "S"
    EXCLUSIVE = "X"

    def compatible(self, other: "LockMode") -> bool:
        return self is LockMode.SHARED and other is LockMode.SHARED


class _Waiter:
    """One queued request: ``owner`` waits for ``mode``; ``event`` fires
    on its grant. Built field by field where it is queued (no
    ``__init__`` frame)."""

    __slots__ = ("owner", "mode", "event")


class _ItemLock:
    """Lock state for a single item, built by the grant that creates it:
    ``holders`` maps owner -> mode, ``queue`` holds the waiters."""

    __slots__ = ("holders", "queue")

    def mode(self) -> Optional[LockMode]:
        if not self.holders:
            return None
        if any(m is LockMode.EXCLUSIVE for m in self.holders.values()):
            return LockMode.EXCLUSIVE
        return LockMode.SHARED


class LockManager:
    """Per-item S/X locks for one site's store."""

    def __init__(
        self, env: Environment, site: str = "site", obs: Observability = NULL_OBS
    ) -> None:
        self.env = env
        self.site = site
        self._on_grant = obs.tap("lock.grant")
        self._on_wait = obs.tap("lock.wait")
        self._on_release = obs.tap("lock.release")
        self._locks: Dict[str, _ItemLock] = {}
        #: grants performed (diagnostic)
        self.grants = 0
        #: waiters queued across all items: what ``total_waiting`` reads
        self._waiting = 0

    def _emit(self, tap: list, item: str, owner: str, mode: Optional[LockMode],
              span_id: Optional[int], lock: _ItemLock) -> None:
        """Publish one ``lock.*`` event to ``tap``, with copies of the
        item's holders and queue; callers test ``tap`` first."""
        now = self.env.now
        holders = dict(lock.holders)
        queue = [(w.owner, w.mode) for w in lock.queue]
        for fn in tap:
            fn(now, self.site, item, owner, mode, span_id, holders, queue)

    # ---------------------------------------------------------------- #
    # public API
    # ---------------------------------------------------------------- #

    def acquire(
        self,
        item: str,
        owner: str,
        mode: LockMode = LockMode.EXCLUSIVE,
        span_id: Optional[int] = None,
    ) -> Event:
        """Request a lock; the returned event succeeds on grant.

        Re-acquiring a mode already held is granted immediately.
        A shared→exclusive upgrade succeeds only if ``owner`` is the sole
        holder; otherwise :class:`LockUpgradeError` is raised (the caller
        must release and re-acquire — keeps the manager deadlock-free for
        our protocols). ``span_id`` ties the request to the requesting
        update's span for wait-for diagnostics.
        """
        lock = self._locks.get(item)
        if lock is None:
            # No holder and no queue (release drops such state): grant.
            lock = self._locks[item] = _new_object(_ItemLock)
            lock.holders = {owner: mode}
            lock.queue = deque()  # repro-lint: disable=unbounded-queue (wait depth is capped at admission — OverloadController.lock_wait_budget sheds before enqueue)
        else:
            held = lock.holders.get(owner)
            if held is not None:
                # Re-acquiring what is held (or less) is a no-op grant;
                # an S -> X upgrade needs ``owner`` to be the sole holder.
                if held is not mode and held is not LockMode.EXCLUSIVE:
                    if len(lock.holders) != 1:
                        raise LockUpgradeError(
                            f"{owner!r} cannot upgrade {item!r}:"
                            f" {len(lock.holders) - 1} other holder(s)"
                        )
                    lock.holders[owner] = LockMode.EXCLUSIVE
            elif not lock.queue and self._grantable(lock, mode):
                lock.holders[owner] = mode
            else:
                event = Event(self.env)
                waiter = _new_object(_Waiter)
                waiter.owner, waiter.mode, waiter.event = owner, mode, event
                lock.queue.append(waiter)
                self._waiting += 1
                if self._on_wait:
                    self._emit(self._on_wait, item, owner, mode, span_id, lock)
                return event
        self.grants += 1
        if self._on_grant:
            self._emit(self._on_grant, item, owner, mode, span_id, lock)
        # Event(env).succeed((item, mode)), built and pushed with its key.
        env = self.env
        event = _new_object(Event)
        event.env, event.callbacks, event._value = env, [], (item, mode)
        event._ok, event._defused = True, False
        seq = env._eseq
        env._eseq = seq + 1
        heappush(env._queue, (env._now, NORMAL, seq, event))
        return event

    def release(self, item: str, owner: str) -> None:
        """Drop ``owner``'s lock on ``item`` and run the grant wave."""
        lock = self._locks.get(item)
        if lock is None or owner not in lock.holders:
            raise LockError(f"{owner!r} does not hold a lock on {item!r}")
        del lock.holders[owner]
        if lock.queue:
            self._grant_wave(item, lock)
        if self._on_release:
            self._emit(self._on_release, item, owner, None, None, lock)
        if not lock.holders and not lock.queue:
            del self._locks[item]

    def clear(self) -> None:
        """Forget every holder and waiter, granting none (a crash)."""
        self._locks.clear()
        self._waiting = 0

    def holders(self, item: str) -> Dict[str, LockMode]:
        lock = self._locks.get(item)
        return dict(lock.holders) if lock else {}

    def waiting(self, item: str) -> int:
        lock = self._locks.get(item)
        return len(lock.queue) if lock else 0

    def total_waiting(self) -> int:
        """Waiters queued across all items (lock-wait depth sampling)."""
        return self._waiting

    def is_locked(self, item: str) -> bool:
        lock = self._locks.get(item)
        return bool(lock and lock.holders)

    # ---------------------------------------------------------------- #
    # internals
    # ---------------------------------------------------------------- #

    @staticmethod
    def _grantable(lock: _ItemLock, mode: LockMode) -> bool:
        current = lock.mode()
        if current is None:
            return True
        return current.compatible(mode) and mode.compatible(current)

    def _grant_wave(self, item: str, lock: _ItemLock) -> None:
        """Admit the queue head and following compatible requests."""
        while lock.queue and self._grantable(lock, lock.queue[0].mode):
            waiter = lock.queue.popleft()
            self._waiting -= 1
            lock.holders[waiter.owner] = waiter.mode
            self.grants += 1
            if self._on_grant:
                self._emit(self._on_grant, item, waiter.owner, waiter.mode, None, lock)
            waiter.event.succeed((item, waiter.mode))
            if waiter.mode is LockMode.EXCLUSIVE:
                break

    def __repr__(self) -> str:
        locked = sum(1 for l in self._locks.values() if l.holders)
        return f"<LockManager {self.site!r} locked={locked} grants={self.grants}>"
