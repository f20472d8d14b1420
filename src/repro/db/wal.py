"""Write-ahead log with compensation entries.

The paper rolls back a Delay Update "by updating with [the] opposite of
[the] update volume" — i.e. *compensation*, not before-image restore. The
WAL therefore records deltas. Each transaction writes BEGIN, one entry per
delta, then COMMIT or ABORT; recovery compensates any transaction without
a terminal record. It needs nothing else, so the log retains **only
open transactions**: BEGIN opens a record list, DELTA appends to it,
COMMIT or ABORT drops it. Hence ``len(wal)`` is the number of records
*written* (the LSN high-water mark), not held; ``in_flight()`` costs
O(open transactions); iteration yields the retained records in LSN
order, which is all :func:`repro.db.recovery.recover` sweeps.
"""

from __future__ import annotations

import enum
from itertools import chain
from typing import Iterator, NamedTuple, Optional


_new_tuple = tuple.__new__


class WalOp(enum.Enum):
    BEGIN = "begin"
    DELTA = "delta"
    COMMIT = "commit"
    ABORT = "abort"


class WalEntry(NamedTuple):
    """One log record (a tuple the log builds with ``tuple.__new__``).

    ``lsn`` (log sequence number) is assigned by the log; ``item`` and
    ``delta`` are only meaningful for :attr:`WalOp.DELTA` entries.
    """

    lsn: int
    op: WalOp
    txn_id: int
    item: Optional[str] = None
    delta: float = 0.0

    def __str__(self) -> str:
        core = f"#{self.lsn} {self.op.value} txn={self.txn_id}"
        if self.op is WalOp.DELTA:
            core += f" {self.item}{self.delta:+}"
        return core


class WriteAheadLog:
    """In-memory log for one site that retains open transactions only."""

    def __init__(self, name: str = "wal") -> None:
        self.name = name
        #: txn id -> its records so far, for every transaction with a
        #: BEGIN and no COMMIT/ABORT yet (insertion order = BEGIN order)
        self._open: dict[int, list[WalEntry]] = {}
        #: open transaction id -> the 2PC token it voted ready for (a
        #: prepared participant); COMMIT or ABORT drops it
        self.prepared: dict[int, str] = {}
        self._next_lsn = 1

    def log_begin(self, txn_id: int) -> WalEntry:
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        entry = _new_tuple(WalEntry, (lsn, WalOp.BEGIN, txn_id, None, 0.0))
        self._open[txn_id] = [entry]
        return entry

    def log_delta(self, txn_id: int, item: str, delta: float) -> WalEntry:
        records = self._open.get(txn_id)
        if records is None:
            raise self._no_begin(WalOp.DELTA, txn_id)
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        entry = _new_tuple(WalEntry, (lsn, WalOp.DELTA, txn_id, item, delta))
        records.append(entry)
        return entry

    def log_commit(self, txn_id: int) -> WalEntry:
        if self._open.pop(txn_id, None) is None:
            raise self._no_begin(WalOp.COMMIT, txn_id)
        self.prepared.pop(txn_id, None)
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        return _new_tuple(WalEntry, (lsn, WalOp.COMMIT, txn_id, None, 0.0))

    def log_abort(self, txn_id: int) -> WalEntry:
        if self._open.pop(txn_id, None) is None:
            raise self._no_begin(WalOp.ABORT, txn_id)
        self.prepared.pop(txn_id, None)
        lsn = self._next_lsn
        self._next_lsn = lsn + 1
        return _new_tuple(WalEntry, (lsn, WalOp.ABORT, txn_id, None, 0.0))

    def _no_begin(self, op: WalOp, txn_id: int) -> ValueError:
        return ValueError(f"{self.name}: {op.value} for txn {txn_id}, which has no open BEGIN")

    def log_atomic(self, txn_id: int, item: str, delta: float) -> None:
        """Write BEGIN, DELTA, COMMIT for a one-delta transaction.

        The fused form of the Delay apply hot path: the same three lsns
        as the separate calls, with no yield in between, so the
        transaction is never open and no record is retained.
        """
        self._next_lsn += 3

    # ---------------------------------------------------------------- #
    # reading
    # ---------------------------------------------------------------- #

    def __iter__(self) -> Iterator[WalEntry]:
        """Retained records (open transactions only), in LSN order."""
        return iter(sorted(chain.from_iterable(self._open.values()), key=lambda e: e.lsn))

    def __len__(self) -> int:
        """Records written so far, finished transactions included."""
        return self._next_lsn - 1

    def in_flight(self) -> set[int]:
        """Transaction ids with a BEGIN but no COMMIT/ABORT record."""
        return set(self._open)

    def __repr__(self) -> str:
        return f"<WriteAheadLog {self.name!r} written={len(self)} open={len(self._open)}>"
