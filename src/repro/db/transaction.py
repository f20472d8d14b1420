"""Transactions with compensation-based rollback.

A :class:`Transaction` groups deltas against one site's store. Abort
applies the *opposite* deltas in reverse order (paper §3.3: "the recovery
of operation can be done by updating with opposite of update volume").
Because compensation commutes with concurrent deltas on the same numeric
records, Delay Updates need no long-held exclusive locks — the property
the paper leans on to keep AV usable by concurrent transactions.
"""

from __future__ import annotations

import enum
from itertools import count
from typing import Optional

from repro.db.errors import TransactionClosed
from repro.db.storage import Store
from repro.db.wal import WalOp, WriteAheadLog


class TxnState(enum.Enum):
    ACTIVE = "active"
    COMMITTED = "committed"
    ABORTED = "aborted"


class Transaction:
    """One unit of work against a :class:`~repro.db.storage.Store`.

    Not created directly — use :meth:`TransactionManager.begin` or the
    manager's context-manager helper :meth:`TransactionManager.atomic`.
    """

    __slots__ = ("txn_id", "store", "wal", "manager", "state", "deltas")

    def _closed(self) -> TransactionClosed:
        return TransactionClosed(
            f"txn {self.txn_id} is {self.state.value}, not active"
        )

    def apply(self, item: str, delta: float, force: bool = False) -> float:
        """Apply a delta through the transaction; returns the new value.

        See :meth:`repro.db.storage.Store.apply_delta` for ``force``.
        """
        if self.state is not _ACTIVE:
            raise self._closed()
        # WAL first (write-ahead), then the store mutation.
        self.wal.log_delta(self.txn_id, item, delta)
        value = self.store.apply_delta(item, delta, force=force)
        self.deltas.append((item, delta))
        return value

    def read(self, item: str) -> float:
        if self.state is not _ACTIVE:
            raise self._closed()
        return self.store.value(item)

    def commit(self) -> None:
        if self.state is not _ACTIVE:
            raise self._closed()
        self.wal.log_commit(self.txn_id)
        self.state = TxnState.COMMITTED
        self.manager.committed += 1

    def abort(self) -> None:
        """Compensate every applied delta, newest first."""
        if self.state is not _ACTIVE:
            raise self._closed()
        for item, delta in reversed(self.deltas):
            self.wal.log_delta(self.txn_id, item, -delta)
            # Compensation must always succeed: it restores committed
            # state, so the negativity guard does not apply.
            self.store.apply_delta(item, -delta, force=True)
        self.wal.log_abort(self.txn_id)
        self.state = TxnState.ABORTED
        self.manager.aborted += 1

    def __repr__(self) -> str:
        return f"<Transaction {self.txn_id} {self.state.value} deltas={len(self.deltas)}>"


_ACTIVE = TxnState.ACTIVE
_new_object = object.__new__


class TransactionManager:
    """Creates transactions for one site."""

    def __init__(
        self,
        store: Store,
        wal: Optional[WriteAheadLog] = None,
    ) -> None:
        self.store = store
        self.wal = wal if wal is not None else WriteAheadLog(f"{store.name}.wal")
        self._ids = count(1)
        self.begun = 0
        self.committed = 0
        self.aborted = 0

    def begin(self) -> Transaction:
        """Open a transaction: its BEGIN record is written now."""
        self.begun += 1
        txn = _new_object(Transaction)
        txn.txn_id = txn_id = next(self._ids)
        txn.store, txn.wal, txn.manager = self.store, self.wal, self
        txn.state = _ACTIVE
        #: (item, delta) pairs applied so far, in order
        txn.deltas = []
        self.wal.log_begin(txn_id)
        return txn

    def reopen(self, txn_id: int) -> Transaction:
        """Open transaction ``txn_id`` rebuilt from its WAL records, as a
        restarting site re-enters its prepared 2PC participants."""
        txn = _new_object(Transaction)
        txn.txn_id, txn.state = txn_id, _ACTIVE
        txn.store, txn.wal, txn.manager = self.store, self.wal, self
        txn.deltas = [
            (e.item, e.delta) for e in self.wal._open[txn_id] if e.op is WalOp.DELTA
        ]
        return txn

    def atomic(self) -> "_Atomic":
        """``with tm.atomic() as txn:`` — commits on success, aborts on error."""
        return _Atomic(self)

    def apply_atomic(self, item: str, delta: float, force: bool = False) -> float:
        """One-delta transaction, fused: begin + apply + commit.

        The Delay apply hot path runs thousands of single-delta
        transactions per task; this skips the Transaction/_Atomic
        object churn while leaving every observable surface identical
        to ``with self.atomic() as txn: txn.apply(item, delta, force)``
        — same txn id consumed, same three WAL records and lsns, same
        begun/committed counters, same store mutation. A store error
        propagates after BEGIN/DELTA/COMMIT are logged; the caller
        treats it exactly as the unfused abort path would have left the
        store (no delta was applied).
        """
        self.begun += 1
        txn_id = next(self._ids)
        self.wal.log_atomic(txn_id, item, delta)
        value = self.store.apply_delta(item, delta, force=force)
        self.committed += 1
        return value

    def __repr__(self) -> str:
        return (
            f"<TransactionManager store={self.store.name!r}"
            f" begun={self.begun} committed={self.committed} aborted={self.aborted}>"
        )


class _Atomic:
    """Context manager wrapping begin/commit/abort."""

    def __init__(self, manager: TransactionManager) -> None:
        self.manager = manager
        self.txn: Optional[Transaction] = None

    def __enter__(self) -> Transaction:
        self.txn = self.manager.begin()
        return self.txn

    def __exit__(self, exc_type, exc, tb) -> bool:
        assert self.txn is not None
        if self.txn.state is TxnState.ACTIVE:
            if exc_type is None:
                self.txn.commit()
            else:
                self.txn.abort()
        return False  # propagate exceptions
