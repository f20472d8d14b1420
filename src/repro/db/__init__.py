"""Per-site transactional store: values, locks, WAL, transactions, recovery."""

from repro.db.errors import (
    DatabaseError,
    DuplicateItem,
    LockError,
    LockUpgradeError,
    NegativeValue,
    TransactionAborted,
    TransactionClosed,
    TransactionError,
    UnknownItem,
)
from repro.db.locks import LockManager, LockMode
from repro.db.recovery import RecoveryReport, recover
from repro.db.storage import Store
from repro.db.transaction import Transaction, TransactionManager, TxnState
from repro.db.wal import WalEntry, WalOp, WriteAheadLog

__all__ = [
    "DatabaseError",
    "DuplicateItem",
    "LockError",
    "LockManager",
    "LockMode",
    "LockUpgradeError",
    "NegativeValue",
    "RecoveryReport",
    "Store",
    "Transaction",
    "TransactionAborted",
    "TransactionClosed",
    "TransactionError",
    "TransactionManager",
    "TxnState",
    "UnknownItem",
    "WalEntry",
    "WalOp",
    "WriteAheadLog",
    "recover",
]
