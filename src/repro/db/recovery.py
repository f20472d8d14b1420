"""Crash recovery by compensation.

After a (simulated) crash, the WAL may contain transactions with a BEGIN
record but no COMMIT/ABORT. :func:`recover` compensates their applied
deltas — the same opposite-delta rule a live abort uses — restoring the
store to a state containing only committed work.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.db.storage import Store
from repro.db.wal import WalOp, WriteAheadLog


@dataclass
class RecoveryReport:
    """Outcome of a recovery pass."""

    recovered_txns: list[int] = field(default_factory=list)
    compensations_applied: int = 0

    @property
    def clean(self) -> bool:
        """``True`` if nothing needed compensating."""
        return not self.recovered_txns


def recover(
    store: Store,
    wal: WriteAheadLog,
    exclude: frozenset = frozenset(),
) -> RecoveryReport:
    """Undo all in-flight transactions recorded in ``wal``.

    Deltas of each in-flight transaction are compensated newest-first
    (across transactions too — a single backward sweep of the log), then an
    ABORT record is written for each so a second recovery pass is a no-op.

    ``exclude`` lists transaction ids that must *not* be compensated:
    in-doubt 2PC participants whose outcome the termination protocol
    will learn from their coordinator instead.
    """
    report = RecoveryReport()
    in_flight = wal.in_flight() - set(exclude)
    if not in_flight:
        return report

    for entry in reversed(list(wal)):
        if entry.op is WalOp.DELTA and entry.txn_id in in_flight:
            assert entry.item is not None
            store.apply_delta(entry.item, -entry.delta, force=True)
            report.compensations_applied += 1

    for txn_id in sorted(in_flight):
        wal.log_abort(txn_id)
        report.recovered_txns.append(txn_id)
    return report
