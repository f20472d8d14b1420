"""Unit tests for WAL, transactions, recovery."""

import pytest

from repro.db import (
    Store,
    TransactionClosed,
    TransactionManager,
    TxnState,
    WalOp,
    WriteAheadLog,
    recover,
)


@pytest.fixture
def store():
    s = Store("s0")
    s.insert("A", 100)
    s.insert("B", 50)
    return s


@pytest.fixture
def tm(store):
    return TransactionManager(store)


class TestTransaction:
    def test_commit_applies_deltas(self, store, tm):
        txn = tm.begin()
        txn.apply("A", -30)
        txn.apply("B", 10)
        txn.commit()
        assert store.value("A") == 70 and store.value("B") == 60
        assert txn.state is TxnState.COMMITTED
        assert tm.committed == 1

    def test_abort_compensates_in_reverse(self, store, tm):
        txn = tm.begin()
        txn.apply("A", -30)
        txn.apply("A", -20)
        txn.abort()
        assert store.value("A") == 100
        assert txn.state is TxnState.ABORTED
        assert tm.aborted == 1

    def test_closed_transaction_rejects_operations(self, tm):
        txn = tm.begin()
        txn.commit()
        with pytest.raises(TransactionClosed):
            txn.apply("A", 1)
        with pytest.raises(TransactionClosed):
            txn.commit()
        with pytest.raises(TransactionClosed):
            txn.abort()
        with pytest.raises(TransactionClosed):
            txn.read("A")

    def test_read_through_transaction(self, store, tm):
        txn = tm.begin()
        txn.apply("A", -1)
        assert txn.read("A") == 99

    def test_atomic_context_commits(self, store, tm):
        with tm.atomic() as txn:
            txn.apply("A", -5)
        assert store.value("A") == 95
        assert tm.committed == 1

    def test_atomic_context_aborts_on_error(self, store, tm):
        with pytest.raises(RuntimeError):
            with tm.atomic() as txn:
                txn.apply("A", -5)
                raise RuntimeError("fail inside")
        assert store.value("A") == 100
        assert tm.aborted == 1

    def test_wal_entries_ordering(self, tm):
        txn = tm.begin()
        txn.apply("A", -3)
        assert [e.op for e in tm.wal] == [WalOp.BEGIN, WalOp.DELTA]
        txn.commit()
        assert list(tm.wal) == []  # a commit leaves nothing retained
        assert len(tm.wal) == 3

    def test_abort_writes_compensation_to_wal(self, tm):
        txn = tm.begin()
        txn.apply("A", -3)
        txn.abort()
        assert list(tm.wal) == []  # an abort leaves nothing retained
        # BEGIN, DELTA -3, compensation DELTA +3, ABORT
        assert len(tm.wal) == 4


class TestWal:
    def test_in_flight_tracking(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_begin(2)
        wal.log_commit(1)
        assert wal.in_flight() == {2}

    def test_retains_open_transactions_in_lsn_order(self):
        wal = WriteAheadLog()
        wal.log_begin(1)
        wal.log_begin(2)
        wal.log_delta(1, "A", 5)
        wal.log_delta(2, "B", 1)
        wal.log_commit(1)
        assert [(e.lsn, e.txn_id) for e in wal] == [(2, 2), (4, 2)]

    def test_len_counts_records_written(self):
        wal = WriteAheadLog()
        wal.log_atomic(1, "A", 5)
        wal.log_begin(2)
        wal.log_delta(2, "A", 1)
        wal.log_abort(2)
        assert len(wal) == 6
        assert list(wal) == [] and wal.in_flight() == set()

    def test_lsn_monotonic(self):
        wal = WriteAheadLog()
        e1 = wal.log_begin(1)
        e2 = wal.log_commit(1)
        assert e2.lsn == e1.lsn + 1
        wal.log_atomic(2, "A", 1)  # lsns 3, 4, 5
        assert wal.log_begin(3).lsn == e2.lsn + 4

    @pytest.mark.parametrize("op", ["delta", "commit", "abort"])
    def test_record_without_begin_rejected(self, op):
        wal = WriteAheadLog()
        args = (9, "A", 1) if op == "delta" else (9,)
        with pytest.raises(ValueError, match="txn 9"):
            getattr(wal, f"log_{op}")(*args)
        assert len(wal) == 0

    def test_str(self):
        wal = WriteAheadLog()
        wal.log_begin(7)
        e = wal.log_delta(7, "A", -2)
        assert "txn=7" in str(e) and "A-2" in str(e)


class TestRecovery:
    def test_clean_recovery_noop(self, store, tm):
        with tm.atomic() as txn:
            txn.apply("A", -10)
        report = recover(store, tm.wal)
        assert report.clean and store.value("A") == 90

    def test_recovery_compensates_in_flight(self, store, tm):
        committed = tm.begin()
        committed.apply("A", -10)
        committed.commit()
        crashed = tm.begin()  # never finishes
        crashed.apply("A", -25)
        crashed.apply("B", 5)
        report = recover(store, tm.wal)
        assert report.recovered_txns == [crashed.txn_id]
        assert report.compensations_applied == 2
        assert store.value("A") == 90 and store.value("B") == 50

    def test_recovery_idempotent(self, store, tm):
        txn = tm.begin()
        txn.apply("A", -25)
        recover(store, tm.wal)
        second = recover(store, tm.wal)
        assert second.clean
        assert store.value("A") == 100

    def test_multiple_in_flight(self, store, tm):
        t1, t2 = tm.begin(), tm.begin()
        t1.apply("A", -10)
        t2.apply("A", -20)
        t1.apply("B", 7)
        report = recover(store, tm.wal)
        assert sorted(report.recovered_txns) == [t1.txn_id, t2.txn_id]
        assert store.value("A") == 100 and store.value("B") == 50
