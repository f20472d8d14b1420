"""Property-based tests for the database substrate (DESIGN.md §7.3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db import (
    DuplicateItem,
    NegativeValue,
    Store,
    TransactionManager,
    UnknownItem,
    WalEntry,
    WalOp,
    WriteAheadLog,
    recover,
)

# Deltas that keep values in safe integer territory.
deltas = st.integers(min_value=-50, max_value=50)


def fresh_store(items=("A", "B"), initial=1000):
    store = Store("prop", allow_negative=True)
    for item in items:
        store.insert(item, initial)
    return store


@given(st.lists(st.tuples(st.sampled_from(["A", "B"]), deltas), max_size=30))
def test_abort_always_restores_state(ops):
    """Invariant 3: an aborted transaction leaves values untouched."""
    store = fresh_store()
    tm = TransactionManager(store)
    before = store.as_dict()
    txn = tm.begin()
    for item, delta in ops:
        txn.apply(item, delta, force=True)
    txn.abort()
    assert store.as_dict() == before


@given(
    st.lists(
        st.tuples(
            st.booleans(),  # commit?
            st.lists(st.tuples(st.sampled_from(["A", "B"]), deltas), max_size=8),
        ),
        max_size=10,
    )
)
def test_recovery_keeps_exactly_committed_work(txn_specs):
    """Invariant 3': crash recovery == replay of committed deltas only."""
    store = fresh_store()
    tm = TransactionManager(store)
    expected = store.as_dict()

    open_txns = []
    for commit, ops in txn_specs:
        txn = tm.begin()
        for item, delta in ops:
            txn.apply(item, delta, force=True)
        if commit:
            txn.commit()
            for item, delta in ops:
                expected[item] += delta
        else:
            open_txns.append(txn)  # simulated crash: never finished

    recover(store, tm.wal)
    assert store.as_dict() == expected
    # Second recovery is a no-op (idempotence).
    report = recover(store, tm.wal)
    assert report.clean


class RetainEverythingWal:
    """Reference log: keeps every record it writes, finished or not."""

    def __init__(self):
        self.entries = []

    def _append(self, op, txn_id, item=None, delta=0.0):
        self.entries.append(WalEntry(len(self.entries) + 1, op, txn_id, item, delta))

    def log_begin(self, txn_id):
        self._append(WalOp.BEGIN, txn_id)

    def log_delta(self, txn_id, item, delta):
        self._append(WalOp.DELTA, txn_id, item, delta)

    def log_commit(self, txn_id):
        self._append(WalOp.COMMIT, txn_id)

    def log_abort(self, txn_id):
        self._append(WalOp.ABORT, txn_id)

    def log_atomic(self, txn_id, item, delta):
        self.log_begin(txn_id)
        self.log_delta(txn_id, item, delta)
        self.log_commit(txn_id)

    def __iter__(self):
        return iter(self.entries)

    def __len__(self):
        return len(self.entries)

    def in_flight(self):
        begun = {e.txn_id for e in self.entries if e.op is WalOp.BEGIN}
        done = {e.txn_id for e in self.entries if e.op in (WalOp.COMMIT, WalOp.ABORT)}
        return begun - done


# The integer of a delta/commit/abort step picks one of the transactions
# open at that moment (modulo their count); with none open it is skipped.
wal_steps = st.one_of(
    st.tuples(st.just("begin")),
    st.tuples(st.just("delta"), st.integers(0, 7), st.sampled_from(["A", "B"]), deltas),
    st.tuples(st.just("commit"), st.integers(0, 7)),
    st.tuples(st.just("abort"), st.integers(0, 7)),
    st.tuples(st.just("atomic"), st.sampled_from(["A", "B"]), deltas),
)


@settings(deadline=None, max_examples=150)
@given(st.lists(wal_steps, max_size=40), st.sets(st.integers(0, 7), max_size=3))
def test_open_only_wal_recovers_like_retain_everything(steps, exclude_picks):
    """Dropping a transaction's records at COMMIT/ABORT is crash-safe.

    The same interleaving drives the open-only log and a reference that
    keeps every record; the crash falls after the last step, so the
    list length is the crash point. Both must agree on what is in
    flight, on what recovery compensates (with in-doubt transactions
    excluded), on the recovered store, and on a second pass being clean.
    """
    sides = []
    for wal in (WriteAheadLog(), RetainEverythingWal()):
        store = fresh_store()
        sides.append((store, wal, TransactionManager(store, wal=wal)))

    open_txns = [[], []]
    for step in steps:
        for (_, _, tm), txns in zip(sides, open_txns):
            kind = step[0]
            if kind == "begin":
                txns.append(tm.begin())
            elif kind == "atomic":
                tm.apply_atomic(step[1], step[2], force=True)
            elif txns:
                txn = txns[step[1] % len(txns)]
                if kind == "delta":
                    txn.apply(step[2], step[3], force=True)
                else:
                    txns.remove(txn)
                    getattr(txn, kind)()  # commit or abort

    (new_store, new_wal, _), (ref_store, ref_wal, _) = sides
    assert new_wal.in_flight() == ref_wal.in_flight()
    assert len(new_wal) == len(ref_wal)
    open_ids = sorted(new_wal.in_flight())
    exclude = frozenset(open_ids[i % len(open_ids)] for i in exclude_picks if open_ids)

    report = recover(new_store, new_wal, exclude=exclude)
    assert report == recover(ref_store, ref_wal, exclude=exclude)
    assert new_store.as_dict() == ref_store.as_dict()
    assert new_wal.in_flight() == ref_wal.in_flight() == set(exclude)
    assert recover(new_store, new_wal, exclude=exclude).clean
    assert recover(ref_store, ref_wal, exclude=exclude).clean
    assert new_store.as_dict() == ref_store.as_dict()


@given(st.lists(st.tuples(st.sampled_from(["A", "B"]), deltas), max_size=30))
def test_commit_equals_plain_application(ops):
    """Committed transactions behave exactly like direct applies."""
    store = fresh_store()
    tm = TransactionManager(store)
    mirror = store.as_dict()
    with tm.atomic() as txn:
        for item, delta in ops:
            txn.apply(item, delta, force=True)
            mirror[item] += delta
    assert store.as_dict() == mirror


# Amounts mix exact integers with repr-awkward decimals: totals must
# match the model's float accumulation to the last bit.
amounts = st.sampled_from([0.0, 0.1, 0.5, 1.0, 2.5, 3.0, 7.7, 10.0, -1.0])


@settings(deadline=None, max_examples=60)
@given(
    st.lists(
        st.tuples(
            st.sampled_from(["insert", "apply_delta", "set_value", "drop", "value"]),
            st.sampled_from(["A", "B", "C", "D", "E"]),
            amounts,
        ),
        max_size=60,
    )
)
def test_store_matches_pure_dict_model(ops):
    """Any op interleaving: ``Store`` == a plain ``{item: value}`` dict.

    The model predicts the exception type of every rejected call, and
    after every accepted one the values, ``item_ids`` order (a dropped
    and re-inserted item moves to the end) and the ``repr``-exact total.
    """
    store = Store("prop")
    model = {}
    for op, item, amount in ops:
        method = getattr(store, op)
        args = (item,) if op in ("drop", "value") else (item, amount)
        if op == "insert":
            expected = (
                DuplicateItem if item in model
                else NegativeValue if amount < 0 else None
            )
        elif item not in model:
            expected = UnknownItem
        elif op == "apply_delta":
            expected = NegativeValue if model[item] + amount < 0 else None
        elif op == "set_value":
            expected = NegativeValue if amount < 0 else None
        else:
            expected = None
        if expected is not None:
            with pytest.raises(expected):
                method(*args)
        else:
            got = method(*args)
            if op == "insert":
                model[item] = amount
                assert got is None
            elif op == "apply_delta":
                model[item] += amount
                assert repr(got) == repr(model[item])
            elif op == "set_value":
                model[item] = amount
            elif op == "drop":
                del model[item]
            else:
                assert repr(got) == repr(model[item])
        # A rejected call must leave no trace either.
        assert store.as_dict() == model
        assert list(store.item_ids()) == list(model)
        assert repr(store.total()) == repr(sum(model.values()))
