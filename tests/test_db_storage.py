"""Unit tests for Store."""

import pytest

from repro.db import DuplicateItem, NegativeValue, Store, UnknownItem


class TestStore:
    def test_insert_and_value(self):
        s = Store("s0")
        s.insert("A", 100)
        assert s.value("A") == 100
        assert "A" in s and len(s) == 1

    def test_duplicate_insert_rejected(self):
        s = Store()
        s.insert("A", 1)
        with pytest.raises(DuplicateItem):
            s.insert("A", 2)

    def test_unknown_item(self):
        s = Store()
        with pytest.raises(UnknownItem):
            s.value("ghost")
        with pytest.raises(UnknownItem):
            s.apply_delta("ghost", 1)
        with pytest.raises(UnknownItem):
            s.drop("ghost")

    def test_apply_delta(self):
        s = Store()
        s.insert("A", 100)
        assert s.apply_delta("A", -30) == 70
        assert s.value("A") == 70

    def test_negative_guard(self):
        s = Store()
        s.insert("A", 10)
        with pytest.raises(NegativeValue):
            s.apply_delta("A", -11)
        assert s.value("A") == 10  # unchanged

    def test_negative_insert_guard(self):
        with pytest.raises(NegativeValue):
            Store().insert("A", -5)

    def test_allow_negative_mode(self):
        s = Store(allow_negative=True)
        s.insert("A", 0)
        assert s.apply_delta("A", -5) == -5

    def test_set_value_guard(self):
        s = Store()
        s.insert("A", 10)
        with pytest.raises(NegativeValue):
            s.set_value("A", -1)
        s.set_value("A", 50)
        assert s.value("A") == 50

    def test_items_order_and_as_dict(self):
        s = Store()
        s.insert("B", 2)
        s.insert("A", 1)
        assert list(s.items()) == [("B", 2), ("A", 1)]
        assert s.as_dict() == {"B": 2, "A": 1}

    def test_total(self):
        s = Store()
        s.insert("A", 10)
        s.insert("B", 32)
        assert s.total() == 42

    def test_drop(self):
        s = Store()
        s.insert("A", 1)
        s.drop("A")
        assert "A" not in s
