"""Unit tests for the named, seeded RNG streams."""

import pytest

from repro.sim import RngRegistry


class TestRngRegistry:
    def test_same_name_returns_same_stream(self):
        rngs = RngRegistry(1)
        assert rngs.stream("a") is rngs.stream("a")

    def test_streams_independent_of_request_order(self):
        r1 = RngRegistry(7)
        r2 = RngRegistry(7)
        a1 = r1.stream("a")
        _ = r1.stream("b")
        b2 = r2.stream("b")
        a2 = r2.stream("a")
        assert a1.integers(0, 1000, 10).tolist() == a2.integers(0, 1000, 10).tolist()
        assert r1.stream("b").integers(0, 1000, 10).tolist() == b2.integers(
            0, 1000, 10
        ).tolist()

    def test_different_seeds_differ(self):
        a = RngRegistry(1).stream("x").integers(0, 10**9, 10).tolist()
        b = RngRegistry(2).stream("x").integers(0, 10**9, 10).tolist()
        assert a != b

    def test_different_names_differ(self):
        r = RngRegistry(1)
        assert (
            r.stream("x").integers(0, 10**9, 10).tolist()
            != r.stream("y").integers(0, 10**9, 10).tolist()
        )

    def test_seed_must_be_int(self):
        with pytest.raises(TypeError):
            RngRegistry("abc")

    def test_container_protocol(self):
        r = RngRegistry(0)
        assert "x" not in r and len(r) == 0
        r.stream("x")
        assert "x" in r and len(r) == 1 and list(r) == ["x"]
