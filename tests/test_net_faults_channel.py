"""Unit tests for FaultInjector, and for the per-pair FIFO clamp every
``Network`` send goes through."""

import numpy as np
import pytest

from repro.net import FaultInjector, Network
from repro.sim import Environment


class TestFaultInjector:
    def test_crash_recover_idempotent(self):
        f = FaultInjector()
        f.crash("a")
        f.crash("a")
        assert f.crashes_injected == 1
        assert f.is_crashed("a")
        assert f.crashed_sites == frozenset({"a"})
        f.recover("a")
        f.recover("a")
        assert not f.is_crashed("a")

    def test_should_drop_for_crashed_endpoints(self):
        f = FaultInjector()
        f.crash("b")
        assert f.should_drop("a", "b")
        assert f.should_drop("b", "a")
        assert not f.should_drop("a", "c")
        assert f.messages_dropped == 2

    def test_partition_semantics(self):
        f = FaultInjector()
        f.partition([["a", "b"], ["c"]])
        assert f.partitioned
        assert f.same_partition("a", "b")
        assert not f.same_partition("a", "c")
        # unlisted sites share the implicit group
        assert f.same_partition("x", "y")
        assert not f.same_partition("a", "x")
        f.heal()
        assert not f.partitioned
        assert f.same_partition("a", "c")

    def test_partition_duplicate_site_rejected(self):
        f = FaultInjector()
        with pytest.raises(ValueError):
            f.partition([["a"], ["a", "b"]])

    def test_drop_probability_validation(self):
        with pytest.raises(ValueError):
            FaultInjector(drop_probability=1.5)

    def test_drop_probability_requires_rng(self):
        f = FaultInjector(drop_probability=0.5)  # no rng
        with pytest.raises(RuntimeError):
            f.should_drop("a", "b")

    def test_drop_probability_statistics(self):
        f = FaultInjector(rng=np.random.default_rng(0), drop_probability=0.3)
        drops = sum(f.should_drop("a", "b") for _ in range(1000))
        assert 230 < drops < 370

    def test_repr(self):
        f = FaultInjector()
        f.crash("z")
        assert "z" in repr(f)


class ScriptedLatency:
    """Latency model returning the given delays in turn."""

    def __init__(self, *delays):
        self.delays = list(delays)

    def sample(self, src, dst, rng):
        return self.delays.pop(0)


class TestChannel:
    """A directed pair ``src -> dst``: no delivery on it is earlier than
    the one sent before it."""

    def _net(self, *delays):
        env = Environment()
        net = Network(env, latency=ScriptedLatency(*delays),
                      rng=np.random.default_rng(0))
        got = []
        for name in ("a", "b"):
            net.endpoint(name).on(
                "seq", lambda msg: got.append((env.now, msg.src, msg.payload))
            )
        return env, net, got

    def test_delivery_time_plain(self):
        env, net, got = self._net(2.0)
        env.run(until=10.0)
        net.get("a").send("b", "seq", 1)
        env.run()
        assert got == [(12.0, "a", 1)]

    def test_fifo_clamps_reordering(self):
        env, net, got = self._net(10.0, 2.0)
        net.get("a").send("b", "seq", 1)
        env.run(until=1.0)
        net.get("a").send("b", "seq", 2)  # would arrive at 3
        env.run()
        assert got == [(10.0, "a", 1), (10.0, "a", 2)]

    def test_reverse_pair_is_not_clamped(self):
        env, net, got = self._net(10.0, 2.0, 1.0)
        a, b = net.get("a"), net.get("b")
        a.send("b", "seq", 1)
        env.run(until=1.0)
        a.send("b", "seq", 2)
        b.send("a", "seq", 3)  # b -> a is its own pair
        env.run()
        assert got == [(2.0, "b", 3), (10.0, "a", 1), (10.0, "a", 2)]

    def test_negative_latency_rejected(self):
        env, net, got = self._net(-1.0)
        with pytest.raises(ValueError, match="negative or NaN latency -1.0"):
            net.get("a").send("b", "seq", 1)
        env.run()
        assert got == []
