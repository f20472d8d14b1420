"""Tests for wire-size estimation and byte accounting."""

import pytest

from repro.net import (
    ConstantLatency,
    DEFAULT_HEADER_BYTES,
    Message,
    Network,
    SizeModel,
)
from repro.sim import Environment, RngRegistry


class TestSizeModel:
    def setup_method(self):
        self.model = SizeModel()

    def test_scalars(self):
        assert self.model.payload_size(None) == 1
        assert self.model.payload_size(True) == 1
        assert self.model.payload_size(42) == 8
        assert self.model.payload_size(3.14) == 8

    def test_strings_and_bytes(self):
        assert self.model.payload_size("") == 2
        assert self.model.payload_size("abc") == 5
        assert self.model.payload_size("é") == 4  # 2-byte UTF-8
        assert self.model.payload_size(b"abc") == 5

    def test_containers_recursive(self):
        assert self.model.payload_size([]) == 2
        assert self.model.payload_size([1, 2]) == 2 + 16
        assert self.model.payload_size({"a": 1}) == 2 + 3 + 8
        nested = {"items": [1, 2, 3]}
        assert self.model.payload_size(nested) == 2 + (2 + 5) + (2 + 24)

    def test_unknown_type_rejected(self):
        with pytest.raises(TypeError):
            self.model.payload_size(object())

    def test_message_size_includes_header(self):
        msg = Message("a", "b", "k", payload=7)
        assert self.model.message_size(msg) == DEFAULT_HEADER_BYTES + 8

    def test_custom_header(self):
        model = SizeModel(header_bytes=100)
        assert model.message_size(Message("a", "b", "k")) == 101
        with pytest.raises(ValueError):
            SizeModel(header_bytes=-1)

    def test_deterministic(self):
        payload = {"item": "item0", "amount": 12.0, "requester_av": 3.0}
        sizes = {self.model.payload_size(payload) for _ in range(5)}
        assert len(sizes) == 1


class TestByteAccounting:
    def make_net(self, size_model):
        env = Environment()
        net = Network(
            env,
            latency=ConstantLatency(1.0),
            rng=RngRegistry(0).stream("net.latency"),
            size_model=size_model,
        )
        a, b = net.endpoint("a"), net.endpoint("b")
        b.on("echo", lambda m: m.payload)
        return env, net, a

    def test_bytes_counted_with_model(self):
        env, net, a = self.make_net(SizeModel())
        a.send("b", "echo", {"x": 1}, tag="t")
        env.run()
        expected = DEFAULT_HEADER_BYTES + 2 + 3 + 8
        assert net.stats.bytes_total == expected

    def test_bytes_zero_without_model(self):
        env, net, a = self.make_net(None)
        a.send("b", "echo", {"x": 1})
        env.run()
        assert net.stats.bytes_total == 0

    def test_request_reply_both_counted(self):
        env, net, a = self.make_net(SizeModel())

        def client(env):
            return (yield a.request("b", "echo", 5))

        env.process(client(env))
        env.run()
        # request: header+8; reply: header+8
        assert net.stats.bytes_total == 2 * (DEFAULT_HEADER_BYTES + 8)
