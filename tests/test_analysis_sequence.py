"""Tests for the sequence-diagram analysis module."""

import pytest

from repro.analysis import (
    SequenceRecorder,
    record_scenario,
    render_sequence,
)
from repro.cluster import build_paper_system
from repro.net import ConstantLatency, Network
from repro.obs.hub import Observability
from repro.sim import Environment, RngRegistry


def make_net():
    env = Environment()
    net = Network(
        env,
        latency=ConstantLatency(1.0),
        rng=RngRegistry(0).stream("net.latency"),
        obs=Observability(enabled=False),
    )
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("ping", lambda m: "pong")
    return env, net, a


class TestRecorder:
    def test_records_send_and_recv(self):
        env, net, a = make_net()
        recorder = SequenceRecorder(net.obs)
        a.send("b", "ping")
        env.run()
        assert [e.event for e in recorder.events] == ["send", "recv"]
        assert recorder.events[0].msg.kind == "ping"
        assert len(recorder) == 2

    def test_records_drops(self):
        env, net, a = make_net()
        recorder = SequenceRecorder(net.obs)
        net.faults.crash("b")
        a.send("b", "ping")
        env.run()
        assert [e.event for e in recorder.events] == ["send", "drop"]

    def test_detach_stops_recording(self):
        env, net, a = make_net()
        recorder = SequenceRecorder(net.obs)
        a.send("b", "ping")
        recorder.detach()
        a.send("b", "ping")
        env.run()
        # only the first send (and its delivery happened after detach,
        # so just the one send event)
        assert len([e for e in recorder.events if e.event == "send"]) == 1

    def test_clear(self):
        env, net, a = make_net()
        recorder = SequenceRecorder(net.obs)
        a.send("b", "ping")
        env.run()
        recorder.clear()
        assert len(recorder) == 0


class TestRender:
    def render_round_trip(self, **kwargs):
        env, net, a = make_net()
        recorder = SequenceRecorder(net.obs)

        def client(env):
            return (yield a.request("b", "ping"))

        env.process(client(env))
        env.run()
        return render_sequence(recorder.events, **kwargs)

    def test_default_render(self):
        out = self.render_round_trip()
        lines = out.splitlines()
        assert "a" in lines[0] and "b" in lines[0]
        assert lines[1].count("|") == 2
        # one arrow per delivery: request + reply
        assert sum(1 for l in lines if ">" in l or "<" in l) == 2
        assert "ping" in out
        assert "t=" in out

    def test_send_rows_mode(self):
        out = self.render_round_trip(merge_delivery=False)
        arrows = [l for l in out.splitlines() if (">" in l or "<" in l)]
        assert len(arrows) == 4  # send+recv for both directions

    def test_no_time(self):
        out = self.render_round_trip(show_time=False)
        assert "t=" not in out

    def test_participant_order_respected(self):
        out = self.render_round_trip(participants=["b", "a"])
        header = out.splitlines()[0]
        assert header.index("b") < header.index("a")

    def test_unknown_participants_skipped(self):
        out = self.render_round_trip(participants=["a"])
        # messages to/from b can't be drawn with only a's column
        assert len(out.splitlines()) == 2

    def test_long_labels_truncated(self):
        env = Environment()
        net = Network(
            env,
            latency=ConstantLatency(1.0),
            rng=RngRegistry(0).stream("net.latency"),
            obs=Observability(enabled=False),
        )
        a, b = net.endpoint("a"), net.endpoint("b")
        b.on("averyveryveryverylongkindname", lambda m: None)
        recorder = SequenceRecorder(net.obs)
        a.send("b", "averyveryveryverylongkindname")
        env.run()
        out = render_sequence(recorder.events, width=16)
        assert "~" in out  # truncation marker
        # all rows aligned: lifelines in the data rows match the header
        lines = out.splitlines()
        pipe_cols = [i for i, c in enumerate(lines[1]) if c == "|"]
        assert len(pipe_cols) == 2


class TestRecordScenario:
    def test_scenario_wrapper(self):
        system = build_paper_system(n_items=1, initial_stock=90.0, seed=0)

        def scenario(env):
            result = yield system.update("site1", "item0", -45)
            assert result.committed

        out = record_scenario(system, scenario)
        assert "av.request" in out
        assert out.splitlines()[0].split() == ["site0", "site1", "site2"]

    def test_local_update_renders_empty_diagram(self):
        system = build_paper_system(n_items=1, initial_stock=90.0, seed=0)

        def scenario(env):
            yield system.update("site1", "item0", -5)

        out = record_scenario(system, scenario)
        assert len(out.splitlines()) == 2  # header + lifelines only
