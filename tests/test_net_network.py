"""Integration tests for Network + Endpoint: RPC, FIFO, faults, timeouts."""

import numpy as np
import pytest

from repro.net import (
    ConstantLatency,
    CrashedEndpointError,
    EndpointNotFound,
    Network,
    RequestTimeout,
    UniformLatency,
)
from repro.obs.hub import Observability
from repro.sim import Environment
from repro.sim.events import NORMAL


def make_net(latency=None, **kw):
    env = Environment()
    kw.setdefault("rng", np.random.default_rng(0))
    net = Network(env, latency=latency or ConstantLatency(1.0), **kw)
    return env, net


def test_one_way_send_delivers_after_latency():
    env, net = make_net(ConstantLatency(2.0))
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on("ping", lambda msg: got.append((env.now, msg.payload)))
    a.send("b", "ping", {"x": 1})
    env.run()
    assert got == [(2.0, {"x": 1})]


def test_request_reply_round_trip():
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("double", lambda msg: msg.payload * 2)

    def client(env):
        value = yield a.request("b", "double", 21)
        return (env.now, value)

    p = env.process(client(env))
    env.run()
    assert p.value == (2.0, 42)  # 1 unit each way
    assert net.stats.sent_total == 2
    assert net.stats.correspondences_total == 1.0


def test_generator_handler_replies_with_return_value():
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")

    def slow_handler(msg):
        yield env.timeout(5)
        return msg.payload + 1

    b.on("incr", slow_handler)

    def client(env):
        value = yield a.request("b", "incr", 10)
        return (env.now, value)

    p = env.process(client(env))
    env.run()
    assert p.value == (7.0, 11)  # 1 + 5 + 1


def test_failed_generator_handler_sends_no_reply():
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")

    def broken_handler(msg):
        yield env.timeout(1)
        raise KeyError(msg.payload)

    b.on("boom", broken_handler)
    reply = a.request("b", "boom", "x")
    with pytest.raises(KeyError):
        env.run()
    assert net.stats.sent_total == 1 and not reply.triggered


def test_generator_handler_finishing_on_a_crashed_site_sends_nothing():
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")

    def slow_handler(msg):
        yield env.timeout(5)
        return "late"

    b.on("slow", slow_handler)

    def client(env):
        try:
            yield a.request("b", "slow", timeout=20.0)
        except RequestTimeout:
            return env.now

    p = env.process(client(env))
    env.run(until=3.0)  # b is running the handler
    net.faults.crash("b")
    env.run()
    assert p.value == 20.0
    assert net.stats.sent_total == 1


def test_unknown_destination_raises():
    env, net = make_net()
    a = net.endpoint("a")
    with pytest.raises(EndpointNotFound):
        a.send("ghost", "ping")
    with pytest.raises(EndpointNotFound):
        a.request("ghost", "ping")
    assert net.stats.sent_total == 0 and env.peek() == float("inf")


def test_missing_handler_raises():
    env, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    a.send("b", "nothing")
    with pytest.raises(LookupError, match="no handler"):
        env.run()


def test_duplicate_handler_rejected():
    env, net = make_net()
    a = net.endpoint("a")
    a.on("k", lambda m: None)
    with pytest.raises(ValueError):
        a.on("k", lambda m: None)


def test_duplicate_endpoint_name_rejected():
    env, net = make_net()
    net.endpoint("a")
    with pytest.raises(ValueError):
        net.endpoint("a")


def test_fifo_ordering_with_random_latency():
    env, net = make_net(UniformLatency(0.1, 5.0), rng=np.random.default_rng(3))
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on("seq", lambda msg: got.append(msg.payload))
    for i in range(50):
        a.send("b", "seq", i)
    env.run()
    assert got == list(range(50))


def test_crashed_destination_drops_message():
    env, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("ping", lambda m: pytest.fail("crashed endpoint must not handle"))
    net.faults.crash("b")
    a.send("b", "ping")
    env.run()
    assert net.stats.sent_total == 1
    assert net.stats.dropped_total == 1


def test_crash_while_in_flight_drops():
    env, net = make_net(ConstantLatency(5.0))
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("ping", lambda m: pytest.fail("must not deliver"))
    a.send("b", "ping")

    def crasher(env):
        yield env.timeout(1)
        net.faults.crash("b")

    env.process(crasher(env))
    env.run()
    assert net.stats.dropped_total == 1


def test_crashed_sender_cannot_send():
    env, net = make_net()
    a, _ = net.endpoint("a"), net.endpoint("b")
    net.faults.crash("a")
    with pytest.raises(CrashedEndpointError):
        a.send("b", "ping")
    with pytest.raises(CrashedEndpointError):
        a.request("b", "ping")


def test_request_timeout_fires_on_crash():
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("ping", lambda m: "pong")
    net.faults.crash("b")

    def client(env):
        try:
            yield a.request("b", "ping", timeout=10)
        except RequestTimeout:
            return ("timed-out", env.now)

    p = env.process(client(env))
    env.run()
    assert p.value == ("timed-out", 10)


def test_request_timeout_not_fired_when_reply_arrives():
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("ping", lambda m: "pong")

    def client(env):
        value = yield a.request("b", "ping", timeout=10)
        return value

    p = env.process(client(env))
    env.run()
    assert p.value == "pong"
    assert env.now == 10  # timeout event still fires harmlessly


def test_partition_blocks_cross_group_traffic():
    env, net = make_net()
    a, b, c = net.endpoint("a"), net.endpoint("b"), net.endpoint("c")
    got = []
    b.on("ping", lambda m: got.append("b"))
    c.on("ping", lambda m: got.append("c"))
    net.faults.partition([["a", "b"], ["c"]])
    a.send("b", "ping")
    a.send("c", "ping")
    env.run()
    assert got == ["b"]
    net.faults.heal()
    a.send("c", "ping")
    env.run()
    assert got == ["b", "c"]


def test_probabilistic_drop():
    env = Environment()
    net = Network(env, latency=ConstantLatency(1.0), rng=np.random.default_rng(0))
    net.faults.drop_probability = 0.5
    net.faults._rng = np.random.default_rng(0)
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on("ping", lambda m: got.append(1))
    for _ in range(200):
        a.send("b", "ping")
    env.run()
    assert 60 < len(got) < 140
    assert net.stats.dropped_total == 200 - len(got)


def test_peers_excludes_self():
    env, net = make_net()
    a, b, c = net.endpoint("a"), net.endpoint("b"), net.endpoint("c")
    assert a.peers() == ["b", "c"]


def test_observers_see_send_recv_and_drop():
    env, net = make_net(obs=Observability(enabled=False))
    seen = []
    net.obs.subscribe_fields(
        lambda kind, time, f: seen.append(
            (kind, time, f["site"], f["msg"].src, f["msg"].dst, f["msg"].kind)
        )
    )
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("ping", lambda m: None)
    a.send("b", "ping")
    env.run()
    net.faults.crash("b")
    a.send("b", "ping")
    env.run()
    net.faults.recover("b")
    a.send("b", "ping")
    net.faults.crash("b")  # crashes while the message is in flight
    env.run()
    assert seen == [
        ("msg.send", 0.0, "a", "a", "b", "ping"),
        ("msg.recv", 1.0, "b", "a", "b", "ping"),
        ("msg.send", 1.0, "a", "a", "b", "ping"),
        ("msg.drop", 1.0, "a", "a", "b", "ping"),
        ("msg.send", 1.0, "a", "a", "b", "ping"),
        ("msg.drop", 2.0, "b", "a", "b", "ping"),
    ]


def test_handler_decorator():
    env, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")

    @b.handler("ping")
    def _(msg):
        return "pong"

    def client(env):
        return (yield a.request("b", "ping"))

    p = env.process(client(env))
    env.run()
    assert p.value == "pong"


def test_handled_counter():
    env, net = make_net()
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("ping", lambda m: None)
    a.send("b", "ping")
    a.send("b", "ping")
    env.run()
    assert b.handled["ping"] == 2


def test_observer_and_identity_perturbation_change_nothing():
    """Send has one path: an observer and a perturbation hook that do
    nothing leave every result, replica and counter where it was."""
    from repro.cluster import DistributedSystem, paper_config
    from repro.experiments.fig6 import make_paper_trace
    from repro.workload.driver import run_closed

    def run(watched):
        system = DistributedSystem.build(
            paper_config(n_items=10, n_retailers=4, seed=3)
        )
        if watched:
            system.obs.subscribe_fields(lambda *a: None)
            system.network.perturb = lambda msg, delay: delay
        run_closed(system, make_paper_trace(400, 3, n_items=10, n_retailers=4))
        stores = {
            name: sorted(site.store.items())
            for name, site in system.sites.items()
        }
        return system.collector.results, stores, system.stats

    results, stores, stats = run(watched=False)
    watched_results, watched_stores, watched_stats = run(watched=True)
    assert stats.by_tag["av"] > 0  # the trace did gather AV
    assert watched_results == results
    assert watched_stores == stores
    assert list(watched_stats.by_site_tag.items()) == list(
        stats.by_site_tag.items()
    )


class ScriptedLatency:
    """Latency model returning the given delays in turn."""

    def __init__(self, *delays):
        self.delays = list(delays)

    def sample(self, src, dst, rng):
        return self.delays.pop(0)


def test_nan_latency_rejected_and_fifo_clamp_kept():
    """A NaN latency used to be scheduled (``nan < 0`` is false) and
    left the channel's last delivery time NaN, which turned its FIFO
    clamp off for good: every later ``when < nan`` test is false."""
    env, net = make_net(ScriptedLatency(5.0, float("nan"), 1.0, float("nan")))
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on("ping", lambda msg: got.append((env.now, msg.payload)))
    a.send("b", "ping", 1)
    with pytest.raises(ValueError, match="NaN"):
        a.send("b", "ping", 2)
    a.send("b", "ping", 3)  # 1 tick, clamped behind the first
    with pytest.raises(ValueError, match="NaN"):
        a.request("b", "ping", 4)
    env.run()
    assert got == [(5.0, 1), (5.0, 3)]


def test_nan_delivery_perturbation_rejected():
    env, net = make_net(perturb=lambda msg, delay: float("nan"))
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("ping", lambda msg: None)
    with pytest.raises(ValueError, match="NaN"):
        a.send("b", "ping")
    assert env.peek() == float("inf")


def test_kernel_perturbation_sees_every_nonzero_delivery_delay():
    """Network.send pushes a delivery's heap key itself, but with the
    kernel's perturbation hook set it schedules through
    ``env.schedule``: the hook sees each delivery with a nonzero delay
    (after the per-pair FIFO clamp), in send order, and no zero-delay
    one."""
    env, net = make_net(ScriptedLatency(2.0, 0.0, 0.5, 1.5))
    a, b, c = net.endpoint("a"), net.endpoint("b"), net.endpoint("c")
    seen, got = [], []

    def perturb(event, priority, delay):
        seen.append((event.value.payload, priority, delay))
        return delay + 1.0

    env.perturb = perturb
    for endpoint in (a, b, c):
        endpoint.on("ping", lambda msg: got.append((msg.payload, env.now)))
    a.send("b", "ping", 1)
    a.send("c", "ping", 2)  # zero latency: exempt from the hook
    a.send("b", "ping", 3)  # 0.5, clamped behind the first: 2.0
    b.send("a", "ping", 4)
    env.run()
    assert seen == [(1, NORMAL, 2.0), (3, NORMAL, 2.0), (4, NORMAL, 1.5)]
    assert got == [(2, 0.0), (4, 2.5), (1, 3.0), (3, 3.0)]



def test_reply_wakes_its_waiter_with_the_key_succeed_makes():
    """A delivered reply triggers the request's event with the key
    ``succeed`` pushes: the clock's own float, NORMAL, the next seq."""
    env, net = make_net(ConstantLatency(1.5))
    a, b = net.endpoint("a"), net.endpoint("b")
    b.on("double", lambda msg: msg.payload * 2)
    result = a.request("b", "double", 21)
    keys = []

    def spy(msg, _receive=a._receive):
        seq = env._eseq
        _receive(msg)
        keys.append(([k for k in env._queue if k[3] is result], seq))

    a._receive = spy
    env.run()
    [([key], seq)] = keys
    assert key[1:] == (NORMAL, seq, result) and key[0] is env._now
    assert result.ok and result.value == 42 and env.now == 3.0


def test_reply_after_its_request_timed_out_is_ignored():
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")

    def slow(msg):
        yield env.timeout(5)
        return "late"

    b.on("ping", slow)

    def client(env):
        try:
            yield a.request("b", "ping", timeout=2)
        except RequestTimeout:
            return ("timed-out", env.now)

    p = env.process(client(env))
    env.run()
    assert p.value == ("timed-out", 2)
    assert net.stats.sent_total == 2 and env.now == 7.0
    assert a._pending == {}


def test_latency_model_assigned_after_build_is_used_on_next_send():
    env, net = make_net(UniformLatency(0.5, 1.5))
    a, b = net.endpoint("a"), net.endpoint("b")
    got = []
    b.on("ping", lambda msg: got.append((msg.payload, env.now)))
    net.latency = ConstantLatency(3.0)
    a.send("b", "ping", 1)
    env.run()
    net.latency = ConstantLatency(0.25)
    a.send("b", "ping", 2)
    env.run()
    assert got == [(1, 3.0), (2, 3.25)]


def test_uniform_latency_run_is_draw_for_draw_unchanged():
    """A sampled latency model draws from the network's stream once per
    send: a mixed Delay/2PC run with a uniform model, swapped in after
    build, completes in the order (and at the times) it always has."""
    import hashlib

    from repro.cluster import DistributedSystem, paper_config
    from repro.experiments.fig6 import make_paper_trace
    from repro.workload.driver import run_open, split_by_site

    system = DistributedSystem.build(paper_config(
        n_items=10, n_retailers=2, regular_fraction=0.5, seed=0,
    ))
    system.network.latency = UniformLatency(0.5, 1.5)
    trace = make_paper_trace(300, 0, n_items=10, n_retailers=2)
    results = run_open(system, split_by_site(trace), interarrival=0.5)
    rows = [
        (r.request.site, r.request.request_id, r.outcome.value, r.finished_at)
        for r in results
    ]
    assert len(rows) == 300
    assert (system.env.events_processed, system.network.stats.sent_total) == (
        3694, 1184)
    assert hashlib.sha256(repr(rows).encode()).hexdigest() == (
        "6b6970e7ec81602eee4ffaded6471316db5bf940d9a0a825d9b1af20e536339c"
    )
