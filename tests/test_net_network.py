"""Integration tests for Network + Endpoint: RPC, FIFO, faults, timeouts."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net import (
    ConstantLatency,
    CrashedEndpointError,
    EndpointNotFound,
    Network,
    RequestTimeout,
    UniformLatency,
)
from repro.obs.hub import Observability
from repro.sim import Environment, Interrupt
from repro.sim.events import NORMAL, Event


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
    # A crash, as Site.crash makes it: links down, b's processes killed.
    net.faults.crash("b")
    for proc in env.owned("b"):
        proc.kill("b crashed")
    env.run()
    assert p.value == 20.0
    assert net.stats.sent_total == 1


def test_a_handler_still_running_at_a_crashed_endpoint_is_loud():
    """Cutting only the links leaves the handler running; what it sends
    raises rather than slipping out of a dead site."""
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")

    def slow_handler(msg):
        yield env.timeout(5)
        b.send("a", "late")

    b.on("slow", slow_handler)
    a.send("b", "slow")
    env.run(until=3.0)
    net.faults.crash("b")
    with pytest.raises(CrashedEndpointError):
        env.run()


def kill_at(env, net, name, delay):
    """A process that crashes ``name`` as Site.crash does, ``delay``
    from now: links down, then the endpoint's processes killed."""

    def crasher():
        yield env.timeout(delay)
        net.faults.crash(name)
        for proc in env.owned(name):
            proc.kill(f"{name} crashed")

    return env.process(crasher())


def test_handler_finishing_in_the_crash_step_sends_nothing():
    """The handler returns at t = 6 and its site crashes at t = 6: the
    crash no longer finds it (it has left the census), but its reply,
    still queued, must not go out."""
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")

    def slow_handler(msg):
        yield env.timeout(5)
        return "late"

    b.on("slow", slow_handler)
    reply = a.request("b", "slow", timeout=20.0)
    reply.defuse()
    env.run(until=3.0)  # b is running the handler, due back at 6
    kill_at(env, net, "b", 3.0)
    env.run()
    assert isinstance(reply.value, RequestTimeout)
    assert net.stats.sent_total == 1


def test_handler_that_catches_the_crash_sends_nothing():
    """A killed handler may catch the interrupt and return a value; the
    process succeeds with it, but the reply stays home."""
    env, net = make_net(ConstantLatency(1.0))
    a, b = net.endpoint("a"), net.endpoint("b")

    def slow_handler(msg):
        try:
            yield env.timeout(5)
        except Interrupt:
            return "caught"
        return "late"

    b.on("slow", slow_handler)
    reply = a.request("b", "slow", timeout=20.0)
    reply.defuse()
    env.run(until=3.0)
    kill_at(env, net, "b", 0.5)
    env.run()
    assert isinstance(reply.value, RequestTimeout)
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


# -------------------------------------------------------------------- #
# the link path against the pair-keyed accounting it replaced
# -------------------------------------------------------------------- #

VIEWS = ("by_tag", "by_site", "by_site_tag", "by_kind")


class _LedgerStats:
    """The accounting ``NetworkStats`` kept before links: one ledger
    keyed ``(src, dst, tag, kind)``, folded into the views on read in
    its insertion order."""

    def __init__(self):
        self.sent_total = self.dropped_total = self.bytes_total = 0
        self._ledger = Counter()
        self._views = {name: Counter() for name in VIEWS}
        self.links = {}  # the endpoints' link rows: never filled here

    def record_send(self, msg, size=None):
        self.sent_total += 1
        self._ledger[(msg.src, msg.dst, msg.tag, msg.kind)] += 1

    def record_drop(self, msg):
        self.dropped_total += 1

    def view(self, name):
        views = self._views
        for (src, dst, tag, kind), n in self._ledger.items():
            views["by_tag"][tag] += n
            views["by_site"][src] += n
            views["by_site"][dst] += n
            views["by_site_tag"][(src, tag)] += n
            views["by_site_tag"][(dst, tag)] += n
            views["by_kind"][kind] += n
        self._ledger.clear()
        return views[name]


class _PairClockNetwork(Network):
    """``Network.send`` as it was: the ledger above and a
    ``{(src, dst): last delivery}`` FIFO clamp; ``link`` is ignored."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.stats = _LedgerStats()
        self._last_delivery = {}

    def send(self, msg, link=None):
        src, dst = msg.src, msg.dst
        if dst not in self._endpoints:
            raise EndpointNotFound(dst)
        self.stats.record_send(msg)
        now = self.env.now
        for fn in self._on_send:
            fn(now, src, msg)
        if not self.faults.quiet and self.faults.should_drop(src, dst):
            self.stats.record_drop(msg)
            for fn in self._on_drop:
                fn(now, src, msg)
            return
        delay = self.latency.sample(src, dst, self.rng)
        if self.perturb is not None:
            delay = self.perturb(msg, delay)
        when = now + delay
        when = max(when, self._last_delivery.get((src, dst), when))
        self._last_delivery[(src, dst)] = when
        delivery = Event(self.env)
        delivery._value = msg
        delivery.callbacks.append(self._deliver)
        self.env.schedule(delivery, delay=when - now)


LINK_SITES = ("s0", "s1", "s2")
#: ``ping.a`` replies from a plain handler, ``job.b`` from a generator
#: after a tick, ``note.c`` never replies
LINK_KINDS = ("ping.a", "job.b", "note.c")
#: "" and each kind's own prefix are default tags; the rest are not
LINK_TAGS = ("", "ping", "job", "note", "x")

_site = st.sampled_from(LINK_SITES)
_kind = st.sampled_from(LINK_KINDS)
_tag = st.sampled_from(LINK_TAGS)
LINK_OPS = st.lists(st.one_of(
    st.tuples(st.just("send"), _site, _site, _kind, _tag),
    st.tuples(st.just("request"), _site, _site, _kind, _tag,
              st.sampled_from([None, 2.0])),
    # Network.send without a link, and record_send without a send
    st.tuples(st.just("direct"), _site, _site, _kind, _tag),
    st.tuples(st.just("record"), _site, _site, _kind, _tag),
    st.tuples(st.just("crash"), _site),
    st.tuples(st.just("recover"), _site),
    st.tuples(st.just("drops"), st.sampled_from([0.0, 0.3])),
    st.tuples(st.just("read"), st.sampled_from(VIEWS)),
    st.tuples(st.just("wait"), st.sampled_from([0.5, 1.5])),
), max_size=60)


def _run_link_traffic(network_class, ops, perturb, seed):
    """Drive ``ops`` through a fresh three-site network; returns every
    tap event in order and what each ``read`` op saw."""
    from repro.net.message import Message

    env = Environment()
    network = network_class(
        env, latency=UniformLatency(0.1, 3.0),
        rng=np.random.default_rng(seed), obs=Observability(enabled=False),
    )
    jitter = np.random.default_rng(seed + 1)
    if perturb == "identity":
        network.perturb = lambda msg, delay: delay
    elif perturb == "jitter":
        network.perturb = lambda msg, delay: delay + float(jitter.uniform(0, 2))
    log = []
    for tap in ("msg.send", "msg.recv", "msg.drop"):
        network.obs.subscribe(
            tap, lambda now, site, msg, tap=tap: log.append((tap, now, site, msg))
        )
    endpoints = {name: network.endpoint(name) for name in LINK_SITES}

    def job(msg):
        yield env.timeout(1.0)
        return msg.payload

    for endpoint in endpoints.values():
        endpoint.on("ping.a", lambda msg: msg.payload)
        endpoint.on("job.b", job)
        endpoint.on("note.c", lambda msg: None)

    def client(endpoint, dst, kind, payload, tag, timeout):
        try:
            reply = yield endpoint.request(dst, kind, payload, tag, timeout)
        except (RequestTimeout, CrashedEndpointError) as exc:
            reply = type(exc).__name__
        log.append(("reply", env.now, endpoint.name, reply))

    def driver():
        for n, (op, *args) in enumerate(ops):
            if op in ("send", "request", "direct", "record"):
                src, dst, kind, tag, *timeout = args
                endpoint = endpoints[src]
                try:
                    if op == "send":
                        endpoint.send(dst, kind, n, tag)
                    elif op == "request":
                        env.process(client(endpoint, dst, kind, n, tag, *timeout))
                    else:
                        msg = Message(src, dst, kind, n, tag, msg_id=-n)
                        if op == "direct":
                            network.send(msg)
                        else:
                            network.stats.record_send(msg)
                except CrashedEndpointError:
                    log.append(("crashed", env.now, src, n))
            elif op == "crash":
                # Fail-stop, as Site.crash makes it: the site's handlers
                # end with its links.
                network.faults.crash(args[0])
                for proc in env.owned(args[0]):
                    proc.kill(f"{args[0]} crashed")
            elif op == "recover":
                network.faults.recover(args[0])
            elif op == "drops":
                network.faults.set_drop_probability(args[0])
            elif op == "read":
                stats = network.stats
                view = (
                    stats.view(args[0]) if isinstance(stats, _LedgerStats)
                    else getattr(stats, args[0])
                )
                log.append(("read", env.now, args[0], list(view.items())))
            else:
                yield env.timeout(args[0])

    env.process(driver())
    env.run()
    return network, log


class TestLinkPath:
    """Per-pair links (FIFO clock and count cells on one object) deliver
    and count exactly what the pair dict and the 4-tuple ledger did."""

    @settings(max_examples=300, deadline=None)
    @given(ops=LINK_OPS, perturb=st.sampled_from([None, "identity", "jitter"]),
           seed=st.integers(0, 3))
    def test_links_deliver_and_count_as_the_pair_ledger_did(
        self, ops, perturb, seed
    ):
        network, log = _run_link_traffic(Network, ops, perturb, seed)
        reference, expected = _run_link_traffic(
            _PairClockNetwork, ops, perturb, seed
        )
        assert log == expected  # every send, delivery, drop and read
        stats, ref = network.stats, reference.stats
        for name in VIEWS:
            # list(items()) compares key order as well as values
            assert list(getattr(stats, name).items()) == list(
                ref.view(name).items()
            ), name
        assert (stats.sent_total, stats.dropped_total) == (
            ref.sent_total, ref.dropped_total
        )
        assert network.env._eseq == reference.env._eseq
        assert network.env.events_processed == reference.env.events_processed


#: what the network keeps per active directed pair on the 10 000-update
#: scale episode: 186 B (tracemalloc's count), each pair's link, count
#: cells, FIFO clock, first-use entries and slot in its sender's row;
#: the ``(src, dst)`` clock dict and the ``(src, dst, tag, kind)`` ledger
#: kept 247 B
NET_BYTES_PER_PAIR = 200


def test_network_bytes_per_pair_are_bounded():
    """What the network retains per directed pair that carried a
    message: tracemalloc's count of the live blocks that
    ``repro/net/network.py`` and ``repro/net/stats.py`` allocated during
    the episode, less the kernel's queue, per pair. The delivery keys'
    times are excluded: the clock hands them to every timestamp stored
    at that instant. A dict key table the interpreter takes from its
    free list counts where it was first allocated, so most links' cell
    tables fall outside this count."""
    import gc
    import inspect
    import tracemalloc

    from repro.cluster import DistributedSystem, Topology, item_ids, paper_config
    from repro.experiments.scale import make_scale_trace
    from repro.net.stats import NetworkStats
    from repro.workload.driver import run_closed

    topology = Topology.parse("regional:7x6:s2", item_ids(10_000))
    trace = make_scale_trace(topology, 10_000, 0)
    system = DistributedSystem.build(
        paper_config(n_items=10_000, seed=0, topology=topology)
    )
    paths = {inspect.getsourcefile(Network), inspect.getsourcefile(NetworkStats)}
    lines, first = inspect.getsourcelines(Network.send)
    [push] = [first + i for i, line in enumerate(lines) if "heappush(" in line]
    gc.collect()
    tracemalloc.start()
    try:
        run_closed(system, trace)
        system.env._queue.clear()  # in-flight deliveries and the heap
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(
        stat.size for stat in snapshot.statistics("lineno")
        if stat.traceback[0].filename in paths
        and stat.traceback[0].lineno != push
    )
    pairs = sum(len(row) for row in system.network.stats.links.values())
    assert pairs == 162
    assert retained / pairs <= NET_BYTES_PER_PAIR
