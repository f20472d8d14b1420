"""Unit tests for Message, NetworkStats, and latency models."""

from collections import Counter

import numpy as np
import pytest

from repro.net import (
    ConstantLatency,
    LognormalLatency,
    Message,
    Network,
    NetworkStats,
    PairwiseLatency,
    UniformLatency,
    correspondences,
)
from repro.net.message import _KINDS
from repro.obs.hub import Observability
from repro.sim import Environment

NAN = float("nan")


class TestMessage:
    def test_unique_ids(self):
        a = Message("s0", "s1", "av.request")
        b = Message("s0", "s1", "av.request")
        assert a.msg_id != b.msg_id

    def test_default_tag_from_kind_prefix(self):
        assert Message("a", "b", "av.request").tag == "av"
        assert Message("a", "b", "ping").tag == "ping"

    def test_explicit_tag_kept(self):
        assert Message("a", "b", "av.request", tag="delay").tag == "delay"

    def test_is_reply(self):
        req = Message("a", "b", "x", expects_reply=True)
        rep = Message("b", "a", "x.reply", reply_to=req.msg_id)
        assert not req.is_reply and rep.is_reply

    def test_str_contains_route(self):
        m = Message("a", "b", "x")
        assert "a->b" in str(m)


class TestEnvelopeContract:
    """What every reader of a Message relies on, whatever builds it."""

    FIELDS = (
        "src", "dst", "kind", "payload", "tag", "msg_id", "reply_to",
        "expects_reply",
    )

    @pytest.mark.parametrize("name", FIELDS)
    def test_fields_are_read_only(self, name):
        msg = Message("a", "b", "av.request", payload={"n": 1}, msg_id=3)
        with pytest.raises(AttributeError):
            setattr(msg, name, None)
        assert msg == Message("a", "b", "av.request", payload={"n": 1}, msg_id=3)

    def test_no_new_attributes(self):
        with pytest.raises(AttributeError):
            Message("a", "b", "k").note = "x"

    def test_kind_and_tag_are_interned_from_fresh_strings(self):
        # "".join builds a new string object each call
        kind = "".join(["imm.", "prepare"])
        tag = "".join(["im", "m"])
        first = Message("a", "b", "imm.prepare")
        fresh = Message("a", "b", kind)
        assert fresh.kind is first.kind and fresh.kind is not kind
        assert fresh.tag is first.tag == "imm"
        explicit = Message("a", "b", "x.y", tag=tag)
        assert explicit.tag is Message("a", "b", "z", tag="imm").tag

    def test_default_and_explicit_tags(self):
        assert Message("a", "b", "imm.prepare.reply").tag == "imm"
        assert Message("a", "b", "plain").tag == "plain"
        assert Message("a", "b", "av.request", tag="").tag == "av"
        assert Message("a", "b", "av.request", tag="delay").tag == "delay"

    def test_positional_and_keyword_construction_agree(self):
        positional = Message("a", "b", "k.v", {"x": 1}, "t", 7, 5, True)
        keyword = Message(
            src="a", dst="b", kind="k.v", payload={"x": 1}, tag="t",
            msg_id=7, reply_to=5, expects_reply=True,
        )
        assert positional == keyword
        assert [getattr(positional, f) for f in self.FIELDS] == [
            "a", "b", "k.v", {"x": 1}, "t", 7, 5, True,
        ]

    def test_defaults(self):
        msg = Message("a", "b", "k")
        assert msg.payload is None and msg.reply_to is None
        assert msg.expects_reply is False
        assert isinstance(msg.msg_id, int) and msg.msg_id > 0
        assert Message("a", "b", "k", msg_id=0).msg_id == 0

    def test_str_text(self):
        assert str(Message("s0", "s1", "av.request", msg_id=12)) == (
            "<av.request #12 s0->s1>"
        )
        assert str(
            Message("s1", "s0", "av.request.reply", msg_id=13, reply_to=12)
        ) == "<av.request.reply #13 s1->s0 reply_to=12>"

    def test_is_reply_keys_on_reply_to_only(self):
        assert not Message("a", "b", "x", expects_reply=True).is_reply
        assert Message("b", "a", "x.reply", reply_to=0).is_reply
        assert not Message("b", "a", "x.reply").is_reply


def _wired_pair():
    """Endpoints ``a`` and ``b`` on one network, and the list of every
    envelope the network is handed (its ``msg.send`` tap)."""
    env = Environment()
    net = Network(env, rng=np.random.default_rng(0),
                  obs=Observability(enabled=False))
    sent = []
    net.obs.subscribe_fields(
        lambda kind, _now, fields: kind == "msg.send" and sent.append(fields["msg"])
    )
    return env, net.endpoint("a"), net.endpoint("b"), sent


def _assert_same_envelope(msg, expected):
    """Equal field by field, and the same kind and tag objects."""
    assert type(msg) is Message
    assert tuple(msg) == tuple(expected)
    assert msg.kind is expected.kind and msg.tag is expected.tag


class TestEndpointEnvelopes:
    """``send``, ``request`` and ``reply`` build their envelopes from the
    kind memo without calling the constructor; each must be the
    envelope ``Message(...)`` builds from the same fields."""

    def test_send_default_and_explicit_tag(self):
        env, a, b, sent = _wired_pair()
        b.on("env.note", lambda msg: None)
        a.send("b", "env.note", {"n": 1})
        a.send("b", "".join(["env.", "note"]), 2, tag="".join(["ac", "ct"]))
        env.run()
        first, second = sent
        _assert_same_envelope(
            first, Message("a", "b", "env.note", {"n": 1}, "", first.msg_id))
        _assert_same_envelope(
            second, Message("a", "b", "env.note", 2, "acct", second.msg_id))
        assert (first.tag, second.tag) == ("env", "acct")

    def test_request_and_reply(self):
        env, a, b, sent = _wired_pair()
        b.on("env.ask", lambda msg: msg.payload + 1)

        def client():
            yield a.request("b", "env.ask", 1)
            return (yield a.request("b", "env.ask", 2, tag="ctl"))

        proc = env.process(client())
        env.run()
        assert proc.value == 3
        ask, answer, tagged_ask, tagged_answer = sent
        for req, rep in ((ask, answer), (tagged_ask, tagged_answer)):
            _assert_same_envelope(req, Message(
                "a", "b", "env.ask", req.payload, req.tag, req.msg_id,
                None, True))
            _assert_same_envelope(rep, Message(
                "b", "a", "env.ask.reply", req.payload + 1, req.tag,
                rep.msg_id, req.msg_id))
        assert (ask.tag, tagged_answer.tag) == ("env", "ctl")

    def test_kind_seen_for_the_first_time(self):
        """A kind no handler registered: ``send`` fills the memo on
        first use; a reply sent by hand goes through the constructor
        once, then through the memo."""
        env, a, b, sent = _wired_pair()
        kind = "".join(["env.", "unseen", str(id(sent))])
        assert kind not in _KINDS
        a.send("b", kind, tag="")
        request = Message("b", "a", kind, expects_reply=True, msg_id=90)
        a.reply(request, "first")
        a.reply(request, "again")
        sent_msg, *replies = sent
        assert kind in _KINDS and len(replies) == 2
        _assert_same_envelope(
            sent_msg, Message("a", "b", kind, None, "", sent_msg.msg_id))
        for rep, payload in zip(replies, ("first", "again")):
            _assert_same_envelope(rep, Message(
                "a", "b", kind + ".reply", payload, request.tag,
                rep.msg_id, 90))


class TestNetworkStats:
    def test_correspondence_is_half_messages(self):
        assert correspondences(10) == 5.0
        stats = NetworkStats()
        for _ in range(4):
            stats.record_send(Message("a", "b", "k"))
        assert stats.correspondences_total == 2.0

    def test_per_site_counts_sender_and_receiver(self):
        stats = NetworkStats()
        stats.record_send(Message("a", "b", "k"))
        assert stats.by_site["a"] == 1 and stats.by_site["b"] == 1
        assert stats.correspondences_for_site_tags("a", ["k"]) == 0.5
        assert stats.correspondences_for_site_tags("b", ["k"]) == 0.5

    def test_tag_accounting(self):
        stats = NetworkStats()
        stats.record_send(Message("a", "b", "av.request"))
        stats.record_send(Message("b", "a", "av.request.reply", tag="av"))
        stats.record_send(Message("a", "b", "imm.lock"))
        assert stats.by_tag["av"] == 2 and stats.by_tag["imm"] == 1
        assert stats.correspondences_for_tag("av") == 1.0

    def test_str(self):
        stats = NetworkStats()
        stats.record_send(Message("a", "b", "av.x"))
        assert "av=1" in str(stats)


class TestLatencyModels:
    def setup_method(self):
        self.rng = np.random.default_rng(0)

    def test_constant(self):
        m = ConstantLatency(2.5)
        assert m.sample("a", "b", self.rng) == 2.5
        with pytest.raises(ValueError):
            ConstantLatency(-1)

    def test_uniform_bounds(self):
        m = UniformLatency(1.0, 2.0)
        samples = [m.sample("a", "b", self.rng) for _ in range(200)]
        assert all(1.0 <= s <= 2.0 for s in samples)
        assert max(samples) > min(samples)
        with pytest.raises(ValueError):
            UniformLatency(2.0, 1.0)
        with pytest.raises(ValueError):
            UniformLatency(-1.0, 1.0)

    def test_lognormal_positive(self):
        m = LognormalLatency(0.0, 1.0)
        assert all(m.sample("a", "b", self.rng) > 0 for _ in range(100))
        with pytest.raises(ValueError):
            LognormalLatency(0.0, -1.0)

    @pytest.mark.parametrize("make", [
        lambda: ConstantLatency(NAN),
        lambda: UniformLatency(NAN, 1.0),
        lambda: UniformLatency(0.5, NAN),
        lambda: LognormalLatency(NAN, 0.5),
        lambda: LognormalLatency(0.0, NAN),
    ], ids=["constant", "uniform-low", "uniform-high", "lognormal-mu",
            "lognormal-sigma"])
    def test_nan_parameters_rejected(self, make):
        """A NaN passes a ``< 0`` test, so it used to be accepted here
        and fail only at the first send."""
        with pytest.raises(ValueError):
            make()

    def test_pairwise_override_and_symmetry(self):
        m = PairwiseLatency(ConstantLatency(1.0))
        m.set("maker", "r1", ConstantLatency(5.0))
        assert m.sample("maker", "r1", self.rng) == 5.0
        assert m.sample("r1", "maker", self.rng) == 5.0  # symmetric fallback
        assert m.sample("r1", "r2", self.rng) == 1.0

    def test_pairwise_asymmetric(self):
        m = PairwiseLatency(ConstantLatency(1.0), symmetric=False)
        m.set("a", "b", ConstantLatency(9.0))
        assert m.sample("a", "b", self.rng) == 9.0
        assert m.sample("b", "a", self.rng) == 1.0


class TestNetworkStatsBytes:
    def test_dropped_bytes_counted_but_still_transmitted(self):
        stats = NetworkStats()
        stats.record_send(Message("a", "b", "k"), size=100)
        stats.record_drop(Message("a", "b", "k"))
        assert stats.bytes_total == 100  # wire bytes were spent
        assert stats.dropped_total == 1  # ... but never arrived

    def test_drop_without_size_model_keeps_zero_bytes(self):
        stats = NetworkStats()
        stats.record_drop(Message("a", "b", "k"))
        assert stats.bytes_total == 0 and stats.dropped_total == 1


class _EagerStats:
    """The per-message accounting ``record_send`` used to do, kept as
    the reference the folded views must equal."""

    NAMES = ("by_tag", "by_site", "by_site_tag")

    def __init__(self):
        self.sent_total = 0
        for name in self.NAMES:
            setattr(self, name, Counter())

    def record_send(self, msg):
        self.sent_total += 1
        self.by_tag[msg.tag] += 1
        self.by_site[msg.src] += 1
        self.by_site[msg.dst] += 1
        self.by_site_tag[(msg.src, msg.tag)] += 1
        self.by_site_tag[(msg.dst, msg.tag)] += 1


def _assert_views_equal(stats, reference):
    assert stats.sent_total == reference.sent_total
    for name in _EagerStats.NAMES:
        # list(items()) compares key order as well as values
        assert list(getattr(stats, name).items()) == list(
            getattr(reference, name).items()
        ), name


class TestFoldedViews:
    SITES = ["s0", "s1", "s2", "s3", "s4"]
    KINDS = ["av.request", "av.request.reply", "imm.prepare", "prop.push", "ping"]

    @pytest.mark.parametrize("seed", range(8))
    def test_views_equal_eager_counting_under_interleaved_reads(self, seed):
        rng = np.random.default_rng(seed)
        stats, reference = NetworkStats(), _EagerStats()
        for _ in range(600):
            src, dst = rng.choice(self.SITES, size=2, replace=False)
            kind = self.KINDS[int(rng.integers(len(self.KINDS)))]
            tag = "" if rng.random() < 0.5 else "x"
            msg = Message(str(src), str(dst), kind, tag=tag)
            stats.record_send(msg)
            reference.record_send(msg)
            # exact before any read: sent_total is not part of the fold
            assert stats.sent_total == reference.sent_total
            action = rng.random()
            if action < 0.05:
                name = _EagerStats.NAMES[int(rng.integers(len(_EagerStats.NAMES)))]
                assert getattr(stats, name) == getattr(reference, name)
            elif action < 0.10:
                _assert_views_equal(stats, reference)
            elif action < 0.15:
                tags = ["av", "x", "ping"]
                assert stats.correspondences_for_tags(tags) == correspondences(
                    sum(reference.by_tag[t] for t in tags)
                )
                assert stats.correspondences_for_site_tags("s1", tags) == (
                    correspondences(
                        sum(reference.by_site_tag[("s1", t)] for t in tags)
                    )
                )
        _assert_views_equal(stats, reference)

    def test_back_to_back_reads_fold_once(self):
        stats, reference = NetworkStats(), _EagerStats()
        for i in range(40):
            msg = Message(f"s{i % 3}", f"s{(i + 1) % 3}", "ping", tag="x")
            stats.record_send(msg)
            reference.record_send(msg)
        _assert_views_equal(stats, reference)
        # Nothing was sent since that read: the next one walks no cell,
        # so a count planted in a cell (no send) stays out of the views.
        link = stats.links["s0"]["s1"]
        cell = next(iter(link))
        link[cell] += 5
        _assert_views_equal(stats, reference)
        _assert_views_equal(stats, reference)
        link[cell] -= 5

    def test_a_read_after_record_send_alone_sees_it(self):
        stats, reference = NetworkStats(), _EagerStats()
        msg = Message("s0", "s1", "ping")
        for expected in (1, 2):
            stats.record_send(msg)
            reference.record_send(msg)
            assert stats.by_site_tag[("s0", "ping")] == expected
            assert stats.correspondences_for_site_tags("s1", ["ping"]) == (
                expected / 2
            )
            _assert_views_equal(stats, reference)

    def test_by_kind_counts_every_send_a_tap_sees_drops_included(self):
        from repro.cluster import DistributedSystem, paper_config
        from repro.net.reliable import ReliabilityParams
        from repro.workload.driver import run_closed
        from repro.experiments.fig6 import make_paper_trace

        system = DistributedSystem.build(paper_config(
            n_items=6, seed=0, observe=True, request_timeout=8.0,
            reliability=ReliabilityParams(),
        ))
        tapped = Counter()
        system.obs.subscribe(
            "msg.send", lambda now, site, msg: tapped.update((msg.kind,))
        )
        system.network.faults.set_drop_probability(0.1)
        run_closed(system, make_paper_trace(150, 0, n_items=6))
        stats = system.network.stats
        assert stats.dropped_total > 0
        assert stats.by_kind == tapped
        assert sum(stats.by_kind.values()) == stats.sent_total

    def test_by_kind_leaves_the_other_views_unchanged(self):
        rng = np.random.default_rng(0)
        stats, reference = NetworkStats(), _EagerStats()
        kinds = Counter()
        for _ in range(300):
            src, dst = rng.choice(self.SITES, size=2, replace=False)
            kind = self.KINDS[int(rng.integers(len(self.KINDS)))]
            msg = Message(str(src), str(dst), kind)
            stats.record_send(msg)
            reference.record_send(msg)
            kinds[kind] += 1
            if rng.random() < 0.1:
                assert stats.by_kind == kinds
        _assert_views_equal(stats, reference)
        assert list(stats.by_kind.items()) == list(kinds.items())

    def test_str_sees_unfolded_sends(self):
        stats = NetworkStats()
        stats.record_send(Message("a", "b", "av.x"))
        stats.record_send(Message("a", "b", "imm.y"))
        assert "av=1, imm=1" in str(stats)
