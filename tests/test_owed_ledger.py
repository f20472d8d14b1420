"""The owed ledger (``Accelerator.owed``) against a reference model.

The ledger keeps each site's lazy-sync balances keyed by peer, then by
item, with a running pair count and a dirty-item index beside it. The
reference here is the plain layout it replaced: one dict keyed by
``(peer, item)``, holding only non-zero balances.
"""

from __future__ import annotations

import gc
import inspect
import tracemalloc
from collections import Counter
from types import SimpleNamespace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DistributedSystem, Topology, item_ids, paper_config
from repro.core.accelerator import Accelerator
from repro.net.reliable import ReliabilityParams
from repro.workload.driver import run_closed

ITEMS = item_ids(12)
TOPOLOGY = Topology.parse("regional:2x3:s2", ITEMS)
SITES = TOPOLOGY.names
DELTAS = st.sampled_from([-2.0, -1.0, 0.0, 1.0, 2.0])
OPS = ["record", "take", "retain", "clear", "settle"]


def _fold(ref: dict, key: tuple, delta: float) -> None:
    balance = ref.get(key, 0.0) + delta
    if balance == 0.0:
        ref.pop(key, None)
    else:
        ref[key] = balance


def _assert_matches(accel: Accelerator, ref: dict) -> None:
    pairs = {
        (peer, item): balance
        for peer, balances in accel.owed.items()
        for item, balance in balances.items()
    }
    assert pairs == ref
    assert accel.owed_pairs == len(ref)
    assert accel._dirty_items == Counter(item for _peer, item in ref)
    assert accel.unsynced_items() == {item for _peer, item in ref}
    for peer in SITES:
        for item in ITEMS:
            assert accel.owed_to(peer, item) == ref.get((peer, item), 0.0)


def _key(data, ref: dict) -> tuple:
    """A (peer, item) pair, an owed one half the time."""
    if ref and data.draw(st.booleans()):
        return data.draw(st.sampled_from(sorted(ref)))
    return data.draw(st.sampled_from(SITES)), data.draw(st.sampled_from(ITEMS))


@settings(max_examples=80, deadline=None, derandomize=True)
@given(site=st.sampled_from(SITES), steps=st.integers(0, 40), data=st.data())
def test_ledger_equals_a_pair_keyed_reference(site, steps, data):
    system = DistributedSystem.build(paper_config(
        n_items=len(ITEMS), seed=0, topology=TOPOLOGY,
        reliability=ReliabilityParams(),
    ))
    accel = system.sites[site].accelerator
    ref: dict = {}
    for _ in range(steps):
        op = data.draw(st.sampled_from(OPS))
        if op == "record":
            item, delta = data.draw(st.sampled_from(ITEMS)), data.draw(DELTAS)
            accel.record_unsynced(item, delta)
            for peer in accel.replica_peers(item):
                _fold(ref, (peer, item), delta)
        elif op == "take":
            peer, item = _key(data, ref)
            assert accel.take_owed(peer, item) == ref.pop((peer, item), 0.0)
        elif op == "retain":
            (peer, item), delta = _key(data, ref), data.draw(DELTAS)
            accel.retain_owed(peer, item, delta)
            _fold(ref, (peer, item), delta)
        elif op == "clear":
            item = _key(data, ref)[1]
            accel.clear_owed_item(item)
            for key in [k for k in ref if k[1] == item]:
                del ref[key]
        else:  # a reliable push of `delta` settles, acked or not
            key, delta = _key(data, ref), data.draw(DELTAS)
            acked = data.draw(st.booleans())
            accel._sync_inflight.add(key)
            accel._settle_sync(key, delta, SimpleNamespace(ok=True, value=acked))
            if acked and key in ref:
                _fold(ref, key, -delta)
        _assert_matches(accel, ref)


def test_sync_sends_each_balance_once_in_peer_order():
    """Without the reliability layer a sync pass claims and sends every
    balance, peers in sorted order within each dirty item."""
    system = DistributedSystem.build(paper_config(
        n_items=len(ITEMS), seed=0, topology=TOPOLOGY,
    ))
    leaf = TOPOLOGY.leaves[0]
    accel = system.sites[leaf].accelerator
    sent = []
    accel.endpoint.send = lambda peer, kind, payload, tag: sent.append(
        (payload["item"], peer, payload["delta"])
    )
    served = TOPOLOGY.interest_of(leaf)
    for k, item in enumerate(served):
        accel.record_unsynced(item, -1.0 - k)
    expected = [
        (item, peer, -1.0 - k)
        for k, item in sorted(enumerate(served), key=lambda p: p[1])
        for peer in sorted(accel.replica_peers(item))
    ]
    assert accel.sync_all() == len(expected)
    assert sent == expected
    assert accel.owed_pairs == 0 and not accel.unsynced_items()


#: owed-ledger bytes retained per balance by a 10 000-update episode on
#: the 50-site benchmark topology: 113 B keyed by a (peer, item) tuple,
#: 40 B keyed by peer, then item
OWED_BYTES_PER_BALANCE = 64


def test_owed_ledger_bytes_per_balance_are_bounded():
    """What the ledger keeps per (peer, item) balance: tracemalloc's
    count of the live blocks the ledger's own methods allocated during
    the episode (the per-peer dicts, their slots, summed balances and
    the dirty-item index), per balance left owed at its end."""
    from repro.experiments.scale import make_scale_trace

    topology = Topology.parse("regional:7x6:s2", item_ids(10_000))
    trace = make_scale_trace(topology, 10_000, 0)
    system = DistributedSystem.build(
        paper_config(n_items=10_000, seed=0, topology=topology)
    )
    path = inspect.getsourcefile(Accelerator)
    spans = []
    for name in ("record_unsynced", "_set_owed", "_pop_owed", "retain_owed",
                 "clear_owed_item", "sync_item", "_settle_sync"):
        lines, first = inspect.getsourcelines(getattr(Accelerator, name))
        spans.append(range(first, first + len(lines)))
    gc.collect()
    tracemalloc.start()
    try:
        run_closed(system, trace)
        gc.collect()
        snapshot = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    retained = sum(
        stat.size for stat in snapshot.statistics("lineno")
        if stat.traceback[0].filename == path
        and any(stat.traceback[0].lineno in span for span in spans)
    )
    balances = sum(s.accelerator.owed_pairs for s in system.sites.values())
    assert balances == 12_516
    assert retained / balances <= OWED_BYTES_PER_BALANCE
