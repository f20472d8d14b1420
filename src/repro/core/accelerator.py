"""The accelerator (paper §3.3): one per site.

The accelerator is the paper's central artifact — the component placed at
each site that owns the AV management table and realises both update
modes through three functions:

* **checking** — classify each user update as Delay (AV entry exists) or
  Immediate (no AV entry);
* **selecting** — choose which peer to ask for AV
  (:mod:`repro.core.strategies`);
* **deciding** — how much AV to request/grant
  (:mod:`repro.core.policies`).

Construction wires the protocol handlers onto the site's endpoint; the
only entry point users need is :meth:`update`, which returns an event
whose value is the :class:`~repro.core.types.UpdateResult` (a process
only when the update may have to wait).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.av_table import AVTable
from repro.core.beliefs import BeliefTable
from repro.core.delay_update import DelayUpdateProtocol
from repro.core.errors import InvalidVolume
from repro.core.immediate_update import ImmediateUpdateProtocol
from repro.core.overload import OverloadParams
from repro.core.policies import DecidingPolicy, Soda99Policy
from repro.core.strategies import BelievedRichestStrategy, SelectionStrategy
from repro.core.types import UpdateKind, UpdateOutcome, UpdateRequest, UpdateResult
from repro.db.locks import LockManager
from repro.db.storage import Store
from repro.db.transaction import TransactionManager
from repro.net.endpoint import Endpoint
from repro.net.reliable import ReliabilityParams
from repro.obs.hub import NULL_OBS, Observability
from repro.obs.spans import NULL_ROW, PAIR_ROOT
from repro.sim.errors import Interrupt
from repro.sim.events import Event
from repro.sim.process import Process

_new_tuple = tuple.__new__
#: the balances of a peer owed nothing (never written to)
_NO_BALANCES: dict[str, float] = {}


class Accelerator:
    """Per-site protocol engine.

    Parameters
    ----------
    endpoint:
        The site's network endpoint (handlers are registered on it).
    store:
        The site's local replica.
    base_site:
        Name of the base (primary-copy) site, normally the maker.
    strategy, policy:
        Selecting strategy and deciding policy; default to the paper's
        (believed-richest, SODA'99 half-grant).
    rng:
        Random stream for protocol jitter (immediate-update backoff).
        Required: pass a dedicated :class:`~repro.sim.rng.RngRegistry`
        stream; there is deliberately no seeded default (two sites
        sharing stream 0 is a silent determinism bug).
    propagate:
        Push committed Delay deltas to peers asynchronously.
    request_timeout:
        Timeout for AV transfer requests; ``None`` waits forever (fine
        without faults; fault experiments set one).
    max_rounds:
        Extra all-peer passes allowed while gathering AV, provided the
        previous pass made progress.
    max_immediate_retries:
        Attempts before an Immediate Update gives up under contention.
    reliability:
        ``None`` (default) keeps the seed's honest-loss behaviour. A
        :class:`~repro.net.reliable.ReliabilityParams` turns on the
        robustness layer: reliable (ack/retransmit, effectively-once)
        propagation, AV grant leases, and the crash-recovery rejoin
        protocol.
    interest:
        This site's :class:`~repro.cluster.topology.InterestView`: the
        items it serves, the peers replicating each of them and its
        supply-tree parent. Required; in the paper layout every peer
        replicates every item.
    """

    def __init__(
        self,
        endpoint: Endpoint,
        store: Store,
        base_site: str,
        interest,  # repro.cluster.topology.InterestView
        strategy: Optional[SelectionStrategy] = None,
        policy: Optional[DecidingPolicy] = None,
        rng: Optional[np.random.Generator] = None,
        obs: Optional[Observability] = None,
        propagate: bool = False,
        request_timeout: Optional[float] = None,
        max_rounds: int = 8,
        max_immediate_retries: int = 10,
        allow_transfers: bool = True,
        reliability: Optional[ReliabilityParams] = None,
        inject: str = "",
        overload: Optional[OverloadParams] = None,
    ) -> None:
        self.endpoint = endpoint
        self.env = endpoint.env
        self.site = endpoint.name
        self.store = store
        self.base_site = base_site
        #: this site's slice of the deployment topology (items served,
        #: per-item peers, supply-tree parent)
        self.interest = interest
        # the view's peer cache and its key, read by record_unsynced
        self._sites_of = interest.sites_of
        self._peers_by_set = interest.peers_by_set
        #: aggregator to ask FIRST in the Delay gather loop (hierarchical
        #: AV); ``None`` keeps the paper's strategy-only gather
        self.pool_parent = interest.pool_parent
        self.obs = obs if obs is not None else NULL_OBS
        env = self.env
        clock = lambda: env._now  # what Environment.now returns, one call less
        self.av_table = AVTable(self.site, obs=self.obs, clock=clock)
        self.beliefs = BeliefTable(self.site)
        self.locks = LockManager(self.env, self.site, obs=self.obs)
        self.txns = TransactionManager(store)
        self.strategy = strategy if strategy is not None else BelievedRichestStrategy()
        self.policy = policy if policy is not None else Soda99Policy()
        if rng is None:
            # A default seed here would silently hand every accelerator
            # the *same* stream; thread one from RngRegistry instead
            # (e.g. ``rngs.stream(f"accel.{site}")``).
            raise ValueError(
                f"Accelerator {self.site!r} requires an explicit rng stream"
            )
        self.rng = rng
        self.propagate = propagate
        self.request_timeout = request_timeout
        self.max_rounds = max_rounds
        self.max_immediate_retries = max_immediate_retries
        #: False = static escrow: never request AV from peers (ablation D)
        self.allow_transfers = allow_transfers
        #: TEST-ONLY planted-bug selector (see SystemConfig.inject);
        #: empty string = correct protocol
        self.inject = inject

        self.reliability = reliability
        if reliability is not None:
            from repro.core.leases import LeaseTable
            from repro.net.reliable import ReliableSession

            self.reliable = ReliableSession(endpoint, self.rng, reliability)
            self.leases = LeaseTable(self, reliability)
        else:
            self.reliable = None
            self.leases = None
        #: non-None while a recovered site re-syncs; new updates wait on
        #: it (only ever set when the reliability layer is on)
        self._rejoin_gate = None
        #: (peer, item) balances with a reliable delivery in flight —
        #: guards against sending the same balance twice concurrently
        self._sync_inflight: set[tuple[str, str]] = set()
        #: the periodic processes this site runs (an ordered set); a
        #: crash ends them, the restart starts them again
        self.daemons: dict = {}

        self.delay = DelayUpdateProtocol(self)
        self.immediate = ImmediateUpdateProtocol(self)
        from repro.core.reclassify import ReclassificationProtocol

        self.reclassify = ReclassificationProtocol(self)
        from repro.core.reads import ReadProtocol

        self.reads = ReadProtocol(self)

        # Overload robustness layer (admission control, 2PC circuit
        # breaker, degradation state machine). Wired after the protocols
        # it instruments; None keeps every seed path byte-identical.
        if overload is not None:
            from repro.core.overload import OverloadController

            self.overload = OverloadController(self, overload)
        else:
            self.overload = None

        #: counts by kind (diagnostics)
        self.updates_started = 0
        # Per-site request ids keep repeated runs in one process
        # bit-identical (the module-global fallback does not).
        from itertools import count as _count

        self._req_ids = _count(1)

        #: committed Delay deltas not yet pushed, **per peer**:
        #: ``peer -> {item: net delta}``, each balance non-zero. Per-peer
        #: balances make batched sync fault-tolerant: a crashed peer's
        #: balance is simply retained until it recovers (a single
        #: aggregate would be lost the first time a sync partially
        #: delivers). Keyed by peer, then item: a site has a handful of
        #: peers, so a balance costs one dict slot and no key tuple.
        #: Eager propagation keeps every peer's balances empty.
        self.owed: dict[str, dict[str, float]] = {}
        #: number of (peer, item) balances in ``owed`` (the backlog the
        #: overload layer, the sampler and the sanitizer read)
        self.owed_pairs = 0
        # Dirty-set index over `owed`: item -> number of (peer, item)
        # balances currently non-zero. Maintained incrementally with
        # `owed_pairs` (see `_set_owed`) so the periodic sync scan
        # touches only dirty items (O(dirty), O(1) when clean) instead of
        # rescanning the whole ledger every pass.
        self._dirty_items: dict[str, int] = {}
        # Freeze/quiesce machinery for reclassification: a frozen item
        # admits no new Delay updates, and `quiesce` fires once in-flight
        # ones drain.
        self._frozen: dict[str, Event] = {}
        self._active_delay: dict[str, int] = {}
        self._quiesce_waiters: dict[str, list[Event]] = {}

    # ---------------------------------------------------------------- #
    # paper functions
    # ---------------------------------------------------------------- #

    def check(self, item: str) -> UpdateKind:
        """The checking function: Delay iff AV is defined for the item."""
        return UpdateKind.DELAY if self.av_table.defined(item) else UpdateKind.IMMEDIATE

    # ---------------------------------------------------------------- #
    # public entry point
    # ---------------------------------------------------------------- #

    def update(self, item: str, delta: float) -> Event:
        """Start an update; the returned event's value is the UpdateResult.

        An update nothing can suspend — no closed gate, local AV that
        covers it — is the paper's zero-communication case and runs
        here, without a process; anything else gets one. An update
        issued at a crashed site runs nothing: it fails at once. A
        fractional ``delta`` raises :class:`InvalidVolume` before any
        state moves: stock is a whole number of units.
        """
        if delta % 1:
            raise InvalidVolume(f"delta {delta} is not a whole number of units")
        # UpdateRequest(site, item, delta, issued_at, request_id)
        req = _new_tuple(UpdateRequest, (
            self.site, item, delta, self.env._now, next(self._req_ids),
        ))
        self.updates_started += 1
        faults = self.endpoint.network.faults
        if not faults.quiet and faults.is_crashed(self.site):
            return Event(self.env).succeed(self._failed(req, self.check(item)))
        av = self.av_table
        if (
            self._rejoin_gate is None
            and item not in self._frozen
            and av.defined(item)
            and (delta >= 0 or av.get(item) >= -delta)
        ):
            return self._update_local(req)
        return self.env.process(self._run(req), owner=self.site)

    def read(self, item: str, consistency=None) -> Process:
        """Start a read; the process yields a ReadResult.

        ``consistency`` is a :class:`~repro.core.reads.ReadConsistency`
        (default LOCAL — instant, zero messages).
        """
        from repro.core.reads import ReadConsistency

        if consistency is None:
            consistency = ReadConsistency.LOCAL
        return self.env.process(
            self.reads.execute(item, consistency), owner=self.site
        )

    def make_regular(self, item: str, av_fraction: float = 1.0, weights=None) -> Process:
        """Start a global reclassification to regular (Delay-eligible).

        Raises :class:`~repro.core.reclassify.ReclassificationError`
        immediately if the item is already regular here.
        """
        from repro.core.reclassify import ReclassificationError

        if self.av_table.defined(item):
            raise ReclassificationError(f"{item!r} is already regular")
        return self.env.process(
            self.reclassify.make_regular(item, av_fraction, weights),
            owner=self.site,
        )

    def make_non_regular(self, item: str) -> Process:
        """Start a global reclassification to non-regular (Immediate).

        Raises :class:`~repro.core.reclassify.ReclassificationError`
        immediately if the item is already non-regular here.
        """
        from repro.core.reclassify import ReclassificationError

        if not self.av_table.defined(item):
            raise ReclassificationError(f"{item!r} is already non-regular")
        return self.env.process(
            self.reclassify.make_non_regular(item), owner=self.site
        )

    def _update_local(self, req: UpdateRequest) -> Event:
        """:meth:`_run` for an update that cannot suspend: same spans and
        checks, no generator. Completion is still one NORMAL zero-delay
        kernel event, so callbacks run where the process event's did; an
        error fails that event instead of raising out of :meth:`update`.

        Nothing here waits, so the span tree needs no handles:
        :meth:`DelayUpdateProtocol.local` writes it as one record, or,
        if a step raises, the rows it reached and its root. With the
        overload layer on, :meth:`_run`'s admission bracket runs here as
        well."""
        env = self.env
        done = Event(env)
        now = env._now
        ovl = self.overload
        try:
            if ovl is not None:
                retry = ovl.admit(now)
                if retry is not None:
                    ovl.record_shed(now, retry)
                    return done.succeed(UpdateResult(
                        req, UpdateKind.DELAY, UpdateOutcome.SHED,
                        finished_at=now, retry_after=retry))
                ovl.begin(now)
            try:
                result = self.delay.local(req, tree=self.obs.recorder.enabled)
            finally:
                if ovl is not None:
                    ovl.end(env._now)
        except Exception as exc:
            return done.fail(exc)
        return done.succeed(result)

    def _failed(self, req: UpdateRequest, kind: UpdateKind) -> UpdateResult:
        """The site is down, or died mid-protocol. The protocol released
        its hold on the way out, so local AV state is exact; volume a
        peer granted while our reply was in flight reverts under its
        lease (or, without leases, is lost in transit — conservative).
        A 2PC that logged its commit did commit: the decision stands."""
        committed = self.immediate.committed(req)
        return UpdateResult(
            request=req, kind=kind, finished_at=self.env.now,
            outcome=UpdateOutcome.COMMITTED if committed else UpdateOutcome.FAILED,
        )

    def _run(self, req: UpdateRequest):
        ovl = self.overload
        if ovl is not None:
            # Admission control: over the inflight budget, the update is
            # shed *now* — a typed rejection with a retry-after hint
            # instead of one more queued process. Shedding happens
            # before the rejoin gate so a recovering site cannot pile up
            # an unbounded backlog behind it either.
            retry = ovl.admit(self.env.now)
            if retry is not None:
                ovl.record_shed(self.env.now, retry)
                return UpdateResult(
                    request=req,
                    kind=self.check(req.item),
                    outcome=UpdateOutcome.SHED,
                    finished_at=self.env.now,
                    retry_after=retry,
                )

        # A recovering site finishes its rejoin round (anti-entropy
        # with live peers) before accepting new updates.
        try:
            while self._rejoin_gate is not None:
                yield self._rejoin_gate
        except Interrupt:  # the site crashed again mid-rejoin
            return self._failed(req, self.check(req.item))

        kind = self.check(req.item)
        root = NULL_ROW
        rec = self.obs.recorder
        if rec.enabled:
            # The update's root span — every child (checking, AV
            # round-trips at either site, lock waits, applies) hangs off
            # its trace id — and the checking function's verdict under
            # it: one pair, closed below. (``_value_`` is what the
            # Python-level ``Enum.value`` property returns.)
            root, _ = rec.open_pair(
                PAIR_ROOT, self.site, self.env._now,
                (req.item, req.delta, kind._value_), request=req.request_id,
            )
        if ovl is not None:
            ovl.begin(self.env.now)
        try:
            if kind is UpdateKind.DELAY:
                result = yield from self.delay.execute(req, span=root)
            else:
                result = yield from self.immediate.execute(req, span=root)
        except Interrupt:  # the site crashed (Site.crash)
            result = self._failed(req, kind)
        finally:
            if ovl is not None:
                ovl.end(self.env.now)
        if root is not NULL_ROW:  # unobserved: not even a null call
            rec.close_span(root, self.env._now, ("outcome",),
                           (result.outcome._value_,))
        return result

    # ---------------------------------------------------------------- #
    # helpers used by the protocols
    # ---------------------------------------------------------------- #

    @property
    def now(self) -> float:
        return self.env._now  # what Environment.now returns, one call less

    def live_peers(self) -> list[str]:
        """Peers not currently known-crashed.

        The fault model is crash-visible (retailers learn of a maker
        outage out of band, as the paper's autonomous-decentralised
        systems assume); protocols simply skip crashed peers and rely on
        request timeouts for crashes they race with.
        """
        return self._live(self.endpoint.peers())

    def _live(self, peers: Sequence[str]) -> Sequence[str]:
        """``peers`` minus known-crashed sites: ``peers`` itself, not a
        copy, while no site is down."""
        faults = self.endpoint.network.faults
        if not faults.any_crashed:
            return peers
        return [p for p in peers if not faults.is_crashed(p)]

    def serves_item(self, item: str) -> bool:
        """Whether this site replicates ``item``."""
        return self.interest.serves(item)

    def replica_peers(self, item: str) -> Sequence[str]:
        """Peers replicating ``item``: its interest set minus us, in
        topology order (the view's cached tuple; do not mutate)."""
        return self.interest.peers_for(item)

    def live_neighbors(self) -> Sequence[str]:
        """Live peers sharing at least one item with us (every live peer
        in the paper layout). Rejoin/flush traffic goes only here."""
        return self._live(self.interest.neighbors)

    def live_peers_for(self, item: str) -> Sequence[str]:
        """`replica_peers` minus known-crashed sites (gather candidates):
        the view's tuple itself while no fault is active, with no call."""
        peers = self.interest.peers_for(item)
        return peers if self.endpoint.network.faults.quiet else self._live(peers)

    # ---------------------------------------------------------------- #
    # lazy propagation (batched sync)
    # ---------------------------------------------------------------- #

    def _set_owed(self, peer: str, item: str, balance: float) -> None:
        """Write one owed balance, keeping the pair count and the
        dirty-item index exact.

        Every mutation of ``self.owed`` routes through here or
        :meth:`_pop_owed`, or keeps the same books itself
        (:meth:`record_unsynced`, :meth:`clear_owed_item`): the index is
        what makes the periodic sync scan O(dirty) rather than O(all
        balances).
        """
        if balance == 0.0:
            self._pop_owed(peer, item)
            return
        balances = self.owed.get(peer)
        if balances is None:
            balances = self.owed[peer] = {}
        if item not in balances:
            self.owed_pairs += 1
            self._dirty_items[item] = self._dirty_items.get(item, 0) + 1
        balances[item] = balance

    def _pop_owed(self, peer: str, item: str) -> float:
        """Remove one owed balance (0.0 if absent), updating the books."""
        balances = self.owed.get(peer)
        if balances is None:
            return 0.0
        balance = balances.pop(item, 0.0)
        if balance != 0.0:
            self.owed_pairs -= 1
            remaining = self._dirty_items[item] - 1
            if remaining:
                self._dirty_items[item] = remaining
            else:
                del self._dirty_items[item]
        return balance

    def record_unsynced(self, item: str, delta: float) -> None:
        """Remember a committed Delay delta each replica has not seen yet.

        Only peers in the item's interest set owe a balance — a sync
        push to anyone else would reference an item outside the
        receiver's slice.

        The fan-out is batched: one pass folds the delta into every
        peer balance and reconciles the dirty-item index once, instead
        of a ``_set_owed`` call (two dict probes plus index upkeep) per
        peer. Runs once per committed Delay delta — with eager
        propagation off this is the single hottest owed-ledger path.
        """
        owed = self.owed
        added = 0
        # replica_peers(item), read in this frame: the view's cached
        # tuple for the item's interest set (peers_for fills a miss)
        peers = self._peers_by_set.get(self._sites_of[item])
        if peers is None:
            peers = self.interest.peers_for(item)
        for peer in peers:
            balances = owed.get(peer)
            if balances is None:
                balances = owed[peer] = {}
            old = balances.get(item)
            if old is None:
                if delta != 0.0:
                    balances[item] = delta
                    added += 1
            else:
                balance = old + delta
                if balance == 0.0:
                    del balances[item]
                    added -= 1
                else:
                    balances[item] = balance
        if added:
            self.owed_pairs += added
            dirty = self._dirty_items
            count = dirty.get(item, 0) + added
            if count:
                dirty[item] = count
            else:
                del dirty[item]
        if self.overload is not None:
            # Backpressure: an over-budget backlog is flushed inline
            # instead of growing until the next scheduled sync pass.
            self.overload.note_backlog(self.env.now)

    def owed_to(self, peer: str, item: str) -> float:
        """Net delta ``peer`` has not yet seen for ``item``."""
        return self.owed.get(peer, _NO_BALANCES).get(item, 0.0)

    def take_owed(self, peer: str, item: str) -> float:
        """Claim (and clear) the balance owed to ``peer`` for ``item``."""
        return self._pop_owed(peer, item)

    def retain_owed(self, peer: str, item: str, delta: float) -> None:
        """Fold a delta back into the owed ledger (undelivered push)."""
        self._set_owed(peer, item, self.owed_to(peer, item) + delta)

    def clear_owed_item(self, item: str) -> None:
        """Drop every balance for ``item`` (its value was superseded):
        one pop per peer, not a scan of the ledger."""
        cleared = 0
        for balances in self.owed.values():
            if balances.pop(item, 0.0) != 0.0:
                cleared += 1
        if cleared:
            self.owed_pairs -= cleared
            del self._dirty_items[item]  # it counted exactly these

    def unsynced_items(self) -> set[str]:
        """Items with any pending balance (O(dirty), via the index)."""
        return set(self._dirty_items)

    def sync_item(self, item: str, parent=None, only=None, live=None) -> int:
        """Push the item's batched delta to every live peer it is owed to.

        Returns the number of messages sent — one per (live) peer with a
        balance, however many updates accumulated. Balances owed to
        crashed peers are retained for delivery after recovery.
        ``parent`` is the enclosing sync-pass span, if any; ``only``
        restricts the push to a subset of peers (rejoin flush).

        Without the reliability layer the balance is claimed at send
        time — a dropped message loses it for good (the sanitizer's
        ``prop.lost`` violation). With it, the balance stays owed until
        the reliable delivery acks, so loss can only delay convergence.

        ``live`` lets a scan pass (:meth:`sync_all` / :meth:`sync_to`)
        compute the live-peer set once for the whole pass instead of
        once per dirty item — no event fires between the items of one
        pass, so the set cannot change mid-scan.
        """
        from repro.core.types import TAG_PROPAGATE

        sent = 0
        if live is None:
            live = sorted(set(self.live_peers()))
        rec = self.obs.recorder
        observed = rec.enabled
        if observed:
            span = rec.open_span("sync.push", self.site, self.now,
                                 ("item",), (item,), parent=parent)
        owed = self.owed
        for peer in live:
            if only is not None and peer not in only:
                continue
            delta = owed.get(peer, _NO_BALANCES).get(item, 0.0)
            if delta == 0.0:
                continue
            payload = {"item": item, "delta": delta}
            if observed:
                payload["_obs"] = {"trace": span[0], "span": span[1]}
            if self.reliable is not None:
                key = (peer, item)
                if key in self._sync_inflight:
                    continue  # this balance is already on the wire
                self._sync_inflight.add(key)
                proc = self.reliable.deliver(
                    peer, "prop.push", payload, tag=TAG_PROPAGATE
                )
                proc.callbacks.append(
                    lambda ev, key=key, delta=delta: self._settle_sync(
                        key, delta, ev
                    )
                )
            else:
                self._pop_owed(peer, item)
                self.endpoint.send(peer, "prop.push", payload, tag=TAG_PROPAGATE)
            sent += 1
        if observed:
            rec.close_span(span, self.now, ("messages",), (sent,))
        return sent

    def _settle_sync(self, key: tuple[str, str], delta: float, event) -> None:
        """Resolve a reliable sync delivery: clear the balance on ack.

        Only the delivered snapshot is subtracted — deltas recorded
        while the message was in flight stay owed. An undelivered
        outcome (definitive, via probe) leaves the balance owed for a
        later sync pass to retry under a fresh sequence number. Either
        way the push is off the wire, which may release a `quiesce`.
        """
        self._sync_inflight.discard(key)
        peer, item = key
        if event.ok and event.value is True:
            current = self.owed.get(peer, _NO_BALANCES).get(item)
            # None: superseded (e.g. clear_owed_item during reclassify)
            if current is not None:
                self._set_owed(peer, item, current - delta)
        if (
            item in self._quiesce_waiters
            and item not in self._active_delay
            and not any(k[1] == item for k in self._sync_inflight)
        ):
            for waiter in self._quiesce_waiters.pop(item):
                if not waiter.triggered:
                    waiter.succeed()

    def sync_to(self, peer: str, parent=None) -> int:
        """Push every balance owed to one peer (serves rejoin flushes)."""
        dirty = sorted(self._dirty_items)
        if not dirty:
            return 0
        live = sorted(set(self.live_peers()))
        return sum(
            self.sync_item(item, parent=parent, only={peer}, live=live)
            for item in dirty
        )

    def sync_all(self, parent=None) -> int:
        """Push every pending batched delta; returns messages sent.

        Scans only the dirty-item index — a clean pass is O(1), and a
        dirty one touches exactly the items with outstanding balances.
        The live-peer set is computed once per pass (see
        :meth:`sync_item`).
        """
        dirty = sorted(self._dirty_items)
        if not dirty:
            return 0
        live = sorted(set(self.live_peers()))
        return sum(
            self.sync_item(item, parent=parent, live=live)
            for item in dirty
        )

    # ---------------------------------------------------------------- #
    # freeze / quiesce (used by reclassification)
    # ---------------------------------------------------------------- #

    def freeze(self, item: str) -> None:
        """Stop admitting new Delay updates for ``item`` (idempotent)."""
        if item not in self._frozen:
            self._frozen[item] = Event(self.env)

    def unfreeze(self, item: str) -> None:
        """Re-admit Delay updates; wakes everything waiting on the gate."""
        gate = self._frozen.pop(item, None)
        if gate is not None:
            gate.succeed()

    def frozen_gate(self, item: str):
        """The event a Delay update must wait on, or ``None`` if open."""
        return self._frozen.get(item)

    def quiesce(self, item: str):
        """Event firing once no Delay update on ``item`` is in flight and
        no reliable sync push of it is on the wire.

        A push on the wire is still owed here and will land at its peer
        anyway: a reclassification that claimed the balance before the
        ack would count it twice.
        """
        event = Event(self.env)
        if item in self._active_delay or any(
            k[1] == item for k in self._sync_inflight
        ):
            self._quiesce_waiters.setdefault(item, []).append(event)
        else:
            event.succeed()
        return event

    def _delay_begin(self, item: str) -> None:
        self._active_delay[item] = self._active_delay.get(item, 0) + 1

    def _delay_end(self, item: str) -> None:
        remaining = self._active_delay.get(item, 0) - 1
        if remaining > 0:
            self._active_delay[item] = remaining
            return
        self._active_delay.pop(item, None)
        if item in self._quiesce_waiters and not any(
            k[1] == item for k in self._sync_inflight
        ):
            for event in self._quiesce_waiters.pop(item):
                if not event.triggered:
                    event.succeed()

    def __repr__(self) -> str:
        return (
            f"<Accelerator {self.site!r} av_items={len(self.av_table)}"
            f" updates={self.updates_started}>"
        )
