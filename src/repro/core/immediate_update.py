"""Immediate Update: primary-copy global update (paper §3.3, Fig. 5).

For non-regular items (no AV entry), maker and retailer both demand
global consistency. The requesting accelerator acts as coordinator:

1. lock the item at every site and apply the operation provisionally
   (*ready* votes);
2. exchange commit messages; completion is judged by the
   acknowledgement from the accelerator at the **base** site (the
   primary copy, normally the maker).

Messages for ``n`` sites: ``2(n-1)`` prepare/ready + ``2(n-1)``
commit/ack = ``4(n-1)`` messages = ``2(n-1)`` correspondences — the
textbook pattern the paper sketches.

Deadlock note: the paper locks locally first and then "sends the lock
request to the other accelerators simultaneously", which deadlocks (or
livelocks, under abort-and-retry) as soon as two coordinators race on
one item. We keep the paper's message *count* but acquire locks in
canonical site order — the standard total-order fix: every coordinator
requests locks along the same global order, so waits form no cycle and
contention resolves by queuing instead of aborting. The latency cost
(sequential lock phase) only touches non-regular items, which the
paper's own workload excludes from the measured experiment.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict

from repro.core.types import (
    TAG_IMMEDIATE,
    UpdateKind,
    UpdateOutcome,
    UpdateRequest,
    UpdateResult,
)
from repro.db.locks import LockMode
from repro.db.transaction import Transaction
from repro.net.endpoint import CrashedEndpointError, RequestTimeout
from repro.obs.spans import NULL_ROW

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.accelerator import Accelerator


class ImmediateUpdateProtocol:
    """Coordinator and participant roles for one site."""

    def __init__(self, accel: "Accelerator") -> None:
        self.accel = accel
        #: provisional transactions by transaction token
        self._pending: Dict[str, tuple[Transaction, str]] = {}
        #: coordinator decision log: token -> "commit" | "abort".
        #: Written before any phase-2 message, consulted by restarting
        #: participants (the 2PC termination protocol); tokens without
        #: an entry are presumed aborted.
        self.decisions: Dict[str, str] = {}
        #: tokens this coordinator is still deciding on
        self.in_progress: set = set()
        accel.endpoint.on("imm.prepare", self.handle_prepare)
        accel.endpoint.on("imm.commit", self.handle_commit)
        accel.endpoint.on("imm.abort", self.handle_abort)
        accel.endpoint.on("imm.status", self.handle_status)
        accel.endpoint.on("imm.snapshot", self.handle_snapshot)
        #: diagnostics
        self.coordinated = 0
        self.retries = 0  # kept for observability; canonical order
        #                   resolves contention by queuing, not retrying

    # ---------------------------------------------------------------- #
    # coordinator
    # ---------------------------------------------------------------- #

    def execute(self, req: UpdateRequest, span=None):
        """Generator driving one Immediate Update as coordinator.

        ``span`` is the row of the update's root span (``NULL_ROW`` when
        unobserved); the lock wait, each prepare round-trip, and the
        decision phase open children of it. Unobserved runs make no
        recorder call.
        """
        accel = self.accel
        rec = accel.obs.recorder
        observed = rec.enabled
        item, delta = req.item, req.delta
        token = f"imm:{req.request_id}:{req.site}"
        ovl = accel.overload
        if ovl is not None:
            # Circuit breaker: while the 2PC path is tripped (repeated
            # prepare timeouts), shed instead of queueing one more
            # doomed coordination round. HALF_OPEN admits one probe.
            allowed, retry_after = ovl.breaker_allow(accel.now)
            if not allowed:
                ovl.record_shed(accel.now, retry_after)
                return UpdateResult(
                    request=req,
                    kind=UpdateKind.IMMEDIATE,
                    outcome=UpdateOutcome.SHED,
                    finished_at=accel.now,
                    retry_after=retry_after,
                )
        self.coordinated += 1
        # Visible to handle_status: "no decision YET" is answered as
        # "pending" (the participant must keep waiting), never as a
        # premature presumed-abort.
        self.in_progress.add(token)

        # Participants are the item's live replicas in canonical site
        # order — a site outside the item's interest set never hears
        # about it.
        order = sorted([accel.site, *accel.live_peers_for(item)])
        prepared_peers: list[str] = []
        holds_local = False
        ready = True

        # Phase 1: lock + provisional apply in canonical site order. A
        # prepare that times out (crashed participant, fault-aware mode)
        # counts as a no vote.
        for site in order:
            if site == accel.site:
                lock_span = rec.open_span(
                    "imm.lock", accel.site, accel.now, ("item",), (item,),
                    parent=span,
                ) if observed else NULL_ROW
                yield accel.locks.acquire(
                    item, token, LockMode.EXCLUSIVE,
                    span_id=lock_span[1] or None,
                )
                if observed:
                    rec.close_span(lock_span, accel.now)
                if ovl is not None and accel.av_table.defined(item):
                    # The item was demoted to regular (overload
                    # degradation) while we queued for the lock; a
                    # global decrement now would double-count against
                    # the AV already distributed. Reroute to the Delay
                    # path — mirrors the same re-check in delay_update.
                    accel.locks.release(item, token)
                    self.in_progress.discard(token)
                    result = yield from accel.delay.execute(req, span=span)
                    return result
                holds_local = True
                if accel.store.value(item) + delta < 0:
                    ready = False
                    break
            else:
                payload = {"item": item, "delta": delta, "token": token}
                prep_span = NULL_ROW
                if observed:
                    prep_span = rec.open_span(
                        "imm.prepare", accel.site, accel.now, ("target",),
                        (site,), parent=span,
                    )
                    # Cross-site span context: the participant parents
                    # its lock-wait span under this round-trip span.
                    payload["_obs"] = {"trace": prep_span[0],
                                       "span": prep_span[1]}
                try:
                    reply = yield accel.endpoint.request(
                        site,
                        "imm.prepare",
                        payload,
                        tag=TAG_IMMEDIATE,
                        timeout=accel.request_timeout,
                    )
                except RequestTimeout:
                    if observed:
                        rec.close_span(prep_span, accel.now, ("timeout",),
                                       (True,))
                    if ovl is not None:
                        ovl.record_2pc_timeout(accel.now)
                    ready = False
                    break
                if observed:
                    rec.close_span(prep_span, accel.now, ("ready",),
                                   (reply["ready"],))
                if not reply["ready"]:
                    ready = False
                    break
                prepared_peers.append(site)

        if not ready:
            # Phase 2a: roll back everyone already prepared. The
            # decision is logged first so a prepared-but-unreachable
            # participant resolves to abort via the status query.
            self.decisions[token] = "abort"
            self.in_progress.discard(token)
            abort_span = rec.open_span(
                "imm.abort", accel.site, accel.now, ("peers",),
                (len(prepared_peers),), parent=span,
            ) if observed else NULL_ROW
            if accel.request_timeout is None:
                abort_payload = {"token": token}
                if observed:
                    # Participants parent their imm.apply span here.
                    abort_payload["_obs"] = {"trace": abort_span[0],
                                             "span": abort_span[1]}
                acks = [
                    accel.endpoint.request(
                        peer, "imm.abort", abort_payload, tag=TAG_IMMEDIATE
                    )
                    for peer in prepared_peers
                ]
                yield accel.env.all_of(acks)
            else:
                deliveries = [
                    accel.env.process(
                        self._deliver_decision(peer, "imm.abort", token),
                        name=f"{accel.site}.abort->{peer}",
                    )
                    for peer in prepared_peers
                ]
                yield accel.env.all_of(deliveries)
            if observed:
                rec.close_span(abort_span, accel.now)
            if holds_local:
                accel.locks.release(item, token)
            return UpdateResult(
                request=req,
                kind=UpdateKind.IMMEDIATE,
                outcome=UpdateOutcome.ABORTED,
                finished_at=accel.now,
            )

        # Phase 2b: decide, apply locally, then commit everywhere
        # simultaneously. The decision is logged before any message so a
        # restarting participant can learn the outcome.
        self.decisions[token] = "commit"
        self.in_progress.discard(token)
        accel.txns.apply_atomic(item, delta)
        commit_span = rec.open_span(
            "imm.commit", accel.site, accel.now, ("peers",),
            (len(prepared_peers),), parent=span,
        ) if observed else NULL_ROW
        if accel.request_timeout is None:
            commit_payload = {"token": token}
            if observed:
                # Participants parent their imm.apply span here.
                commit_payload["_obs"] = {"trace": commit_span[0],
                                          "span": commit_span[1]}
            acks = [
                accel.endpoint.request(
                    peer, "imm.commit", commit_payload, tag=TAG_IMMEDIATE
                )
                for peer in prepared_peers
            ]
            results = yield accel.env.all_of(acks)
            # Paper: completion is judged by the base accelerator's message.
            base = accel.base_site
            if base != accel.site and base in prepared_peers:
                base_ack = results[acks[prepared_peers.index(base)]]
                if not base_ack.get("done", False):  # pragma: no cover
                    raise RuntimeError(
                        f"base site {base} failed to confirm {req}"
                    )
        else:
            # Fault-aware mode: bounded resend per peer; a peer that
            # stays unreachable resolves later via the status query.
            deliveries = [
                accel.env.process(
                    self._deliver_decision(peer, "imm.commit", token),
                    name=f"{accel.site}.commit->{peer}",
                )
                for peer in prepared_peers
            ]
            yield accel.env.all_of(deliveries)
        if observed:
            rec.close_span(commit_span, accel.now)
        if ovl is not None:
            ovl.record_2pc_success(accel.now)
        accel.locks.release(item, token)
        return UpdateResult(
            request=req,
            kind=UpdateKind.IMMEDIATE,
            outcome=UpdateOutcome.COMMITTED,
            finished_at=accel.now,
        )

    def _deliver_decision(self, peer: str, kind: str, token: str):
        """Resend ``kind`` to ``peer`` until acked or retries exhausted.

        The handler is idempotent, so at-least-once delivery is safe; a
        peer that never answers is left to the termination protocol
        (its restart queries :meth:`handle_status`).
        """
        accel = self.accel
        for _attempt in range(accel.max_immediate_retries):
            try:
                reply = yield accel.endpoint.request(
                    peer,
                    kind,
                    {"token": token},
                    tag=TAG_IMMEDIATE,
                    timeout=accel.request_timeout,
                )
            except RequestTimeout:
                self.retries += 1
                continue
            except CrashedEndpointError:
                # We crashed mid-resend. The decision log survives; the
                # participant resolves via the status query instead.
                return None
            return reply
        return None

    # ---------------------------------------------------------------- #
    # participant
    # ---------------------------------------------------------------- #

    def handle_prepare(self, msg):
        """Wait for the item lock, apply provisionally, vote."""
        accel = self.accel
        rec = accel.obs.recorder
        item = msg.payload["item"]
        delta = msg.payload["delta"]
        token = msg.payload["token"]

        lock_span = NULL_ROW
        if rec.enabled:
            ctx = msg.payload.get("_obs")
            lock_span = rec.open_span(
                "imm.lock", accel.site, accel.now, ("item",), (item,),
                trace=ctx["trace"] if ctx else None,
                parent=ctx["span"] if ctx else None,
            )
        yield accel.locks.acquire(
            item, token, LockMode.EXCLUSIVE, span_id=lock_span[1] or None
        )
        if rec.enabled:
            rec.close_span(lock_span, accel.now)
        if accel.store.value(item) + delta < 0:
            accel.locks.release(item, token)
            return {"ready": False}
        txn = accel.txns.begin()
        txn.apply(item, delta)
        self._pending[token] = (txn, item)
        if accel.request_timeout is not None:
            # Participant-side termination timer: if neither commit nor
            # abort arrives, learn the outcome from the coordinator.
            accel.env.process(
                self._watchdog(token), name=f"{accel.site}.watchdog({token})"
            )
        return {"ready": True}

    def _watchdog(self, token: str):
        accel = self.accel
        yield accel.env.timeout(accel.request_timeout * 4)
        if token in self._pending and not accel.endpoint.crashed:
            yield from self._resolve(token)

    # Thin wrappers: the shared _apply_decision body opens the imm.apply
    # span for both outcomes.
    def handle_commit(self, msg):  # repro-lint: disable=span-coverage
        """Commit the provisional txn. Idempotent: a resend after the
        token was already resolved (or after restart resolution) acks."""
        return self._apply_decision(msg, commit=True)

    def handle_abort(self, msg):  # repro-lint: disable=span-coverage
        return self._apply_decision(msg, commit=False)

    def _apply_decision(self, msg, commit: bool):
        accel = self.accel
        rec = accel.obs.recorder
        token = msg.payload["token"]
        apply_span = NULL_ROW
        if rec.enabled:
            ctx = msg.payload.get("_obs")
            apply_span = rec.open_span(
                "imm.apply", accel.site, accel.now,
                ("token", "decision"), (token, "commit" if commit else "abort"),
                trace=ctx["trace"] if ctx else None,
                parent=ctx["span"] if ctx else None,
            )
        entry = self._pending.pop(token, None)
        if entry is not None:
            txn, item = entry
            if commit:
                txn.commit()
            else:
                txn.abort()
            accel.locks.release(item, token)
        if rec.enabled:
            rec.close_span(apply_span, accel.now, ("applied",),
                           (entry is not None,))
        return {"done": True}

    # Pure read of the decision log — nothing timed happens, so a span
    # would only add noise to traces.
    def handle_status(self, msg):  # repro-lint: disable=span-coverage
        """Termination protocol: report this coordinator's decision.

        Three answers: a logged decision; ``"pending"`` while the
        coordinator is still deciding (the participant re-asks later —
        never a premature presumed-abort); and ``"abort"`` for unknown
        tokens (the coordinator never reached a decision before dying,
        and its own cleanup treats them the same way).
        """
        token = msg.payload["token"]
        decided = self.decisions.get(token)
        if decided is not None:
            return {"decision": decided}
        if token in self.in_progress:
            return {"decision": "pending"}
        return {"decision": "abort"}

    # Pure read assembled from local state — no waits, no mutations.
    def handle_snapshot(self, msg):  # repro-lint: disable=span-coverage
        """Serve the current values of all non-regular items.

        Used by a restarting peer to catch up on Immediate Updates it
        missed while crashed (live-membership updates commit without
        it; the paper's base re-delivers data, §3.2). Items with an
        unresolved provisional transaction here are withheld — our
        value for them is not authoritative until the termination
        protocol resolves them (the puller keeps its own recovered
        value; the next Immediate Update on the item re-syncs everyone).
        """
        accel = self.accel
        in_doubt = {item for _txn, item in self._pending.values()}
        values = {}
        withheld = []
        for item, value in accel.store.items():
            if accel.av_table.defined(item):
                continue
            if item in in_doubt:
                withheld.append(item)
            else:
                values[item] = value
        return {"values": values, "withheld": withheld}

    def catch_up(self, max_pulls: int = 10):
        """Generator: pull missed non-regular state from the base.

        Prefers the base site (the primary copy); falls back to any
        live peer. A source withholds items with an unresolved
        provisional transaction — a withheld value will soon change, so
        installing it would freeze a superseded state here. We re-pull
        until every item has been served (or the retry budget runs
        out); an update that was mid-2PC when we rejoined resolves
        within a bounded number of retries.
        """
        accel = self.accel
        missing = {
            item for item, _v in accel.store.items()
            if not accel.av_table.defined(item)
        }
        applied = 0
        for _pull in range(max_pulls):
            if not missing:
                break
            base = accel.base_site
            candidates = [base] if base != accel.site else []
            candidates += [p for p in accel.live_peers() if p != base]
            reply = None
            for source in candidates:
                if accel.endpoint.network.faults.is_crashed(source):
                    continue
                try:
                    reply = yield accel.endpoint.request(
                        source,
                        "imm.snapshot",
                        None,
                        tag=TAG_IMMEDIATE,
                        timeout=accel.request_timeout,
                    )
                except RequestTimeout:
                    continue
                break
            if reply is None:
                return applied  # nobody reachable; stay stale for now
            for item, value in reply["values"].items():
                if item in missing and not accel.av_table.defined(item):
                    accel.store.set_value(item, value, now=accel.now)
                    missing.discard(item)
                    applied += 1
            if missing:
                yield accel.env.timeout(accel.request_timeout or 1.0)
        return applied

    # ---------------------------------------------------------------- #
    # restart resolution (called by Site.restart)
    # ---------------------------------------------------------------- #

    def resolve_pending(self) -> list:
        """Spawn a resolution process per in-doubt provisional txn.

        Each process queries the token's coordinator until it answers,
        then commits or aborts accordingly. Returns the processes.
        """
        return [
            self.accel.env.process(
                self._resolve(token), name=f"{self.accel.site}.resolve({token})"
            )
            for token in list(self._pending)
        ]

    def _resolve(self, token: str):
        accel = self.accel
        coordinator = token.split(":")[2]
        while True:
            try:
                reply = yield accel.endpoint.request(
                    coordinator,
                    "imm.status",
                    {"token": token},
                    tag=TAG_IMMEDIATE,
                    timeout=accel.request_timeout,
                )
            except RequestTimeout:
                continue  # coordinator still down: classic 2PC blocking
            except CrashedEndpointError:
                # We crashed between status queries; our restart's
                # termination protocol resolves the token.
                return None
            if reply["decision"] == "pending":
                # Coordinator alive but undecided: keep waiting.
                yield accel.env.timeout(accel.request_timeout or 1.0)
                continue
            entry = self._pending.pop(token, None)
            if entry is None:
                return reply["decision"]  # resolved concurrently by resend
            txn, item = entry
            if reply["decision"] == "commit":
                txn.commit()
            else:
                txn.abort()
            accel.locks.release(item, token)
            return reply["decision"]
