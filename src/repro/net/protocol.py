"""The declarative protocol registry: every message kind, as a contract.

The accelerator protocol spans 20 dotted message kinds (plus the
derived ``*.reply`` family the request/reply machinery synthesises).
Until this module they existed only as string literals scattered across
``core/``, ``cluster/``, ``net/`` and ``workload/``. Here each kind is
declared once with

* its **direction** — which role talks to which (requester→grantor,
  coordinator→participant, rejoiner→base, client→center, …);
* its **payload schema** — required and optional keys at the send site
  (infrastructure keys ``_obs``/``_rel`` are implicitly allowed on any
  dict payload);
* its **reply schema** — keys the handler's reply dict must/'s allowed
  to carry, for request-class kinds;
* its **pairing** — ``"request"`` (always sent through the RPC helper),
  ``"oneway"`` (fire-and-forget), or ``"mixed"`` (both, e.g.
  ``prop.push`` which is one-way bare but an acked request under the
  reliability layer);
* whether fault-aware senders are expected to pass a **timeout** (and
  therefore carry a ``RequestTimeout`` fallback);
* its accounting **tag** (the Fig. 6 message-count family).

The **protoflow static analyzer** (:mod:`repro.analysis.protoflow`)
checks the whole source tree against this registry — undeclared kinds,
schema drift, unpaired requests — so the registry can never silently
rot. It would also be the wire contract of an asyncio runtime, which
ROADMAP lists as parked.

This module is intentionally dependency-free (stdlib only) so both
``net/`` and ``analysis/`` can import it without cycles. It is also the
single home of the ``TAG_*`` accounting constants; the historical
definition sites (``core.types``, ``core.reads``, …) re-export them.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Iterable, Optional, Tuple

# --------------------------------------------------------------------- #
# accounting tags (single source of truth; historical sites re-export)
# --------------------------------------------------------------------- #

TAG_AV = "av"            #: AV transfer traffic (Delay Update coordination)
TAG_IMMEDIATE = "imm"    #: Immediate Update (primary-copy 2PC) traffic
TAG_PROPAGATE = "prop"   #: asynchronous replica propagation
TAG_CENTRAL = "central"  #: conventional centralized baseline traffic
TAG_REBALANCE = "rebal"  #: proactive AV rebalancing pushes
TAG_READ = "read"        #: reconciled-read traffic
TAG_RECLASS = "cls"      #: reclassification (class-change) traffic
TAG_LEASE = "lease"      #: AV lease control traffic (acks, probes)
TAG_REJOIN = "rejoin"    #: crash-recovery rejoin control traffic
TAG_RELIABLE = "rel"     #: reliable-session control traffic (probes)
TAG_SCM = "scm"          #: supply-chain workload traffic (replenish)
TAG_OVERLOAD = "ovl"     #: overload-control traffic (degradation state)

#: infrastructure keys legal on any dict payload: ``_obs`` carries
#: cross-site span context, ``_rel`` the reliable-session envelope.
INFRA_KEYS: FrozenSet[str] = frozenset({"_obs", "_rel"})

#: suffix of the derived reply family (``Endpoint.reply`` synthesises
#: ``f"{request.kind}.reply"``; never declared or handled explicitly)
REPLY_SUFFIX = ".reply"

_KIND_RE = re.compile(r"^[a-z][a-z0-9_]*(\.[a-z][a-z0-9_]*)+$")

PAIRINGS = ("request", "oneway", "mixed")


@dataclass(frozen=True)
class MessageSpec:
    """Declaration of one message kind.

    Attributes
    ----------
    kind:
        The dotted protocol verb (``"av.request"``). Lowercase dotted
        identifiers only; the ``.reply`` suffix is reserved for the
        derived reply family.
    direction:
        ``(sender_role, receiver_role)`` — documentation of who talks
        to whom; the roles come from the paper's vocabulary (site,
        coordinator, participant, maker, rejoiner, base, client,
        center, …).
    tag:
        Primary accounting tag (some kinds are occasionally re-tagged
        at the send site, e.g. a bounced ``av.push`` reuses the
        incoming tag; the registry names the canonical family).
    pairing:
        ``"request"`` | ``"oneway"`` | ``"mixed"`` (see module docs).
    required / optional:
        Payload keys the send site must / may write. An empty pair with
        ``payload_free=True`` means the payload is unconstrained (or
        ``None``).
    reply_required / reply_optional:
        Keys of the handler's reply dict (request-class kinds only).
        Both empty means the reply is a bare ack — the handler need not
        return a value.
    needs_timeout:
        ``True`` when fault-aware senders are expected to pass a
        ``timeout=`` (and carry the ``RequestTimeout`` fallback); the
        analyzer requires at least one such guarded send site.
    handler_required:
        ``False`` only for kinds consumed by machinery rather than a
        registered handler (none currently; the derived reply family is
        handled implicitly and never declared).
    doc:
        One-line description, rendered by the reporters.
    """

    kind: str
    direction: Tuple[str, str]
    tag: str
    pairing: str
    required: FrozenSet[str] = frozenset()
    optional: FrozenSet[str] = frozenset()
    reply_required: FrozenSet[str] = frozenset()
    reply_optional: FrozenSet[str] = frozenset()
    needs_timeout: bool = False
    handler_required: bool = True
    payload_free: bool = False
    doc: str = ""

    def __post_init__(self) -> None:
        if not _KIND_RE.match(self.kind):
            raise ValueError(f"malformed message kind {self.kind!r}")
        if self.kind.endswith(REPLY_SUFFIX):
            raise ValueError(
                f"{self.kind!r}: the {REPLY_SUFFIX!r} family is derived"
                " from request-class kinds, never declared"
            )
        if self.pairing not in PAIRINGS:
            raise ValueError(
                f"{self.kind!r}: pairing {self.pairing!r} not in {PAIRINGS}"
            )
        if len(self.direction) != 2 or not all(self.direction):
            raise ValueError(f"{self.kind!r}: direction must name both roles")
        if not self.tag:
            raise ValueError(f"{self.kind!r}: empty tag")
        overlap = self.required & self.optional
        if overlap:
            raise ValueError(
                f"{self.kind!r}: keys {sorted(overlap)} both required and optional"
            )
        reply_overlap = self.reply_required & self.reply_optional
        if reply_overlap:
            raise ValueError(
                f"{self.kind!r}: reply keys {sorted(reply_overlap)} both"
                " required and optional"
            )
        if self.pairing == "oneway" and (self.reply_required or self.reply_optional):
            raise ValueError(
                f"{self.kind!r}: oneway kinds cannot declare a reply schema"
            )
        bad = {
            k for k in (self.required | self.optional
                        | self.reply_required | self.reply_optional)
            if k in INFRA_KEYS
        }
        if bad:
            raise ValueError(
                f"{self.kind!r}: infrastructure keys {sorted(bad)} are"
                " implicit, never declared"
            )

    @property
    def is_request(self) -> bool:
        return self.pairing in ("request", "mixed")

    @property
    def reply_kind(self) -> Optional[str]:
        """Derived reply kind, for request-class kinds."""
        return self.kind + REPLY_SUFFIX if self.is_request else None

    def declared_keys(self) -> FrozenSet[str]:
        return self.required | self.optional

    def declared_reply_keys(self) -> FrozenSet[str]:
        return self.reply_required | self.reply_optional


class ProtocolRegistry:
    """An immutable set of :class:`MessageSpec` declarations."""

    def __init__(self, specs: Iterable[MessageSpec]) -> None:
        self._specs: Dict[str, MessageSpec] = {}
        for spec in specs:
            if spec.kind in self._specs:
                raise ValueError(f"duplicate declaration of {spec.kind!r}")
            self._specs[spec.kind] = spec

    def __contains__(self, kind: str) -> bool:
        return kind in self._specs

    def __len__(self) -> int:
        return len(self._specs)

    def __iter__(self):
        return iter(self.kinds())

    def kinds(self) -> Tuple[str, ...]:
        return tuple(sorted(self._specs))

    def spec(self, kind: str) -> MessageSpec:
        return self._specs[kind]

    def get(self, kind: str) -> Optional[MessageSpec]:
        return self._specs.get(kind)

    def reply_kinds(self) -> Tuple[str, ...]:
        """The derived ``*.reply`` family (request-class kinds only)."""
        return tuple(
            sorted(
                spec.reply_kind
                for spec in self._specs.values()
                if spec.reply_kind is not None
            )
        )

    def request_kind_of(self, reply_kind: str) -> Optional[str]:
        """Map a derived reply kind back to its request, if declared."""
        if not reply_kind.endswith(REPLY_SUFFIX):
            return None
        base = reply_kind[: -len(REPLY_SUFFIX)]
        spec = self._specs.get(base)
        return base if spec is not None and spec.is_request else None

    def tags(self) -> FrozenSet[str]:
        return frozenset(s.tag for s in self._specs.values())


def make_registry(specs: Iterable[MessageSpec]) -> ProtocolRegistry:
    """Validated construction (alias kept for symmetry with callers)."""
    return ProtocolRegistry(specs)


# --------------------------------------------------------------------- #
# the accelerator protocol, declared
# --------------------------------------------------------------------- #

def _spec(kind, direction, tag, pairing, **kw) -> MessageSpec:
    for key in ("required", "optional", "reply_required", "reply_optional"):
        if key in kw:
            kw[key] = frozenset(kw[key])
    return MessageSpec(kind=kind, direction=direction, tag=tag,
                       pairing=pairing, **kw)


PROTOCOL = make_registry([
    # ---- Delay Update: AV transfer + lazy propagation ---------------- #
    _spec(
        "av.request", ("requester", "grantor"), TAG_AV, "request",
        required={"item", "amount", "requester_av"},
        reply_required={"granted", "av_after"},
        reply_optional={"lease"},
        needs_timeout=True,
        doc="ask a believed-rich peer for AV cover (paper Fig. 4)",
    ),
    _spec(
        "av.pool.request", ("leaf", "aggregator"), TAG_AV, "request",
        required={"item", "amount", "requester_av"},
        reply_required={"granted", "av_after"},
        reply_optional={"lease"},
        needs_timeout=True,
        doc="hierarchical AV: a leaf asks its regional aggregator's pool"
            " before shopping peers (see docs/topology.md)",
    ),
    _spec(
        "av.pool.refill", ("aggregator", "supplier"), TAG_AV, "request",
        required={"item", "amount", "requester_av"},
        reply_required={"granted", "av_after"},
        reply_optional={"lease"},
        needs_timeout=True,
        doc="hierarchical AV: a dry aggregator tops up from its supply"
            " parent (maker or higher aggregator) before answering",
    ),
    _spec(
        "av.push", ("rebalancer", "site"), TAG_REBALANCE, "oneway",
        required={"item", "amount"},
        optional={"sender_av", "bounced", "lease"},
        doc="unsolicited AV transfer (proactive rebalancing, or a bounce)",
    ),
    _spec(
        "prop.push", ("site", "replica"), TAG_PROPAGATE, "mixed",
        required={"item", "delta"},
        reply_optional={"dup"},
        needs_timeout=True,
        doc="committed-delta propagation; an acked request under reliability",
    ),
    # ---- Immediate Update: primary-copy 2PC -------------------------- #
    _spec(
        "imm.prepare", ("coordinator", "participant"), TAG_IMMEDIATE, "request",
        required={"item", "delta", "token"},
        reply_required={"ready"},
        needs_timeout=True,
        doc="phase-1 lock + provisional apply; the reply is the vote",
    ),
    _spec(
        "imm.commit", ("coordinator", "participant"), TAG_IMMEDIATE, "request",
        required={"token"},
        reply_required={"done"},
        needs_timeout=True,
        doc="phase-2 commit decision (idempotent; resent under faults)",
    ),
    _spec(
        "imm.abort", ("coordinator", "participant"), TAG_IMMEDIATE, "request",
        required={"token"},
        reply_required={"done"},
        needs_timeout=True,
        doc="phase-2 abort decision (idempotent; resent under faults)",
    ),
    _spec(
        "imm.status", ("participant", "coordinator"), TAG_IMMEDIATE, "request",
        required={"token"},
        reply_required={"decision"},
        needs_timeout=True,
        doc="2PC termination protocol: learn a token's decision",
    ),
    _spec(
        "imm.snapshot", ("rejoiner", "primary"), TAG_IMMEDIATE, "request",
        payload_free=True,
        reply_required={"values"},
        reply_optional={"withheld"},
        needs_timeout=True,
        doc="pull non-regular values missed while crashed (in-doubt items withheld)",
    ),
    # ---- reclassification -------------------------------------------- #
    _spec(
        "cls.lock", ("coordinator", "participant"), TAG_RECLASS, "request",
        required={"item", "token"},
        reply_required={"unsynced"},
        doc="freeze + quiesce + canonical-order lock for a class change",
    ),
    _spec(
        "cls.to_regular", ("coordinator", "participant"), TAG_RECLASS, "request",
        required={"item", "token", "share"},
        reply_required={"done"},
        doc="install an AV share and unlock (item becomes regular)",
    ),
    _spec(
        "cls.to_nonregular", ("coordinator", "participant"), TAG_RECLASS, "request",
        required={"item", "token", "value"},
        reply_required={"done"},
        doc="install the reconciled value, drop AV, unlock",
    ),
    # ---- reads -------------------------------------------------------- #
    _spec(
        "read.owed", ("reader", "peer"), TAG_READ, "request",
        required={"item"},
        reply_required={"owed"},
        doc="reconciled read: report (without clearing) the owed balance",
    ),
    # ---- leases -------------------------------------------------------- #
    _spec(
        "av.lease.ack", ("holder", "grantor"), TAG_LEASE, "oneway",
        required={"lease"},
        doc="receipt ack for a leased AV transfer; discharges the lease",
    ),
    _spec(
        "av.lease.probe", ("grantor", "holder"), TAG_LEASE, "request",
        required={"lease"},
        reply_required={"received"},
        needs_timeout=True,
        doc="expiry probe: did the leased transfer arrive? (FIFO-definitive)",
    ),
    # ---- reliable sessions -------------------------------------------- #
    _spec(
        "rel.probe", ("sender", "receiver"), TAG_RELIABLE, "request",
        required={"seq"},
        reply_required={"seen"},
        needs_timeout=True,
        doc="retry-budget-exhausted probe: was this seq ever delivered?",
    ),
    # ---- crash-recovery rejoin ---------------------------------------- #
    _spec(
        "prop.flush", ("rejoiner", "peer"), TAG_REJOIN, "request",
        reply_required={"pushed"},
        needs_timeout=True,
        doc="ask a live peer to push everything it owes us",
    ),
    _spec(
        "av.catalog", ("rejoiner", "base"), TAG_REJOIN, "request",
        reply_required={"items", "levels"},
        needs_timeout=True,
        doc="reconcile the AV catalogue against the base's authoritative copy",
    ),
    # ---- workload (supply chain) --------------------------------------- #
    _spec(
        "scm.replenish", ("retailer", "maker"), TAG_SCM, "request",
        required={"item", "quantity"},
        reply_required={"manufactured"},
        doc="order-on-shortfall replenishment from the maker (§1.1)",
    ),
    # ---- overload control ---------------------------------------------- #
    _spec(
        "ovl.state", ("site", "peer"), TAG_OVERLOAD, "oneway",
        required={"state", "since"},
        doc="degradation-state broadcast; peers steer AV asks away from"
            " DEGRADED sites",
    ),
    _spec(
        "ovl.probe", ("rejoiner", "peer"), TAG_OVERLOAD, "request",
        payload_free=True,
        reply_required={"state"},
        needs_timeout=True,
        doc="rebuild the peer degradation-state map after a restart",
    ),
    # ---- centralized baseline ------------------------------------------ #
    _spec(
        "central.update", ("client", "center"), TAG_CENTRAL, "request",
        required={"item", "delta"},
        reply_required={"committed"},
        needs_timeout=True,
        doc="conventional centralized update through the single server",
    ),
    _spec(
        "central.replicate", ("center", "client"), TAG_CENTRAL, "oneway",
        required={"item", "delta"},
        doc="server→client replica refresh (optional replicate mode)",
    ),
])


__all__ = [
    "INFRA_KEYS",
    "MessageSpec",
    "PAIRINGS",
    "PROTOCOL",
    "ProtocolRegistry",
    "REPLY_SUFFIX",
    "TAG_AV",
    "TAG_CENTRAL",
    "TAG_IMMEDIATE",
    "TAG_LEASE",
    "TAG_OVERLOAD",
    "TAG_PROPAGATE",
    "TAG_READ",
    "TAG_REBALANCE",
    "TAG_RECLASS",
    "TAG_REJOIN",
    "TAG_RELIABLE",
    "TAG_SCM",
    "make_registry",
]
