"""The protocol-flow checks, run over a :class:`ProjectIR`.

Each check compares the IR against the declared registry
(:class:`repro.net.protocol.ProtocolRegistry`) — the registry is the
contract, so drift on *either* side (a send site or a handler) shows up
as a disagreement with it:

``proto-unregistered-kind``
    A constructed kind (send, request, deliver, ``Message(...)``,
    registration) that the registry does not declare — including kinds
    that cannot be resolved statically at all.
``proto-missing-handler`` / ``proto-unsent-kind``
    A declared kind with no registered handler / no send site.
``proto-payload-drift``
    Send-site payload keys, handler payload reads, handler reply dicts,
    or request-site reply reads outside the declared schema (or missing
    required keys). Infra keys (``_obs``, ``_rel``) are always allowed.
``proto-unpaired-request``
    A request-class kind whose reply path is not statically reachable:
    no ``*.reply`` construction in the tree, a handler that never
    returns a reply value, or — for ``needs_timeout`` kinds — no send
    site that passes ``timeout=`` inside a function handling
    ``RequestTimeout``.
``proto-lock-cycle``
    A cycle in the static lock-order graph (edge ``a -> b`` whenever a
    function acquires ``b`` while still holding ``a``).
``proto-taint``
    A wall-clock / unseeded-rng / unordered-set value flowing into a
    message payload.

Variable kinds are resolved by interprocedural constant propagation:
a kind that is a *parameter* of its enclosing function takes the union
of the constant strings passed for it at every call site, chasing
parameter-to-parameter forwarding to a fixpoint.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.analysis.protoflow.ir import (
    FuncFacts,
    FuncKey,
    HandlerReg,
    KindRef,
    ProjectIR,
    SendSite,
)
from repro.net.protocol import (
    INFRA_KEYS,
    REPLY_SUFFIX,
    MessageSpec,
    ProtocolRegistry,
)

#: anchor for registry-level findings (a declared kind with no code
#: evidence has no natural source location)
REGISTRY_PATH = "src/repro/net/protocol.py"


@dataclass(frozen=True)
class ProtoFinding:
    """One flow-check hit. ``symbol`` is usually the message kind."""

    rule: str
    path: str
    line: int
    col: int
    symbol: str
    message: str

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule}: {self.message}"


class _Resolver:
    """Interprocedural constant propagation for kind parameters."""

    def __init__(self, ir: ProjectIR) -> None:
        self.ir = ir
        self._memo: Dict[Tuple[FuncKey, str], Tuple[FrozenSet[str], bool]] = {}

    def kinds_of(self, ref: KindRef) -> Tuple[FrozenSet[str], bool]:
        """(resolved constants, partial). ``partial`` means some flow
        into the site could not be resolved."""
        if ref.const is not None:
            return frozenset((ref.const,)), False
        if ref.param is not None:
            return self._resolve_param(ref.param[0], ref.param[1], frozenset())
        return frozenset(), True

    def _resolve_param(
        self, func: FuncKey, param: str, visiting: FrozenSet
    ) -> Tuple[FrozenSet[str], bool]:
        memo_key = (func, param)
        if memo_key in self._memo:
            return self._memo[memo_key]
        if memo_key in visiting:
            return frozenset(), False  # cycle: no new constants this way
        facts = self.ir.funcs.get(func)
        if facts is None or param not in facts.params:
            return frozenset(), True
        pos = facts.params.index(param)
        out: Set[str] = set()
        partial = False
        calls = self.ir.calls_by_name.get(func[1], ())
        if not calls:
            partial = True
        for call in calls:
            val = call.kwargs.get(param)
            if val is None:
                val = call.args.get(pos)
            if val is None:
                continue  # argument defaulted
            if val[0] == "const":
                out.add(val[1])
            elif val[0] == "param":
                sub, p = self._resolve_param(
                    val[1], val[2], visiting | {memo_key}
                )
                out |= sub
                partial |= p
            else:
                partial = True
        result = (frozenset(out), partial)
        self._memo[memo_key] = result
        return result


class _Checker:
    def __init__(self, ir: ProjectIR, registry: ProtocolRegistry) -> None:
        self.ir = ir
        self.registry = registry
        self.resolver = _Resolver(ir)
        self.findings: List[ProtoFinding] = []
        #: kind -> send sites resolved to it
        self.senders: Dict[str, List[SendSite]] = {}
        #: kind -> registrations resolved to it
        self.handlers: Dict[str, List[HandlerReg]] = {}
        self.has_reply_machinery = False

    def emit(self, rule, path, line, col, symbol, message) -> None:
        self.findings.append(ProtoFinding(
            rule=rule, path=path, line=line, col=col,
            symbol=symbol, message=message,
        ))

    # -- check 1: registry completeness ------------------------------ #

    def resolve_sites(self) -> None:
        registry = self.registry
        for site in self.ir.sends:
            ref = site.kind
            if ref.machinery:
                continue  # transport forwarding; callers counted directly
            if ref.pattern is not None:
                if ref.pattern == "*" + REPLY_SUFFIX:
                    # the derived reply family (Endpoint.reply)
                    self.has_reply_machinery = True
                else:
                    self.emit(
                        "proto-unregistered-kind", site.path, site.line,
                        site.col, ref.text,
                        f"dynamically built kind {ref.text} does not match"
                        f" the derived *{REPLY_SUFFIX} family and cannot be"
                        " checked against the registry",
                    )
                continue
            kinds, partial = self.resolver.kinds_of(ref)
            if not kinds:
                self.emit(
                    "proto-unregistered-kind", site.path, site.line,
                    site.col, ref.text,
                    f"message kind {ref.text} is not statically resolvable"
                    " — declare it in repro.net.protocol and construct it"
                    " from a constant",
                )
                continue
            for kind in sorted(kinds):
                if kind in registry:
                    self.senders.setdefault(kind, []).append(site)
                elif registry.request_kind_of(kind) is not None:
                    pass  # an explicitly built reply for a request kind
                else:
                    self.emit(
                        "proto-unregistered-kind", site.path, site.line,
                        site.col, kind,
                        f"message kind {kind!r} is sent but not declared in"
                        " the protocol registry (repro.net.protocol)",
                    )
        for reg in self.ir.regs:
            ref = reg.kind
            if ref.machinery:
                continue
            kinds, partial = self.resolver.kinds_of(ref)
            if not kinds:
                self.emit(
                    "proto-unregistered-kind", reg.path, reg.line, reg.col,
                    ref.text,
                    f"handler registered for unresolvable kind {ref.text}",
                )
                continue
            for kind in sorted(kinds):
                if kind in registry:
                    self.handlers.setdefault(kind, []).append(reg)
                else:
                    self.emit(
                        "proto-unregistered-kind", reg.path, reg.line,
                        reg.col, kind,
                        f"handler registered for kind {kind!r} which is not"
                        " declared in the protocol registry",
                    )

    def check_coverage(self) -> None:
        for kind in self.registry.kinds():
            spec = self.registry.spec(kind)
            sites = self.senders.get(kind, ())
            regs = self.handlers.get(kind, ())
            if not sites:
                self.emit(
                    "proto-unsent-kind", REGISTRY_PATH, 1, 0, kind,
                    f"declared kind {kind!r} has no send site anywhere in"
                    " the analyzed tree — retire the declaration or wire"
                    " the sender",
                )
            if spec.handler_required and not regs:
                anchor = sites[0] if sites else None
                self.emit(
                    "proto-missing-handler",
                    anchor.path if anchor else REGISTRY_PATH,
                    anchor.line if anchor else 1,
                    anchor.col if anchor else 0,
                    kind,
                    f"declared kind {kind!r} has no .on({kind!r}, …)"
                    " registration — delivery would raise LookupError",
                )

    # -- check 2: payload schema drift -------------------------------- #

    def _effective_return_keys(
        self, facts: FuncFacts, visiting: Optional[Set[FuncKey]] = None
    ) -> List[FrozenSet[str]]:
        """Return-dict keys, following one-level return delegation
        (``return self._shared(...)``, ``return nested_generator()``)."""
        if visiting is None:
            visiting = set()
        key = (facts.path, facts.name)
        if key in visiting:
            return []
        visiting.add(key)
        out = list(facts.return_dict_keys)
        for name in sorted(facts.return_delegates):
            target = self.ir.resolve_func(facts.path, name)
            if target is not None:
                out.extend(self._effective_return_keys(target, visiting))
        return out

    def _handler_facts(self, reg: HandlerReg) -> Optional[FuncFacts]:
        if reg.handler is None:
            return None
        return self.ir.resolve_func(reg.path, reg.handler)

    def check_payloads(self) -> None:
        registry = self.registry
        for kind, sites in sorted(self.senders.items()):
            spec = registry.spec(kind)
            declared = spec.declared_keys() | INFRA_KEYS
            for site in sites:
                if site.payload_none:
                    if spec.required and not spec.payload_free:
                        self.emit(
                            "proto-payload-drift", site.path, site.line,
                            site.col, kind,
                            f"{kind!r} sent without a payload but the"
                            f" registry requires keys"
                            f" {sorted(spec.required)}",
                        )
                elif site.payload_keys is not None:
                    extra = site.payload_keys - declared
                    missing = spec.required - site.payload_keys
                    if extra:
                        self.emit(
                            "proto-payload-drift", site.path, site.line,
                            site.col, kind,
                            f"{kind!r} payload carries undeclared keys"
                            f" {sorted(extra)} — declare them in the"
                            " registry or stop writing them",
                        )
                    if missing:
                        self.emit(
                            "proto-payload-drift", site.path, site.line,
                            site.col, kind,
                            f"{kind!r} payload is missing required keys"
                            f" {sorted(missing)}",
                        )
                bad_reads = site.reply_reads - spec.declared_reply_keys()
                if bad_reads:
                    self.emit(
                        "proto-payload-drift", site.path, site.line,
                        site.col, kind,
                        f"reply of {kind!r} is read for undeclared keys"
                        f" {sorted(bad_reads)}",
                    )
        for kind, regs in sorted(self.handlers.items()):
            spec = registry.spec(kind)
            declared = spec.declared_keys() | INFRA_KEYS
            declared_reply = spec.declared_reply_keys()
            for reg in regs:
                facts = self._handler_facts(reg)
                if facts is None:
                    continue
                bad_reads = facts.payload_reads - declared
                if bad_reads and not spec.payload_free:
                    self.emit(
                        "proto-payload-drift", facts.path,
                        facts.line or reg.line, 0, kind,
                        f"handler {facts.name} reads undeclared {kind!r}"
                        f" payload keys {sorted(bad_reads)}",
                    )
                for keys in self._effective_return_keys(facts):
                    extra = keys - declared_reply
                    if extra:
                        self.emit(
                            "proto-payload-drift", facts.path,
                            facts.line or reg.line, 0, kind,
                            f"handler {facts.name} replies to {kind!r} with"
                            f" undeclared keys {sorted(extra)} — dead data"
                            " or a missing registry entry",
                        )
                    missing = spec.reply_required - keys
                    if missing:
                        self.emit(
                            "proto-payload-drift", facts.path,
                            facts.line or reg.line, 0, kind,
                            f"a reply of handler {facts.name} to {kind!r}"
                            f" is missing required keys {sorted(missing)}",
                        )

    # -- check 3: request/reply/ack pairing --------------------------- #

    def check_pairing(self) -> None:
        registry = self.registry
        request_kinds = [
            k for k in registry.kinds() if registry.spec(k).is_request
        ]
        if request_kinds and not self.has_reply_machinery:
            self.emit(
                "proto-unpaired-request", REGISTRY_PATH, 1, 0,
                "*" + REPLY_SUFFIX,
                "no *.reply construction found anywhere in the tree —"
                " request-class kinds have no reply path",
            )
        for kind in request_kinds:
            spec = registry.spec(kind)
            regs = self.handlers.get(kind, ())
            if spec.reply_required and regs:
                facts = [
                    f for f in map(self._handler_facts, regs) if f is not None
                ]
                if facts and not any(f.returns_value for f in facts):
                    self.emit(
                        "proto-unpaired-request",
                        facts[0].path, facts[0].line, 0, kind,
                        f"{kind!r} requires reply keys"
                        f" {sorted(spec.reply_required)} but its handler"
                        f" {facts[0].name} never returns a value",
                    )
            if spec.needs_timeout:
                sites = self.senders.get(kind, ())
                guarded = any(
                    s.has_timeout and self._catches_timeout(s) for s in sites
                )
                if sites and not guarded:
                    anchor = sites[0]
                    self.emit(
                        "proto-unpaired-request", anchor.path, anchor.line,
                        anchor.col, kind,
                        f"{kind!r} is declared fault-aware (needs_timeout)"
                        " but no send site passes timeout= inside a"
                        " function handling RequestTimeout",
                    )

    def _catches_timeout(self, site: SendSite) -> bool:
        if site.func is None:
            return False
        facts = self.ir.funcs.get(site.func)
        return facts is not None and facts.catches_timeout

    # -- check 4: static lock-order graph ------------------------------ #

    def check_lock_order(self) -> None:
        edges: Dict[Tuple[str, str], Tuple[str, int]] = {}
        for facts in self.ir.funcs.values():
            held: List[str] = []
            for op, name, line in facts.lock_ops:
                if op == "acquire":
                    for h in held:
                        if h != name:
                            edges.setdefault((h, name), (facts.path, line))
                    held.append(name)
                else:
                    held = [h for h in held if h != name]
        graph: Dict[str, List[str]] = {}
        for a, b in edges:
            graph.setdefault(a, []).append(b)
            graph.setdefault(b, [])
        for node in graph.values():
            node.sort()

        seen_cycles: Set[Tuple[str, ...]] = set()
        state: Dict[str, int] = {}  # 1 = on stack, 2 = done

        def visit(node: str, stack: List[str]) -> None:
            state[node] = 1
            stack.append(node)
            for nxt in graph.get(node, ()):
                mark = state.get(nxt)
                if mark == 1:
                    cycle = stack[stack.index(nxt):]
                    pivot = cycle.index(min(cycle))
                    canon = tuple(cycle[pivot:] + cycle[:pivot])
                    if canon not in seen_cycles:
                        seen_cycles.add(canon)
                        path, line = edges.get(
                            (node, nxt), (REGISTRY_PATH, 1)
                        )
                        self.emit(
                            "proto-lock-cycle", path, line, 0,
                            " -> ".join((*canon, canon[0])),
                            "static lock-order cycle: "
                            + " -> ".join((*canon, canon[0]))
                            + " — acquire in one global order",
                        )
                elif mark is None:
                    visit(nxt, stack)
            stack.pop()
            state[node] = 2

        for node in sorted(graph):
            if node not in state:
                visit(node, [])

    # -- check 5: nondeterminism taint --------------------------------- #

    def check_taint(self) -> None:
        for site in self.ir.sends:
            for key, taint in sorted(site.taints.items()):
                self.emit(
                    "proto-taint", site.path, site.line, site.col,
                    f"{site.kind.text}[{key}]",
                    f"payload key {key!r} carries a nondeterministic value"
                    f" ({taint}) — message contents must be"
                    " schedule-deterministic",
                )

    # -- driver -------------------------------------------------------- #

    def run(self) -> List[ProtoFinding]:
        self.resolve_sites()
        self.check_coverage()
        self.check_payloads()
        self.check_pairing()
        self.check_lock_order()
        self.check_taint()
        return self.findings


def apply_suppressions(
    findings: List[ProtoFinding], ir: ProjectIR
) -> List[ProtoFinding]:
    """Drop findings disabled by ``# repro-lint: disable=`` comments."""
    out = []
    for f in findings:
        disabled = ir.suppressions.get(f.path, {}).get(f.line, ())
        if f.rule in disabled or "all" in disabled:
            continue
        out.append(f)
    return out


def run_checks(
    ir: ProjectIR, registry: ProtocolRegistry
) -> List[ProtoFinding]:
    """All flow checks over ``ir``, post-suppression, sorted by site."""
    findings = _Checker(ir, registry).run()
    findings = apply_suppressions(findings, ir)
    findings.sort(key=lambda f: (f.path, f.line, f.col, f.rule, f.symbol))
    return findings
