"""protoflow: whole-program protocol-flow analysis.

The package turns the declarative registry in :mod:`repro.net.protocol`
into a machine-checked contract. One parse of the source tree builds a
shared project IR (:mod:`~repro.analysis.protoflow.ir`) — send sites,
handler registrations, payload constructions, lock sequences,
nondeterminism taint — and the flow checks
(:mod:`~repro.analysis.protoflow.checks`) run over it:

* ``proto-unregistered-kind`` — every constructed message kind is
  declared (f-string/concatenated kinds resolved symbolically, variable
  kinds resolved by interprocedural constant propagation);
* ``proto-missing-handler`` / ``proto-unsent-kind`` — every declared
  kind has both a sender and a registered handler;
* ``proto-payload-drift`` — send-site keys, handler reads, handler
  reply dicts and request-site reply reads all agree with the registry;
* ``proto-unpaired-request`` — request-class kinds have a reachable
  reply path, and fault-aware kinds a timeout-guarded send site;
* ``proto-lock-cycle`` — the static lock-order graph is acyclic;
* ``proto-taint`` — no wall-clock / unseeded-rng / unordered-set values
  flow into message payloads.

The same engine drives the per-file lint rules (:func:`index_project`
takes them as ``rules``), so the whole static suite is one parse of the
tree, run by ``python -m repro check --static`` (lint + protoflow
together).
Suppressions reuse the lint syntax (``# repro-lint: disable=proto-taint
(why)``).
"""

from __future__ import annotations

from repro.analysis.protoflow.checks import ProtoFinding, run_checks
from repro.analysis.protoflow.ir import ProjectIR, index_project

__all__ = [
    "ProjectIR",
    "ProtoFinding",
    "index_project",
    "run_checks",
]
