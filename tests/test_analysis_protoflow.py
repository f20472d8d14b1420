"""Tests for the whole-program protocol-flow analyzer
(repro.analysis.protoflow) and the declarative message registry
(repro.net.protocol).

The six known-bad fixture packages under ``tests/fixtures/protoflow/``
each plant exactly one defect class; every one must be flagged by its
rule, and the shipped ``src/`` tree must analyze clean.
"""

import subprocess
import sys
import textwrap
import time
from pathlib import Path

import pytest

from repro.analysis.protoflow import run_checks
from repro.analysis.protoflow.ir import index_project
from repro.net.protocol import (
    PROTOCOL,
    MessageSpec,
    make_registry,
)

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "tests" / "fixtures" / "protoflow"


def spec(kind, pairing="oneway", **kw):
    return MessageSpec(
        kind=kind, direction=("a", "b"), tag="zz", pairing=pairing, **kw
    )


def analyze_tree(path, registry):
    _, ir = index_project([str(path)])
    return run_checks(ir, registry)


def analyze_snippet(tmp_path, source, registry):
    target = tmp_path / "src" / "flow.py"
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return analyze_tree(tmp_path, registry)


def rules_hit(findings):
    return sorted({f.rule for f in findings})


class TestRegistry:
    def test_protocol_is_nonempty_and_self_consistent(self):
        assert len(PROTOCOL) >= 20
        for kind in PROTOCOL.kinds():
            s = PROTOCOL.spec(kind)
            assert s.kind == kind
            if s.is_request:
                assert s.reply_kind == f"{kind}.reply"
                assert PROTOCOL.request_kind_of(s.reply_kind) == kind

    def test_reply_kinds_derived_not_declared(self):
        assert "av.request.reply" in PROTOCOL.reply_kinds()
        assert "av.request.reply" not in PROTOCOL
        with pytest.raises(ValueError, match="derived"):
            spec("zz.ask.reply")

    def test_malformed_kind_rejected(self):
        with pytest.raises(ValueError, match="malformed"):
            spec("ZZ.Shout")

    def test_oneway_cannot_declare_reply_schema(self):
        with pytest.raises(ValueError):
            spec("zz.push", reply_required=frozenset({"ok"}))

    def test_infra_keys_cannot_be_declared(self):
        with pytest.raises(ValueError, match="infra"):
            spec("zz.push", required=frozenset({"_obs"}))

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            make_registry([spec("zz.push"), spec("zz.push")])


class TestFixtures:
    """Each planted defect class is caught by its rule."""

    def test_unregistered_kind(self):
        findings = analyze_tree(
            FIXTURES / "unregistered_kind", make_registry([])
        )
        assert rules_hit(findings) == ["proto-unregistered-kind"]
        assert any("zz.mystery" in f.message for f in findings)

    def test_missing_handler(self):
        registry = make_registry([
            spec("zz.ping", required=frozenset({"item"})),
        ])
        findings = analyze_tree(FIXTURES / "missing_handler", registry)
        assert rules_hit(findings) == ["proto-missing-handler"]
        assert "LookupError" in findings[0].message

    def test_payload_drift(self):
        registry = make_registry([
            spec("zz.put", required=frozenset({"item"})),
        ])
        findings = analyze_tree(FIXTURES / "payload_drift", registry)
        assert rules_hit(findings) == ["proto-payload-drift"]
        messages = "\n".join(f.message for f in findings)
        assert "'extra'" in messages      # undeclared send key
        assert "'other'" in messages      # undeclared handler read

    def test_unpaired_request(self):
        registry = make_registry([
            spec("zz.ask", pairing="request",
                 required=frozenset({"item"}),
                 reply_required=frozenset({"ok"}),
                 needs_timeout=True),
        ])
        findings = analyze_tree(FIXTURES / "unpaired_request", registry)
        assert rules_hit(findings) == ["proto-unpaired-request"]
        messages = "\n".join(f.message for f in findings)
        assert "never returns a value" in messages
        assert "needs_timeout" in messages

    def test_lock_cycle(self):
        findings = analyze_tree(FIXTURES / "lock_cycle", make_registry([]))
        assert rules_hit(findings) == ["proto-lock-cycle"]
        assert "alpha" in findings[0].symbol
        assert "beta" in findings[0].symbol

    def test_tainted_payload(self):
        registry = make_registry([
            spec("zz.obs", required=frozenset({"t"})),
        ])
        findings = analyze_tree(FIXTURES / "tainted_payload", registry)
        assert rules_hit(findings) == ["proto-taint"]
        assert "'t'" in findings[0].message


class TestResolution:
    """Symbolic and interprocedural kind resolution."""

    def test_constant_kind_resolves(self, tmp_path):
        findings = analyze_snippet(tmp_path, """\
            def go(endpoint, peer):
                endpoint.send(peer, "zz.push", {"item": 1})

            def register(endpoint):
                endpoint.on("zz.push", lambda m: None)
            """, make_registry([spec("zz.push", required=frozenset({"item"}))]))
        assert findings == []

    def test_kind_through_parameter_resolves(self, tmp_path):
        # the _deliver_decision shape: a variable kind fed only constants
        findings = analyze_snippet(tmp_path, """\
            def deliver(endpoint, peer, kind):
                endpoint.send(peer, kind, {"item": 1})

            def commit(endpoint, peer):
                deliver(endpoint, peer, "zz.secret")
            """, make_registry([]))
        assert "proto-unregistered-kind" in rules_hit(findings)
        assert any(f.symbol == "zz.secret" for f in findings)

    def test_fstring_reply_suffix_is_machinery(self, tmp_path):
        findings = analyze_snippet(tmp_path, """\
            def reply(endpoint, to, payload):
                endpoint.send(to.src, f"{to.kind}.reply", payload)
            """, make_registry([]))
        assert findings == []

    def test_unresolvable_kind_flagged(self, tmp_path):
        findings = analyze_snippet(tmp_path, """\
            def go(endpoint, peer, table):
                endpoint.send(peer, table["k"], {})
            """, make_registry([]))
        assert rules_hit(findings) == ["proto-unregistered-kind"]
        assert "not statically resolvable" in findings[0].message

    def test_unsent_declared_kind_flagged(self, tmp_path):
        findings = analyze_snippet(tmp_path, """\
            x = 1
            """, make_registry([spec("zz.ghost")]))
        assert "proto-unsent-kind" in rules_hit(findings)


class TestSuppressionAndBaseline:
    def test_inline_suppression_silences_rule(self, tmp_path):
        findings = analyze_snippet(tmp_path, """\
            def go(endpoint, peer):
                endpoint.send(peer, "zz.mystery", {})  # repro-lint: disable=proto-unregistered-kind (fixture)
            """, make_registry([]))
        assert findings == []


class TestRepoGate:
    """The acceptance gates CI enforces."""

    def test_repo_tree_is_protocol_clean_and_fast(self):
        started = time.perf_counter()
        findings = analyze_tree(REPO_ROOT / "src", PROTOCOL)
        elapsed = time.perf_counter() - started
        assert findings == [], "\n".join(f.render() for f in findings)
        assert elapsed < 5.0, f"full-repo analysis took {elapsed:.2f}s"

    def test_repro_check_static_clean(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "check", "--static"],
            cwd=REPO_ROOT, capture_output=True, text=True,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 finding(s)" in proc.stdout


class TestDriftRegressions:
    """The real drift the analyzer surfaced while baselining must stay
    fixed (see the registry entries for imm.prepare/imm.commit/
    imm.abort and prop.flush)."""

    def _facts(self, name):
        _, ir = index_project(
            [str(REPO_ROOT / "src" / "repro" / "core" / "immediate_update.py")]
        )
        for (path, fname), facts in ir.funcs.items():
            if fname == name:
                return facts
        raise AssertionError(f"no facts for {name}")

    def test_prepare_reply_has_no_dead_reason_key(self):
        facts = self._facts("handle_prepare")
        for keys in facts.return_dict_keys:
            assert "reason" not in keys

    def test_decision_reply_has_no_dead_site_key(self):
        facts = self._facts("handle_commit")
        for keys in facts.return_dict_keys:
            assert keys == frozenset({"done"})

    def test_rejoin_consumes_flush_reply(self):
        _, ir = index_project(
            [str(REPO_ROOT / "src" / "repro" / "cluster" / "rejoin.py")]
        )
        flush_sites = [
            s for s in ir.sends
            if s.kind.const == "prop.flush" and s.api == "request"
        ]
        assert flush_sites
        assert any("pushed" in s.reply_reads for s in flush_sites)
