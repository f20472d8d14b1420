"""Tests for the static lint pass (repro.analysis.lint)."""

import textwrap
from pathlib import Path

from repro.analysis.lint import LintFinding, Linter, default_rules
from repro.analysis.protoflow.ir import index_project


def lint(paths):
    """The lint half of ``repro check --static``: the default rules on
    the shared protoflow parse, with no flow checks."""
    findings, _ir = index_project(paths, rules=default_rules(), flow_paths=())
    return findings


def lint_source(tmp_path, source, relpath="src/mod.py"):
    """Lint one snippet as if it lived at ``relpath`` in a repo tree."""
    target = tmp_path / relpath
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(textwrap.dedent(source))
    return lint([str(tmp_path)])


def rules_hit(findings):
    return sorted({f.rule for f in findings})


class TestWallClock:
    def test_host_clock_reads_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import time
            from datetime import datetime

            def stamp():
                return time.time(), time.perf_counter(), datetime.now()
            """)
        assert rules_hit(findings) == ["wall-clock"]
        assert len(findings) == 3

    def test_sim_clock_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            def stamp(env):
                return env.now
            """) == []

    def test_benchmarks_exempt(self, tmp_path):
        assert lint_source(tmp_path, """\
            import time
            t = time.perf_counter()
            """, relpath="benchmarks/bench_x.py") == []


class TestSeededRng:
    def test_direct_default_rng_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import numpy as np
            rng = np.random.default_rng(0)
            """)
        assert rules_hit(findings) == ["seeded-rng"]

    def test_global_seed_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import numpy as np
            np.random.seed(42)
            """)
        assert rules_hit(findings) == ["seeded-rng"]

    def test_registry_streams_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            def make(registry):
                return registry.stream("net.latency")
            """) == []

    def test_tests_exempt(self, tmp_path):
        assert lint_source(tmp_path, """\
            import numpy as np
            rng = np.random.default_rng(0)
            """, relpath="tests/test_x.py") == []


class TestUnorderedIter:
    def test_for_over_set_literal_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            for x in {1, 2, 3}:
                print(x)
            """)
        assert rules_hit(findings) == ["unordered-iter"]

    def test_comprehension_over_set_call_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def dedupe(xs):
                return [x for x in set(xs)]
            """)
        assert rules_hit(findings) == ["unordered-iter"]

    def test_sorted_wrapper_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            def dedupe(xs):
                return [x for x in sorted(set(xs))]
            """) == []


# The per-file ``message-handlers`` rule was retired: the registry
# checks in repro.analysis.protoflow subsume it (and resolve dynamic
# kinds it could not). See tests/test_analysis_protoflow.py.


class TestSpanCoverage:
    def test_bare_entry_point_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            class FooProtocol:
                def execute(self, item):
                    return item

                def handle_thing(self, msg):
                    return None

                def helper(self):
                    return 1
            """)
        assert rules_hit(findings) == ["span-coverage"]
        assert len(findings) == 2  # execute + handle_thing, not helper

    def test_span_recording_entry_point_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            class FooProtocol:
                def execute(self, accel, item):
                    rec = accel.obs.recorder
                    rec.close_span(rec.open_span("read", accel.site, 0.0), 1.0)
            """) == []

    def test_non_protocol_classes_exempt(self, tmp_path):
        assert lint_source(tmp_path, """\
            class FooHelper:
                def execute(self, item):
                    return item
            """) == []


class TestSpanKindRegistry:
    def test_unregistered_kind_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def go(rec, site):
                span = rec.open_span("made.up.kind", site, 0.0)
                rec.close_span(span, 1.0)
            """)
        assert rules_hit(findings) == ["span-kind-registry"]
        assert "SPAN_KINDS" in findings[0].message

    def test_misspelt_open_span_kind_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def go(rec, site, parent, item):
                span = rec.open_span("imm.lcok", site, 0.0, ("item",),
                                     (item,), parent=parent)
                yield wait()
                rec.close_span(span, 1.0)
            """)
        assert rules_hit(findings) == ["span-kind-registry"]
        assert len(findings) == 1
        assert "'imm.lcok'" in findings[0].message
        assert findings[0].line == 2

    def test_registered_kind_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            def go(rec, site):
                span = rec.open_span("read", site, 0.0)
                rec.close_span(span, 1.0)
            """) == []

    def test_unregistered_row_kind_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def go(rec, site, parent):
                row = rec.open_row(parent)
                try:
                    work()
                except BaseException:
                    rec.keep_open(row, "made.up.kind", site, 0.0)
                    raise
                rec.write_row(row, "made.up.kind", site, 0.0, 1.0)
            """)
        assert rules_hit(findings) == ["span-kind-registry"]
        assert len(findings) == 2
        assert "'made.up.kind'" in findings[0].message

    def test_registered_row_kind_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            def go(rec, site, parent):
                row = rec.open_row(parent)
                rec.write_row(row, "delay.apply", site, 0.0, 1.0,
                              ("item",), ("item0",))
            """) == []

    def test_registered_tree_kinds_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            TREE_KINDS = ("update", "av.checking", "delay.apply", "prop.push")
            """) == []

    def test_misspelt_tree_kind_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            TREE_KINDS = (
                "update",
                "av.checkng",
                "delay.apply",
            )
            """)
        assert rules_hit(findings) == ["span-kind-registry"]
        assert len(findings) == 1
        assert "'av.checkng'" in findings[0].message
        assert findings[0].line == 3

    def test_registered_pair_kinds_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            PAIR_KINDS = (
                ("update", "av.checking"),
                ("av.selecting", "av.request"),
                ("av.grant", "av.deciding"),
            )
            """) == []

    def test_misspelt_pair_kind_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            PAIR_KINDS = (
                ("update", "av.checking"),
                ("av.selecting", "av.requst"),
            )
            """)
        assert rules_hit(findings) == ["span-kind-registry"]
        assert len(findings) == 1
        assert "'av.requst'" in findings[0].message
        assert findings[0].line == 3

    def test_tests_exempt(self, tmp_path):
        assert lint_source(tmp_path, """\
            def go(rec, site):
                rec.open_span("made.up.kind", site, 0.0)
            """, relpath="tests/test_x.py") == []

    def test_non_span_start_methods_ignored(self, tmp_path):
        # Schedulers/daemons expose .start(); it names no span kind.
        assert lint_source(tmp_path, """\
            def go(daemon):
                daemon.start("worker-1")
            """) == []

    def test_dynamic_kinds_ignored(self, tmp_path):
        assert lint_source(tmp_path, """\
            def go(rec, site, kind):
                rec.open_span(kind, site, 0.0)
            """) == []

    def test_suppressible(self, tmp_path):
        assert lint_source(tmp_path, """\
            def go(rec, site):
                rec.open_span("one.off", site, 0.0)  # repro-lint: disable=span-kind-registry (debug probe)
            """) == []


class TestEventKindRegistry:
    def test_misspelt_tapped_kind_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            class Table:
                def __init__(self, obs):
                    self._on_take = obs.tap("av.tkae")
            """)
        assert rules_hit(findings) == ["event-kind-registry"]
        assert len(findings) == 1
        assert "'av.tkae'" in findings[0].message
        assert "EVENT_KINDS" in findings[0].message
        assert findings[0].line == 3

    def test_misspelt_subscribed_kind_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def watch(obs, fn):
                obs.subscribe("msg.sned", fn)
            """)
        assert rules_hit(findings) == ["event-kind-registry"]
        assert "'msg.sned'" in findings[0].message

    def test_misspelt_kind_listed_to_the_fields_adapter_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            def watch(obs, fn):
                return obs.subscribe_fields(fn, ("msg.send", "msg.recieve"))
            """)
        assert rules_hit(findings) == ["event-kind-registry"]
        assert len(findings) == 1
        assert "'msg.recieve'" in findings[0].message

    def test_declared_kinds_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            def wire(obs, fn):
                tap = obs.tap("av.hold.consume")
                obs.subscribe("lock.wait", fn)
                obs.subscribe_fields(fn, ["msg.send", "msg.drop"])
                obs.subscribe_fields(fn)
                return tap
            """) == []

    def test_dynamic_kinds_ignored(self, tmp_path):
        assert lint_source(tmp_path, """\
            def wire(obs, kinds, fn):
                for kind in kinds:
                    obs.subscribe(kind, fn)
            """) == []

    def test_tests_exempt(self, tmp_path):
        assert lint_source(tmp_path, """\
            def watch(obs, fn):
                obs.subscribe("made.up", fn)
            """, relpath="tests/test_x.py") == []


class TestUnboundedQueue:
    def test_bare_deque_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            from collections import deque
            q = deque()
            """)
        assert rules_hit(findings) == ["unbounded-queue"]

    def test_deque_with_maxlen_clean(self, tmp_path):
        assert lint_source(tmp_path, """\
            from collections import deque
            q = deque(maxlen=64)
            """) == []

    def test_queue_append_without_budget_flagged(self, tmp_path):
        findings = lint_source(tmp_path, """\
            class Mailbox:
                def deliver(self, msg):
                    self.backlog.append(msg)
            """)
        assert rules_hit(findings) == ["unbounded-queue"]
        assert "budget" in findings[0].message

    def test_len_guard_counts_as_budget(self, tmp_path):
        assert lint_source(tmp_path, """\
            class Mailbox:
                def deliver(self, msg):
                    if len(self.backlog) >= 64:
                        return False
                    self.backlog.append(msg)
                    return True
            """) == []

    def test_budget_identifier_counts(self, tmp_path):
        assert lint_source(tmp_path, """\
            class Mailbox:
                def deliver(self, ovl, msg):
                    if not ovl.admit(self.params.backlog_budget):
                        return False
                    self.pending.append(msg)
                    return True
            """) == []

    def test_non_queue_appends_ignored(self, tmp_path):
        assert lint_source(tmp_path, """\
            def collect(results, item):
                results.append(item)
            """) == []

    def test_nested_scope_judged_separately(self, tmp_path):
        # The outer function's len() guard must not grant amnesty to a
        # nested closure that appends with no budget of its own.
        findings = lint_source(tmp_path, """\
            class Router:
                def pump(self, msg):
                    if len(self.inbox) < 8:
                        pass

                    def enqueue(m):
                        self.inbox.append(m)
                    return enqueue
            """)
        assert rules_hit(findings) == ["unbounded-queue"]

    def test_tests_exempt(self, tmp_path):
        assert lint_source(tmp_path, """\
            from collections import deque
            q = deque()
            """, relpath="tests/test_x.py") == []

    def test_suppressible(self, tmp_path):
        assert lint_source(tmp_path, """\
            from collections import deque
            q = deque()  # repro-lint: disable=unbounded-queue (drained every kernel step)
            """) == []


class TestProcessOwner:
    SPAWN = """\
        def start(env, gen, site):
            return env.process(gen(){owner})
        """

    def test_spawn_without_owner_flagged(self, tmp_path):
        findings = lint_source(
            tmp_path, self.SPAWN.format(owner=""),
            relpath="src/repro/core/mod.py",
        )
        assert rules_hit(findings) == ["process-owner"]
        assert "owner=" in findings[0].message

    def test_owner_site_and_owner_none_clean(self, tmp_path):
        for owner in (", owner=site", ", owner=None"):
            assert lint_source(
                tmp_path, self.SPAWN.format(owner=owner),
                relpath="src/repro/net/mod.py",
            ) == []

    def test_workload_not_checked(self, tmp_path):
        assert lint_source(
            tmp_path, self.SPAWN.format(owner=""),
            relpath="src/repro/workload/mod.py",
        ) == []


class TestSuppression:
    def test_disable_comment_silences_one_rule(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import numpy as np
            rng = np.random.default_rng(0)  # repro-lint: disable=seeded-rng (root stream)
            """)
        assert findings == []

    def test_disable_is_rule_specific(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import numpy as np
            rng = np.random.default_rng(0)  # repro-lint: disable=wall-clock
            """)
        assert rules_hit(findings) == ["seeded-rng"]

    def test_disable_all_and_lists(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import time
            a = time.time()  # repro-lint: disable=all
            for x in {1}:  # repro-lint: disable=unordered-iter, wall-clock
                pass
            """)
        assert findings == []


class TestFramework:
    def test_findings_sorted_and_rendered(self, tmp_path):
        findings = lint_source(tmp_path, """\
            import time
            b = time.time()
            a = time.monotonic()
            """)
        assert [f.line for f in findings] == [2, 3]
        out = findings[0].render()
        assert out.endswith("wall-clock: host clock read time.time() —"
                            " simulation code must use env.now")
        assert ":2:" in out

    def test_syntax_error_reported_not_raised(self, tmp_path):
        findings = lint_source(tmp_path, "def broken(:\n")
        assert rules_hit(findings) == ["parse"]

    def test_single_file_argument(self, tmp_path):
        src = tmp_path / "src"
        src.mkdir()
        f = src / "m.py"
        f.write_text("import time\nt = time.time()\n")
        findings = Linter(default_rules()).run([str(f)])
        assert rules_hit(findings) == ["wall-clock"]

    def test_message_handlers_rule_retired(self):
        # Subsumed by protoflow's registry checks (proto-missing-handler
        # and friends); keeping both would double-report.
        assert "message-handlers" not in {r.name for r in default_rules()}

    def test_legacy_engine_agrees_with_shared_engine(self, tmp_path):
        """Linter (per-file fallback) and index_project (shared parse)
        produce identical findings over the same tree."""
        target = tmp_path / "src" / "mod.py"
        target.parent.mkdir(parents=True)
        target.write_text(textwrap.dedent("""\
            import time

            def stamp():
                return time.time()

            def dedupe(xs):
                return [x for x in set(xs)]
            """))
        legacy = Linter(default_rules()).run([str(tmp_path)])
        shared = lint([str(tmp_path)])
        assert [f.render() for f in legacy] == [f.render() for f in shared]
        assert rules_hit(shared) == ["unordered-iter", "wall-clock"]

    def test_repo_tree_is_lint_clean(self):
        """The gate CI enforces: the shipped tree has zero findings."""
        root = Path(__file__).resolve().parent.parent
        findings = lint([str(root / "src"), str(root / "tests")])
        assert findings == [], "\n".join(f.render() for f in findings)
