"""Checks on the benchmark itself. Run explicitly — not part of tier-1:

    python3 -m pytest benchmarks/e2e/test_bench_e2e.py -q

Every test drives the real workloads at a hundredth of their size.
"""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
for _path in (str(ROOT / "src"), str(HERE)):
    if _path not in sys.path:
        sys.path.insert(0, _path)

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SCALE = 0.01


def _one_run(workload: str, trace: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "3", "--scale", str(SCALE), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert out.returncode == 0, out.stdout + out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_emits_exactly_the_declared_metrics(workload, trace, section):
    result = _one_run(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {n: c["unit"] for n, c in result["metrics"].items()} == declared
    for name in declared:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name)


def test_spec_names_the_registered_workloads_and_layers():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert SPEC["run_seconds"] == workloads.RUN_SECONDS
    per_layer = {m["name"] for m in SPEC["per_layer"]}
    for layer in LAYERS:
        assert f"{layer}.self_us_per_update" in per_layer
        assert f"{layer}.calls_per_update" in per_layer


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_traced_digest_equals_untraced_and_patches_are_undone(workload):
    probe = Tracer()
    probe.install()
    originals = probe.patched()
    probe.restore()
    assert originals and not probe.missing

    untraced = workloads.execute(workload, 5, SCALE)
    tracer = Tracer()
    traced = workloads.execute(workload, 5, SCALE, tracer)
    assert untraced.ok and traced.ok, untraced.tally.failures + traced.tally.failures
    assert traced.tally.digest == untraced.tally.digest
    assert tracer.n_spans > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, f"{owner}.{attr} still patched"


def test_same_seed_repeats_exactly_and_another_seed_differs():
    first = workloads.execute("paper-local", 7, SCALE)
    again = workloads.execute("paper-local", 7, SCALE)
    other = workloads.execute("paper-local", 8, SCALE)
    assert first.tally.digest == again.tally.digest
    assert first.tally.digest != other.tally.digest


def test_a_dropped_result_fails_verification(monkeypatch):
    real = workloads.driver.run_closed

    def lossy(system, events, **kwargs):
        return real(system, events, **kwargs)[:-1]

    monkeypatch.setattr(workloads.driver, "run_closed", lossy)
    run = workloads.execute("paper-local", 0, SCALE)
    assert not run.ok
    assert any("one for one" in f for f in run.tally.failures)


def test_accounting_rejects_results_matching_no_trace_event():
    trace = workloads.make_paper_trace(50, 0, n_items=10)
    system = workloads.DistributedSystem.build(
        workloads.paper_config(n_items=10, seed=0)
    )
    results = workloads.driver.run_closed(system, trace)
    assert workloads.accounting_failures(trace, results) == []
    assert workloads.accounting_failures(trace, results[1:])
    assert workloads.accounting_failures(trace[1:], results, skips_allowed=True)
    assert not workloads.accounting_failures(trace, results[1:], skips_allowed=True)


def test_a_surge_that_leaves_the_immediate_path_idle_is_drawn_again():
    # seed 32 is the first whose three bursts all draw the regular item
    drawn = []

    def factory(n_updates, seed, config):
        drawn.append(seed)
        return workloads.chaos._overload_trace(n_updates, seed, config)

    scenario = next(s for s in workloads.chaos.FULL_SCENARIOS if s.trace_factory)
    config = workloads.paper_config(
        n_items=workloads.CHAOS_ITEMS, **scenario.config_overrides
    )
    make = workloads._both_paths(factory)
    make(240, 0, config)
    assert drawn == [0]
    del drawn[:]
    trace = make(240, 32, config)
    assert drawn == [32, 32 * workloads.SUBSEED_STRIDE + 1]
    assert sum(e.item == "item3" for e in trace) >= workloads.SURGE_MIN_IMMEDIATE

    run = workloads.execute("chaos-faults", 32, SCALE)
    assert run.ok, run.tally.failures
