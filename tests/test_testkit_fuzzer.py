"""Fuzzer core: case determinism, perturbation hooks, oracles, sharding."""

import json

import pytest

from repro.perf.runner import run_sweep
from repro.perf.tasks import SweepTask, run_task
from repro.testkit import (
    FuzzCase,
    Perturbation,
    make_case,
    run_case,
    run_fuzz,
)
from repro.testkit.fuzzer import _parse_budget
from repro.testkit.schedule import CASE_FORMAT


# ---------------------------------------------------------------------- #
# case model
# ---------------------------------------------------------------------- #

def test_case_round_trips_through_json():
    case = make_case(3, 5)
    data = json.loads(json.dumps(case.to_dict()))
    assert data["format"] == CASE_FORMAT
    assert FuzzCase.from_dict(data) == case


def test_case_rejects_unknown_format():
    data = make_case(0, 0).to_dict()
    data["format"] = "something-else/9"
    with pytest.raises(ValueError, match="format"):
        FuzzCase.from_dict(data)


def test_make_case_is_pure():
    assert make_case(11, 4) == make_case(11, 4)
    assert make_case(11, 4) != make_case(11, 5)
    assert make_case(11, 4) != make_case(12, 4)


def test_case_amp_bounds_validated():
    case = make_case(0, 0)
    with pytest.raises(ValueError, match="latency_amp"):
        case.with_(latency_amp=1.5)
    with pytest.raises(ValueError, match="timer_amp"):
        case.with_(timer_amp=-0.1)


# ---------------------------------------------------------------------- #
# execution determinism
# ---------------------------------------------------------------------- #

def test_run_case_is_deterministic():
    case = make_case(0, 0)
    assert case.latency_amp > 0  # the seed-0 case exercises the hooks
    first, second = run_case(case), run_case(case)
    assert first.digest() == second.digest()
    assert first.canonical() == second.canonical()


def test_clean_protocol_has_no_findings():
    outcome = run_case(make_case(0, 1))
    assert outcome.ok
    assert outcome.fingerprint == []
    assert outcome.counters["updates_completed"] > 0


def test_perturbation_changes_the_schedule():
    base = make_case(0, 0).with_(latency_amp=0.0, timer_amp=0.0)
    jittered = base.with_(latency_amp=0.6, timer_amp=0.3)
    calm, shaken = run_case(base), run_case(jittered)
    # Different interleavings, but both runs must converge cleanly.
    assert calm.ok and shaken.ok
    assert calm.update_tags != shaken.update_tags
    assert calm.replicas == shaken.replicas


def test_perturbation_validates_amplitudes():
    with pytest.raises(ValueError):
        Perturbation(0, latency_amp=1.0)
    with pytest.raises(ValueError):
        Perturbation(0, timer_amp=-0.2)


def test_run_case_rejects_unknown_site():
    case = make_case(0, 0).with_(ops=(("site9", "item0", -5.0),))
    with pytest.raises(ValueError, match="site9"):
        run_case(case)


# ---------------------------------------------------------------------- #
# oracles
# ---------------------------------------------------------------------- #

def test_oracles_catch_planted_double_grant():
    outcome = run_case(make_case(0, 0, inject="av-double-grant"))
    assert not outcome.ok
    rules = outcome.rules
    # Caught independently by the event-time sanitizer AND the
    # end-state oracles (recomputed from live tables).
    assert "av.conservation" in rules
    assert "oracle.conservation" in rules


# ---------------------------------------------------------------------- #
# sweep integration
# ---------------------------------------------------------------------- #

def test_fuzz_task_runs_through_run_task():
    payload = run_task(
        SweepTask(index=0, experiment="fuzz", seed=0, n_updates=24)
    )
    assert payload["ok"] is True
    assert payload["case"]["seed"] != 0  # derived, not the root
    assert payload["counters"]["events_processed"] > 0


def test_fuzz_sweep_is_shard_invariant():
    def tasks():
        return [
            SweepTask(index=i, experiment="fuzz", seed=7, n_updates=24)
            for i in range(6)
        ]

    sequential = run_sweep(tasks(), shards=1)
    sharded = run_sweep(tasks(), shards=2)
    assert sequential.canonical() == sharded.canonical()


# ---------------------------------------------------------------------- #
# campaign
# ---------------------------------------------------------------------- #

def test_campaign_clean_on_correct_protocol():
    report = run_fuzz(root_seed=0, max_cases=8, n_ops=24)
    assert report.ok
    assert report.cases_run == 8
    assert report.violating is None
    assert "clean" in report.render()


def test_campaign_sums_the_sent_kind_census_over_its_cases():
    report = run_fuzz(root_seed=0, max_cases=8, n_ops=24, shards=2)
    expected = {}
    for index in range(8):
        outcome = run_case(make_case(0, index, n_ops=24))
        for kind, n in outcome.sent_kinds.items():
            expected[kind] = expected.get(kind, 0) + n
    assert report.sent_kinds == expected
    assert expected.get("prop.push", 0) > 0
    assert f"message kinds sent ({len(expected)})" in report.render()


def test_sent_kind_census_stays_out_of_the_replay_digest():
    outcome = run_case(make_case(0, 1, n_ops=24))
    assert outcome.sent_kinds
    assert "sent_kinds" not in outcome.canonical()
    digest = outcome.digest()
    outcome.sent_kinds = {}
    assert outcome.digest() == digest


def test_campaign_needs_a_bound():
    with pytest.raises(ValueError, match="budget"):
        run_fuzz(root_seed=0)


def test_parse_budget():
    assert _parse_budget(None) is None
    assert _parse_budget("10s") == 10.0
    assert _parse_budget("2m") == 120.0
    assert _parse_budget("500ms") == 0.5
    assert _parse_budget("42") == 42.0
