"""Determinism and fault-tolerance tests for the sharded sweep runner.

The contract under test: a sweep's merged output is a pure function of
``(grid, root_seed)`` — byte-identical across shard counts, scheduling
orders, and worker crashes. ``canonical()`` (sorted-keys JSON of the
ordered results) is the comparison surface, so "equal" here really is
*byte*-equal, repr-exact floats included.
"""

import gc

import pytest

from repro.perf import (
    ShardCrash,
    SweepError,
    SweepTask,
    build_grid,
    derive_seed,
    partition_tasks,
    run_sweep,
)
from repro.perf import runner

ROOT_SEEDS = (0, 7, 20260806)


def _sweep(grid, root_seed, shards, **kwargs):
    tasks = build_grid(grid, root_seed=root_seed)
    return run_sweep(
        tasks, shards=shards, grid=grid, root_seed=root_seed, **kwargs
    )


# --------------------------------------------------------------------- #
# sharded == sequential, byte for byte
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("grid", ["fig6-small", "table1-small"])
@pytest.mark.parametrize("root_seed", ROOT_SEEDS)
def test_sharded_byte_identical_to_sequential(grid, root_seed):
    sequential = _sweep(grid, root_seed, shards=1)
    sharded = _sweep(grid, root_seed, shards=2)
    assert sequential.canonical() == sharded.canonical()
    assert sequential.digest() == sharded.digest()
    # The fingerprints carry real payload, not vacuous equality.
    assert sequential.events_processed > 0
    assert all(r["update_tags"] for r in sequential.results)


def test_shard_count_never_changes_output():
    """1..4 shards on a 3-task grid covers shards < tasks, == and >."""
    digests = {
        _sweep("fig6-small", 3, shards=n).digest() for n in (1, 2, 3, 4)
    }
    assert len(digests) == 1


def test_chaos_grid_sharded_matches_sequential():
    sequential = _sweep("chaos-small", 0, shards=1)
    sharded = _sweep("chaos-small", 0, shards=3)
    assert sequential.canonical() == sharded.canonical()
    assert all(r["ok"] for r in sequential.results)


@pytest.mark.parametrize("grid", ["fig6-small", "chaos-small"])
def test_merged_telemetry_shard_count_invariant(grid):
    """The sweep-level telemetry report is part of the determinism
    surface: folding shard snapshots in task-index order must yield a
    byte-identical merge for any shard count."""
    from repro.perf.tasks import canonical_json

    encodings = {
        canonical_json(_sweep(grid, 0, shards=n).telemetry())
        for n in (1, 2, 4)
    }
    assert len(encodings) == 1


def test_merged_telemetry_carries_real_payload():
    sweep = _sweep("fig6-small", 0, shards=2)
    telemetry = sweep.telemetry()
    assert telemetry["tasks"] == len(sweep.results)
    assert telemetry["events_processed"] == sweep.events_processed > 0
    assert telemetry["metrics"]
    assert telemetry["sites"]


#: `repro sweep <grid>` at root seed 0 — every committed artefact was
#: produced by these; a change that moves one has changed what the
#: experiments compute, not only how
PINNED_DIGESTS = {
    "fig6-small":
        "10739bd550c24758e7d875627bf2d4ab229f73101b715cb6e588f4a1192c4cb4",
    "table1-small":
        "d60351f534136a6b79066ab428968c875232897d0ef3bcdb01fa489b9f2e4d1e",
    "scale-small":
        "705bdaff73f866a4ee5c04a9f5e933d32d54598776afc6d730e317859971a504",
    "chaos-small":
        "499cd88fabd13b25222aec85a16882ab9f1e7a4c50f1edd7c91adc0094723b7b",
}


@pytest.mark.parametrize("grid", sorted(PINNED_DIGESTS))
def test_small_grid_digests_are_pinned(grid):
    assert _sweep(grid, 0, shards=1).digest() == PINNED_DIGESTS[grid]


def test_different_root_seeds_differ():
    """The root seed genuinely reaches the workloads."""
    assert (
        _sweep("fig6-small", 0, shards=1).digest()
        != _sweep("fig6-small", 1, shards=1).digest()
    )


# --------------------------------------------------------------------- #
# worker crashes
# --------------------------------------------------------------------- #


def test_worker_crash_retries_and_output_unchanged():
    """Kill a shard mid-sweep: the retry wave recomputes the lost tasks
    and the merged output is still byte-identical."""
    reference = _sweep("fig6-small", 1, shards=1)
    crashed = _sweep(
        "fig6-small", 1, shards=2,
        crash=ShardCrash(shard=0, after=1),  # dies with work undelivered
    )
    assert crashed.retries >= 1  # the crash demonstrably fired
    assert crashed.canonical() == reference.canonical()


def test_worker_crash_before_any_result():
    """A shard that dies instantly loses *all* its tasks — still fine."""
    reference = _sweep("table1-small", 2, shards=1)
    crashed = _sweep(
        "table1-small", 2, shards=2, crash=ShardCrash(shard=1, after=0)
    )
    assert crashed.retries >= 1
    assert crashed.canonical() == reference.canonical()


def test_scale_grid_sharded_matches_sequential_and_is_sanitizer_clean():
    # scale-small tasks always run with the protocol sanitizer attached
    # and report its counts in their payloads.
    sequential = _sweep("scale-small", 0, shards=1)
    sharded = _sweep("scale-small", 0, shards=2)
    assert sequential.canonical() == sharded.canonical()
    assert sequential.results
    for result in sequential.results:
        assert result["sanitizer"]["violations"] == 0


def test_sweep_error_when_tasks_never_finish():
    """With retries exhausted the runner fails loudly, not silently."""
    tasks = build_grid("fig6-small", root_seed=0)
    with pytest.raises(SweepError):
        run_sweep(
            tasks, shards=2, max_attempts=1,
            crash=ShardCrash(shard=0, after=0),
        )


def test_sanitizer_clean_under_sharded_optimized_kernel():
    """check=True replays tasks under the protocol sanitizer inside the
    workers: the optimized kernel must produce zero violations."""
    tasks = build_grid("fig6-small", root_seed=0, replicates=2, check=True)
    sweep = run_sweep(tasks, shards=2, grid="fig6-small", root_seed=0)
    assert len(sweep.results) == 2
    for result in sweep.results:
        assert result["sanitizer"]["violations"] == 0


def test_check_sanitizes_the_tasks_own_layout(monkeypatch):
    """--check replays the task's workload on the task's site count,
    not the 3-site paper default (fig6-wide has 8 retailers)."""
    from repro.analysis.check import run_check
    from repro.perf.tasks import run_task

    runs = []

    def spy(**kwargs):
        runs.append(run_check(**kwargs))
        return runs[-1]

    monkeypatch.setattr("repro.analysis.check.run_check", spy)
    (task,) = build_grid(
        "fig6-wide", root_seed=0, replicates=1, n_updates=90, check=True
    )
    payload = run_task(task)
    assert task.n_retailers == 8
    assert len(payload["replicas"]) == task.n_retailers + 1
    assert [len(run.system.sites) for run in runs] == [task.n_retailers + 1]
    assert payload["sanitizer"]["violations"] == 0


# --------------------------------------------------------------------- #
# executor lifecycle & gc deferral
# --------------------------------------------------------------------- #


def test_pool_persists_across_sweeps():
    """Two sweeps in one process share one executor: a campaign (the
    fuzzer runs one sweep per batch) pays worker start-up once."""
    first = _sweep("fig6-small", 0, shards=2)
    executor = runner._EXECUTORS[2]
    second = _sweep("fig6-small", 0, shards=2)
    assert runner._EXECUTORS[2] is executor
    assert first.canonical() == second.canonical()


def test_crash_replaces_the_broken_executor():
    """A worker killed mid-sweep breaks its executor: the sweep swaps in
    a fresh one, and that one serves the next sweep — byte-identical
    output throughout."""
    reference = _sweep("fig6-small", 1, shards=1)
    before = runner._executor(2)
    crashed = _sweep(
        "fig6-small", 1, shards=2, crash=ShardCrash(shard=0, after=1)
    )
    assert crashed.retries >= 1
    assert crashed.canonical() == reference.canonical()
    replacement = runner._EXECUTORS[2]
    assert replacement is not before
    again = _sweep("fig6-small", 1, shards=2)
    assert runner._EXECUTORS[2] is replacement
    assert again.retries == 0
    assert again.canonical() == reference.canonical()


@pytest.mark.parametrize("enabled", [True, False])
def test_sequential_sweep_restores_gc_state(enabled):
    """The in-process body defers gc per task and must hand the
    caller's gc state back — also when a task raises."""
    good = build_grid("fig6-small", root_seed=0)[:1]
    bad = [SweepTask(index=1, experiment="no-such-experiment", seed=0,
                     n_updates=1)]
    was = gc.isenabled()
    try:
        if not enabled:
            gc.disable()
        run_sweep(good, shards=1)
        assert gc.isenabled() is enabled
        with pytest.raises(ValueError):
            run_sweep(good + bad, shards=1)
        assert gc.isenabled() is enabled
    finally:
        if was:
            gc.enable()


# --------------------------------------------------------------------- #
# partitioning & seed derivation
# --------------------------------------------------------------------- #


def test_partition_round_robin_covers_everything_once():
    tasks = build_grid("fig6-small", root_seed=0, replicates=7)
    chunks = partition_tasks(tasks, 3)
    assert [t.index for t in chunks[0]] == [0, 3, 6]
    assert [t.index for t in chunks[1]] == [1, 4]
    assert [t.index for t in chunks[2]] == [2, 5]
    flat = sorted(t.index for chunk in chunks for t in chunk)
    assert flat == list(range(7))


def test_partition_rejects_bad_shard_count():
    with pytest.raises(ValueError):
        partition_tasks([], 0)


def test_derive_seed_stable_and_decorrelated():
    assert derive_seed(0, "fig6", 0) == derive_seed(0, "fig6", 0)
    seeds = {derive_seed(0, "fig6", i) for i in range(16)}
    assert len(seeds) == 16
    assert derive_seed(0, "fig6", 0) != derive_seed(0, "table1", 0)
    assert derive_seed(0, "fig6", 0) != derive_seed(1, "fig6", 0)


def test_grid_replicate_seeds_independent_of_replicate_count():
    """Growing a grid never perturbs its existing cells."""
    small = build_grid("fig6-small", root_seed=5, replicates=2)
    large = build_grid("fig6-small", root_seed=5, replicates=6)
    assert [t.seed for t in large[:2]] == [t.seed for t in small]


def test_canonical_excludes_runner_diagnostics():
    """shards/retries describe *how* the sweep ran; they must not leak
    into the determinism surface."""
    sweep = _sweep("fig6-small", 0, shards=1)
    sweep.shards, sweep.retries = 99, 42
    assert sweep.canonical() == _sweep("fig6-small", 0, shards=1).canonical()
