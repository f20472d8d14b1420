"""Sharded parallel experiment running.

The perf package scales the experiment harness out across worker
processes while keeping its headline guarantee: **the sharded sweep is
byte-identical to the sequential one**. Three pieces:

* :mod:`repro.perf.tasks` — self-contained sweep tasks (one simulation
  each) and their canonical, order-independent result fingerprints;
* :mod:`repro.perf.grids` — named seed × config grids ("fig6-small",
  "table1", "chaos", ...) with per-task seeds derived from one root seed;
* :mod:`repro.perf.runner` — the sharded runner: deterministic work
  partitioning, ``concurrent.futures`` process-pool fan-out, ordered
  result merging and worker-crash retry.

Determinism holds because every task owns its whole universe (a fresh
:class:`~repro.sim.engine.Environment` and
:class:`~repro.sim.rng.RngRegistry` seeded only from the task), so
results depend on the task alone — never on which shard ran it, in what
order, or after how many retries. See ``docs/performance.md``.
"""

from repro.perf.grids import GRID_NAMES, build_grid, derive_seed
from repro.perf.runner import (
    ShardCrash,
    SweepError,
    SweepResult,
    partition_tasks,
    run_sweep,
)
from repro.perf.tasks import SweepTask, canonical_json, run_task

__all__ = [
    "GRID_NAMES",
    "ShardCrash",
    "SweepError",
    "SweepResult",
    "SweepTask",
    "build_grid",
    "canonical_json",
    "derive_seed",
    "partition_tasks",
    "run_sweep",
    "run_task",
]
