"""The sharded experiment runner.

Fans a sweep (a list of :class:`~repro.perf.tasks.SweepTask`) across
worker processes and merges the results back **in task order**, so the
merged output is independent of shard count, scheduling, and retries —
``--shards 4`` is byte-identical to ``--shards 1`` (asserted by
``tests/test_perf_determinism.py``).

Design choices the determinism guarantee rests on:

* **Deterministic partitioning** — shard *i* of *N* gets tasks
  ``sorted_tasks[i::N]``; no work stealing, so which chunk holds a task
  is a pure function of the task list and the shard count.
* **Self-seeded tasks** — each task builds its entire simulation from
  its own seed, so the result is a function of the task alone and can
  be recomputed anywhere (which is also what makes retry sound).
* **Ordered merge** — a chunk returns ``[(task index, payload), ...]``;
  the parent stores results by index and emits them sorted. Completion
  order (which *does* vary with scheduling) never reaches the output.
* **Crash retry** — a worker that dies (crash, OOM-kill, ``os._exit``)
  breaks the executor and loses its wave's unfinished chunks: the
  parent replaces the executor and re-partitions the missing tasks over
  a fresh wave, whose results are identical because tasks are pure.

Every task runs through one body, :func:`_run_chunk`: in the parent
for ``shards <= 1``, in a cached ``ProcessPoolExecutor`` otherwise.
"""

from __future__ import annotations

import gc
import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Tuple

from repro.perf.tasks import SweepTask, canonical_json, digest, run_task

if TYPE_CHECKING:
    from concurrent.futures import ProcessPoolExecutor


class SweepError(RuntimeError):
    """A sweep could not complete (workers kept crashing)."""


@dataclass(frozen=True)
class ShardCrash:
    """Fault-injection hook for the worker-failure tests.

    The worker running shard ``shard`` hard-exits (``os._exit``) after
    completing ``after`` tasks — on the sweep's first attempt only, so
    the retry wave is healthy without any cross-process handshake.
    """

    shard: int
    after: int = 0
    exit_code: int = 73


@dataclass
class SweepResult:
    """A completed sweep: ordered results plus runner diagnostics."""

    grid: str
    root_seed: int
    shards: int
    tasks: List[SweepTask]
    #: task fingerprints, sorted by task index
    results: List[dict] = field(default_factory=list)
    #: number of retry waves that were needed (0 = no worker crashed)
    retries: int = 0

    @property
    def events_processed(self) -> int:
        """Total kernel events across all task simulations.

        Served from the per-task telemetry snapshots (the single
        carrier for worker-side runtime state — see
        :mod:`repro.obs.snapshot`); falls back to the legacy counters
        field for payloads that predate telemetry (e.g. fuzz tasks).
        """
        total = 0
        for r in self.results:
            telemetry = r.get("telemetry")
            if telemetry:
                total += telemetry.get("events_processed", 0)
            else:
                total += r.get("counters", {}).get("events_processed", 0)
        return total

    def telemetry(self) -> dict:
        """The sweep-level merged telemetry report.

        Task snapshots are folded in task-index order (the order of
        :attr:`results`), which makes the merge shard-count invariant —
        byte-identical for ``--shards 1`` and ``--shards 4`` just like
        the result fingerprints (gated in
        ``tests/test_perf_determinism.py``).
        """
        from repro.obs.snapshot import merge_telemetry

        return merge_telemetry(
            r.get("telemetry", {}) for r in self.results
        )

    def canonical(self) -> str:
        """The determinism surface: canonical JSON of the merged results.

        Deliberately excludes ``shards`` and ``retries`` — those
        describe *how* the sweep ran, and the whole point is that they
        must not influence *what* it produced.
        """
        return canonical_json(self._surface())

    def digest(self) -> str:
        """SHA-256 of :meth:`canonical` (what the CLI prints)."""
        return digest(self._surface())

    def _surface(self) -> dict:
        return {
            "grid": self.grid,
            "root_seed": self.root_seed,
            "results": self.results,
        }


def partition_tasks(
    tasks: List[SweepTask], shards: int
) -> List[List[SweepTask]]:
    """Round-robin tasks over shards, deterministically.

    Tasks are laid out in index order and dealt like cards: shard ``i``
    receives positions ``i, i+shards, i+2·shards, ...``. Round-robin
    balances heterogeneous grids better than contiguous blocks (long
    tasks tend to cluster), and the dealing order is reproducible, which
    the byte-identity guarantee requires.
    """
    if shards < 1:
        raise ValueError(f"shards must be >= 1, got {shards}")
    ordered = sorted(tasks, key=lambda t: t.index)
    return [ordered[i::shards] for i in range(shards)]


def _run_chunk(
    tasks: List[SweepTask], crash: Optional[ShardCrash] = None
) -> List[Tuple[int, dict]]:
    """Run tasks in order; returns ``[(task index, payload), ...]``.

    gc is off during each task and a young-generation collection follows
    it: tasks allocate heavily but drop few cycles, so collecting at the
    task boundary saves the scans in between (a full collection would
    re-scan every loaded module). ``crash`` (workers only) hard-exits
    after ``crash.after`` tasks or at the end of a shorter chunk.
    """
    payloads: List[Tuple[int, dict]] = []
    enabled = gc.isenabled()
    for done, task in enumerate(tasks):
        if crash is not None and done >= crash.after:
            # Simulated hard death: bypasses atexit and result delivery,
            # exactly like a SIGKILL mid-task.
            os._exit(crash.exit_code)
        gc.disable()
        try:
            payloads.append((task.index, run_task(task)))
        finally:
            if enabled:
                gc.enable()
        gc.collect(0)
    if crash is not None:
        os._exit(crash.exit_code)
    return payloads


#: one executor per shard count, reused by every later sweep (the fuzzer
#: sweeps once per batch); a broken one is dropped. ``fork`` skips the
#: per-worker re-import. ``concurrent.futures`` is imported on first use:
#: it adds ~1 MiB of RSS to every process that imports this module.
_EXECUTORS: Dict[int, "ProcessPoolExecutor"] = {}


def _executor(shards: int) -> "ProcessPoolExecutor":
    if shards not in _EXECUTORS:
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor

        method = "fork" if hasattr(os, "fork") else "spawn"
        _EXECUTORS[shards] = ProcessPoolExecutor(
            shards, mp_context=multiprocessing.get_context(method)
        )
    return _EXECUTORS[shards]


def run_sweep(
    tasks: List[SweepTask],
    shards: int = 1,
    grid: str = "",
    root_seed: int = 0,
    max_attempts: int = 3,
    crash: Optional[ShardCrash] = None,
) -> SweepResult:
    """Run a sweep, optionally sharded over worker processes.

    Parameters
    ----------
    tasks:
        The grid (see :func:`repro.perf.grids.build_grid`).
    shards:
        ``<= 1`` runs everything in-process (no subprocesses at all);
        ``N > 1`` fans the chunks out over an ``N``-worker executor.
    max_attempts:
        Total waves allowed, i.e. the initial wave plus retries. A
        sweep whose tasks are still missing after this many waves
        raises :class:`SweepError`.
    crash:
        Test-only fault injection, applied to the first wave of a
        sharded sweep (a crash needs a worker process to kill).
    """
    ordered = sorted(tasks, key=lambda t: t.index)
    if len({t.index for t in ordered}) != len(ordered):
        raise ValueError("task indices must be unique")
    sweep = SweepResult(
        grid=grid, root_seed=root_seed, shards=shards, tasks=ordered
    )

    if shards <= 1:
        sweep.results = [payload for _, payload in _run_chunk(ordered)]
        return sweep

    from concurrent.futures.process import BrokenProcessPool

    results: Dict[int, dict] = {}
    for attempt in range(max_attempts):
        todo = [t for t in ordered if t.index not in results]
        if not todo:
            break
        crashes = {crash.shard: crash} if crash and attempt == 0 else {}
        chunks = [c for c in partition_tasks(todo, shards) if c]
        executor = _executor(shards)
        try:
            # submit() raises too once a dead worker has broken the pool.
            futures = [
                executor.submit(_run_chunk, chunk, crashes.get(i))
                for i, chunk in enumerate(chunks)
            ]
            for future in futures:
                results.update(future.result())
        except BrokenProcessPool:
            del _EXECUTORS[shards]
            executor.shutdown()
            sweep.retries += 1

    missing = [t.index for t in ordered if t.index not in results]
    if missing:
        raise SweepError(
            f"{len(missing)} task(s) still unfinished after"
            f" {max_attempts} attempts: indices {missing}"
        )
    sweep.results = [results[t.index] for t in ordered]
    return sweep
