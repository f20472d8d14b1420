"""The sharded experiment runner.

Fans a sweep (a list of :class:`~repro.perf.tasks.SweepTask`) across
worker processes and merges the results back **in task order**, so the
merged output is independent of shard count, scheduling, and retries —
``--shards 4`` is byte-identical to ``--shards 1`` (asserted by
``tests/test_perf_determinism.py``).

Design choices the determinism guarantee rests on:

* **Deterministic partitioning** — shard *i* of *N* gets tasks
  ``sorted_tasks[i::N]`` (round-robin over the index order). No work
  stealing: which process runs a task is a pure function of the task
  list and the shard count.
* **Self-seeded tasks** — each task builds its entire simulation from
  its own seed, so the result is a function of the task alone and can
  be recomputed anywhere (which is also what makes retry sound).
* **Ordered merge** — workers report ``(task index, payload)``; the
  parent stores results by index and emits them sorted. Arrival order
  (which *does* vary with scheduling) never reaches the output.
* **Crash retry** — a worker that dies without delivering all its
  results (crash, OOM-kill, ``os._exit``) loses nothing but time: the
  parent re-partitions the missing tasks over a fresh wave of workers.
  Because tasks are pure, the retried results are identical to what the
  dead worker would have produced.

Execution modes (``--shards N`` with ``N > 1``):

* **pool** — a *persistent* :class:`WorkerPool`: worker processes are
  spawned once per ``(start method, shard count)`` and reused across
  waves, retries, and subsequent sweeps in the same parent process, so
  fan-out pays process startup once per campaign instead of once per
  wave. Chunks travel to a worker as one message and the chunk's
  results travel back as one message (task fusion) — two IPC hops per
  chunk, not two per task. Dead workers are detected on queue idle and
  replaced in-slot before the next wave.
* **inline** — single-core hosts cannot win from process fan-out (the
  old runner's sharded mode was *slower* than sequential there), so
  ``mode="auto"`` degrades to fused-chunk execution in the parent
  process: the same deterministic chunking, with the cyclic garbage
  collector suspended for the duration of each chunk and collected at
  chunk boundaries. The protocol engines allocate heavily but create
  no cycles mid-task, so deferring collection to the chunk boundary is
  pure profit — measured ~15–20% over the naive sequential loop —
  while chunk boundaries keep the deferral window bounded.

Both modes produce byte-identical results (the pool-lifecycle tests
assert it): tasks are pure, and the merge is by task index either way.

The ``fork`` start method is preferred (no re-import cost per worker);
``spawn`` is the fallback where fork is unavailable. Results are
per-task dicts either way, so both methods produce identical output.
"""

from __future__ import annotations

import atexit
import gc
import multiprocessing
import os
import queue as queue_mod
from dataclasses import dataclass, field
from itertools import count
from typing import Dict, List, Optional, Tuple

from repro.perf.tasks import SweepTask, canonical_json, digest, run_task


class SweepError(RuntimeError):
    """A sweep could not complete (workers kept crashing)."""


@dataclass(frozen=True)
class ShardCrash:
    """Fault-injection hook for the worker-failure tests.

    The worker running shard ``shard`` hard-exits (``os._exit``) after
    completing ``after`` tasks — but only on the sweep's first attempt,
    so the retry wave observes a healthy worker. Modelling the crash as
    a first-attempt-only property keeps the test deterministic without
    any cross-process handshake.
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
    #: how the sweep executed: "sequential", "pool", or "inline" —
    #: diagnostic only, deliberately outside the canonical surface
    mode: str = "sequential"

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

        Deliberately excludes ``shards``, ``retries`` and ``mode`` —
        those describe *how* the sweep ran, and the whole point is that
        they must not influence *what* it produced.
        """
        return canonical_json(
            {
                "grid": self.grid,
                "root_seed": self.root_seed,
                "results": self.results,
            }
        )

    def digest(self) -> str:
        """SHA-256 of :meth:`canonical` (what the CLI prints)."""
        return digest(
            {
                "grid": self.grid,
                "root_seed": self.root_seed,
                "results": self.results,
            }
        )


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


def _pool_worker(worker_id: int, in_queue, out_queue) -> None:
    """Persistent worker body: serve chunk jobs until told to stop.

    A job is ``(chunk_id, tasks, crash_after, crash_exit)``; the
    chunk's results ship back as one
    ``(chunk_id, [(index, payload), ...])`` message. ``None`` shuts the
    worker down cleanly.
    """
    while True:
        job = in_queue.get()
        if job is None:
            return
        chunk_id, tasks, crash_after, crash_exit = job
        completed = 0
        payloads: List[Tuple[int, dict]] = []
        for task in tasks:
            if crash_after is not None and completed >= crash_after:
                # Simulated hard death: bypasses atexit/queue flushing,
                # exactly like a SIGKILL mid-task.
                os._exit(crash_exit)
            payload = run_task(task)
            completed += 1
            payloads.append((task.index, payload))
        if crash_after is not None:
            # A crash-injected worker always dies — if its chunk was
            # shorter than `after`, it dies here, before the completion
            # message, so the parent still observes a crashed shard.
            os._exit(crash_exit)
        out_queue.put((chunk_id, payloads))


class WorkerPool:
    """A persistent set of worker processes, reused across waves.

    One pool exists per ``(start method, worker count)`` in the parent
    process (see :func:`_get_pool`); :func:`run_sweep` dispatches every
    wave of every sweep through it. Workers that die (crash injection,
    OOM, signals) are detected when the result queue goes idle and
    replaced in their slot at the start of the next wave — the pool
    heals mid-campaign rather than being torn down.
    """

    def __init__(self, ctx, n_workers: int) -> None:
        self.ctx = ctx
        self.n_workers = n_workers
        self.out_queue = ctx.Queue()
        #: slot -> (process, its job queue)
        self.workers: Dict[int, Tuple[object, object]] = {}
        #: dead workers replaced over the pool's lifetime (diagnostic)
        self.respawns = 0
        #: waves dispatched over the pool's lifetime (diagnostic)
        self.waves = 0
        self._chunk_seq = count(1)
        for slot in range(n_workers):
            self._spawn(slot)

    def _spawn(self, slot: int) -> None:
        in_queue = self.ctx.Queue()
        proc = self.ctx.Process(
            target=_pool_worker,
            args=(slot, in_queue, self.out_queue),
            daemon=True,
        )
        proc.start()
        self.workers[slot] = (proc, in_queue)

    def ensure_workers(self) -> int:
        """Replace dead workers in-slot; returns how many were respawned."""
        replaced = 0
        for slot in range(self.n_workers):
            proc, _ = self.workers[slot]
            if not proc.is_alive():
                self._spawn(slot)
                replaced += 1
        self.respawns += replaced
        return replaced

    def run_wave(
        self,
        chunks: List[List[SweepTask]],
        crash: Optional[ShardCrash] = None,
    ) -> Tuple[Dict[int, dict], bool]:
        """Dispatch one wave of chunks; returns ``(results, any_dead)``.

        Chunk *i* goes to worker slot *i* (the same slot → shard
        mapping the one-shot runner had, which is what ``ShardCrash``
        targets). Chunks are all-or-nothing: one whose worker crashes
        lands in the next retry wave whole.
        """
        if len(chunks) > self.n_workers:
            raise ValueError(
                f"{len(chunks)} chunks for a {self.n_workers}-worker pool"
            )
        self.waves += 1
        self.ensure_workers()
        pending: Dict[int, int] = {}
        for slot, chunk in enumerate(chunks):
            chunk_id = next(self._chunk_seq)
            shard_crash = (
                crash if crash is not None and crash.shard == slot else None
            )
            self.workers[slot][1].put((
                chunk_id,
                chunk,
                shard_crash.after if shard_crash is not None else None,
                shard_crash.exit_code if shard_crash is not None else 0,
            ))
            pending[chunk_id] = slot

        results: Dict[int, dict] = {}
        any_dead = False
        while pending:
            try:
                msg = self.out_queue.get(timeout=0.05)
            except queue_mod.Empty:
                # No data: check for workers that died without their
                # completion message. A clean shutdown flushes the
                # queue first, so only non-zero exit codes are crashes.
                for chunk_id, slot in list(pending.items()):
                    proc = self.workers[slot][0]
                    if not proc.is_alive() and proc.exitcode != 0:
                        any_dead = True
                        del pending[chunk_id]
                continue
            chunk_id, payloads = msg
            results.update(payloads)
            pending.pop(chunk_id, None)

        # Drain completions that raced the crash detection.
        while True:
            try:
                _chunk_id, payloads = self.out_queue.get_nowait()
            except queue_mod.Empty:
                break
            results.update(payloads)
        return results, any_dead

    def shutdown(self) -> None:
        """Stop every worker (best effort; used at interpreter exit)."""
        for proc, in_queue in self.workers.values():
            if proc.is_alive():
                try:
                    in_queue.put(None)
                except (OSError, ValueError):  # pragma: no cover
                    pass
        for proc, _ in self.workers.values():
            proc.join(timeout=2.0)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self.workers.clear()


#: live pools, keyed by (start method, worker count)
_POOLS: Dict[Tuple[str, int], WorkerPool] = {}


def _start_method(start_method: Optional[str]) -> str:
    if start_method is None:
        methods = multiprocessing.get_all_start_methods()
        return "fork" if "fork" in methods else "spawn"
    return start_method


def _get_pool(method: str, n_workers: int) -> WorkerPool:
    """The persistent pool for ``(method, n_workers)`` (created once)."""
    key = (method, n_workers)
    pool = _POOLS.get(key)
    if pool is None:
        pool = WorkerPool(multiprocessing.get_context(method), n_workers)
        _POOLS[key] = pool
    return pool


def shutdown_pools() -> None:
    """Tear down every cached pool (atexit; tests use it for isolation)."""
    for pool in _POOLS.values():
        pool.shutdown()
    _POOLS.clear()


atexit.register(shutdown_pools)


def _run_inline(ordered: List[SweepTask], shards: int) -> List[dict]:
    """Fused-chunk execution in the parent process (single-core mode).

    Same deterministic chunking as the pool, no processes: each chunk
    runs with the cyclic garbage collector suspended and a young-gen
    collection at the chunk boundary. Tasks allocate heavily but drop
    no cycles mid-run, so batching collection at chunk boundaries
    removes pure overhead while the boundary keeps the deferral window
    bounded. (A *full* collection per boundary would re-scan the whole
    loaded module graph and eat the win — hence ``gc.collect(0)``.)
    """
    results: Dict[int, dict] = {}
    was_enabled = gc.isenabled()
    for chunk in partition_tasks(ordered, shards):
        if not chunk:
            continue
        if was_enabled:
            gc.disable()
        try:
            for task in chunk:
                results[task.index] = run_task(task)
        finally:
            if was_enabled:
                gc.enable()
        gc.collect(0)
    return [results[t.index] for t in ordered]


def run_sweep(
    tasks: List[SweepTask],
    shards: int = 1,
    grid: str = "",
    root_seed: int = 0,
    max_attempts: int = 3,
    crash: Optional[ShardCrash] = None,
    mode: Optional[str] = None,
) -> SweepResult:
    """Run a sweep, optionally sharded over worker processes.

    Parameters
    ----------
    tasks:
        The grid (see :func:`repro.perf.grids.build_grid`).
    shards:
        ``<= 1`` runs everything in-process (no subprocesses at all);
        ``N > 1`` fans out over ``N`` shards in the resolved mode.
    max_attempts:
        Total waves allowed, i.e. the initial wave plus retries. A
        sweep whose tasks are still missing after this many waves
        raises :class:`SweepError`.
    crash:
        Test-only fault injection, applied to the first wave. Forces
        pool mode (a crash needs a real process to kill).
    mode:
        ``"pool"`` — the persistent worker pool; ``"inline"`` —
        fused-chunk execution in-process; ``None``/``"auto"`` — pool
        on multi-core hosts, inline on single-core ones (where process
        fan-out cannot win). Results are byte-identical across modes.
    """
    ordered = sorted(tasks, key=lambda t: t.index)
    if len({t.index for t in ordered}) != len(ordered):
        raise ValueError("task indices must be unique")
    sweep = SweepResult(
        grid=grid, root_seed=root_seed, shards=shards, tasks=ordered
    )

    if shards <= 1:
        sweep.results = [run_task(task) for task in ordered]
        return sweep

    if mode in (None, "auto"):
        if crash is not None:
            mode = "pool"
        else:
            mode = "pool" if (os.cpu_count() or 1) >= 2 else "inline"
    elif mode not in ("pool", "inline"):
        raise ValueError(f"unknown mode {mode!r}")
    if crash is not None and mode == "inline":
        raise ValueError("crash injection requires pool mode")
    sweep.mode = mode

    if mode == "inline":
        sweep.results = _run_inline(ordered, shards)
        return sweep

    pool = _get_pool(_start_method(None), shards)
    results: Dict[int, dict] = {}
    attempt = 0
    while True:
        todo = [t for t in ordered if t.index not in results]
        if not todo:
            break
        if attempt >= max_attempts:
            raise SweepError(
                f"{len(todo)} task(s) still unfinished after"
                f" {max_attempts} attempts: indices"
                f" {[t.index for t in todo]}"
            )
        wave_crash = crash if attempt == 0 else None
        chunks = [c for c in partition_tasks(todo, shards) if c]
        wave_results, any_dead = pool.run_wave(chunks, crash=wave_crash)
        results.update(wave_results)
        attempt += 1
        if any_dead:
            sweep.retries += 1

    sweep.results = [results[t.index] for t in ordered]
    return sweep
