"""Sweep tasks: one fully self-contained experiment run each.

A :class:`SweepTask` carries everything needed to reproduce one
simulation (experiment name, seed, workload shape); :func:`run_task`
executes it and returns a plain-dict *fingerprint* of the run — per
update outcome tags, final replica values, experiment counters, and the
run's telemetry snapshot (kernel event count, metric registry, per-site
end state — see :mod:`repro.obs.snapshot`). The fingerprint is what the
determinism suite compares
byte-for-byte between sequential and sharded execution, so it must be:

* **picklable** (it crosses the process boundary),
* **canonically serialisable** (see :func:`canonical_json`),
* **independent of host state** (no wall-clock times, no pids, no
  memory addresses — simulation quantities only).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional


@dataclass(frozen=True)
class SweepTask:
    """One cell of a sweep grid.

    Attributes
    ----------
    index:
        Position in the grid; results are merged in index order, which
        is what makes the merged sweep output shard-count independent.
    experiment:
        ``"fig6"``, ``"table1"``, ``"chaos"``, ``"scale"`` or ``"fuzz"``.
    seed:
        The task's root seed (already derived from the sweep's root
        seed — see :func:`repro.perf.grids.derive_seed`).
    n_updates, n_items:
        Workload shape, passed straight to the experiment.
    scenario:
        Chaos only: the named fault schedule to run.
    check:
        Additionally replay the workload under the protocol sanitizer
        and include its violation/warning counts in the fingerprint.
    topology:
        Scale only: the :func:`repro.cluster.topology.Topology.parse`
        spec to lay the cluster out as (e.g. ``"regional:7x6:s2"``).
    n_retailers:
        fig6/table1 only: retailer count for the flat paper layout
        (the ``fig6-wide`` grid stretches the paper figure sideways).
    """

    index: int
    experiment: str
    seed: int
    n_updates: int
    n_items: int = 10
    scenario: str = ""
    check: bool = False
    topology: str = ""
    n_retailers: int = 2


def canonical_json(obj: Any) -> str:
    """Serialise deterministically: sorted keys, no whitespace drift.

    Two runs that produce equal Python values produce equal bytes —
    ``repr``-exact floats included — so byte comparison of the output is
    a valid determinism check.
    """
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def digest(obj: Any) -> str:
    """SHA-256 hex digest of an object's canonical JSON form."""
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _update_tags(results) -> list:
    """Per-update outcome tags, in completion order.

    Encodes kind, outcome, locality, transfer count and (repr-exact)
    finish time, so any protocol or timing divergence between two runs
    flips the fingerprint.
    """
    return [
        f"{kind.value}:{outcome.value}:{int(local_only)}"
        f":{av_requests}:{finished_at!r}"
        for kind, outcome, local_only, av_requests, finished_at
        in results.columns(
            "kind", "outcome", "local_only", "av_requests", "finished_at"
        )
    ]


def _sanitize(task: "SweepTask") -> Dict[str, int]:
    """Replay the task's workload under the runtime sanitizer."""
    from repro.analysis.check import run_check

    run = run_check(
        n_updates=task.n_updates,
        seed=task.seed,
        n_items=task.n_items,
        n_retailers=task.n_retailers,
    )
    return {
        "violations": len(run.report.violations),
        "warnings": len(run.report.warnings),
    }


def _run_paired_task(task: SweepTask) -> Dict[str, Any]:
    """fig6 / table1 / scale: one paired replay, read per experiment."""
    from repro.experiments import run_fig6, run_table1
    from repro.experiments.scale import run_scale

    if task.experiment == "scale":
        # The scale runner sanitizes in-process (the replay harness in
        # analysis.check only knows the paper experiments).
        result = run_scale(
            spec=task.topology, n_updates=task.n_updates, seed=task.seed,
            n_items=task.n_items, sanitize=task.check,
        )
    else:
        run = run_table1 if task.experiment == "table1" else run_fig6
        result = run(
            n_updates=task.n_updates, seed=task.seed, n_items=task.n_items,
            n_retailers=task.n_retailers,
        )
    final = result.proposal.final()
    payload: Dict[str, Any] = {
        "update_tags": _update_tags(result.proposal.results),
        "replicas": result.replicas,
        "telemetry": result.telemetry,
    }
    if task.experiment == "table1":
        assurance = result.assurance()
        payload["per_site"] = {s: final.per_site[s] for s in result.site_names}
        payload["counters"] = {
            "proposal_correspondences": final.total_correspondences,
            "fairness": assurance.retailer_fairness,
            "local_ratio": assurance.local_completion_ratio,
        }
    else:
        payload["reduction"] = result.reduction
        payload["local_ratio"] = result.local_ratio
        payload["counters"] = {
            "proposal_correspondences": final.total_correspondences,
            "conventional_correspondences": (
                result.conventional.final().total_correspondences
            ),
        }
    if task.experiment == "scale":
        payload["spec"] = task.topology
        payload["n_sites"] = result.config.n_sites
        if task.check:
            payload["sanitizer"] = {
                "violations": result.violations,
                "warnings": result.warnings,
            }
    return payload


def _run_chaos_task(task: SweepTask) -> Dict[str, Any]:
    from repro.experiments.chaos import (
        FULL_SCENARIOS,
        run_chaos_scenario,
    )

    by_name = {s.name: s for s in FULL_SCENARIOS}
    try:
        scenario = by_name[task.scenario]
    except KeyError:
        raise ValueError(
            f"unknown chaos scenario {task.scenario!r};"
            f" choose from {sorted(by_name)}"
        ) from None
    result = run_chaos_scenario(
        scenario, n_updates=task.n_updates, seed=task.seed,
        n_items=task.n_items,
    )
    return {
        "scenario": task.scenario,
        "ok": result.ok,
        "converged": result.converged,
        "updates_issued": result.updates_issued,
        "updates_completed": result.updates_completed,
        "counters": {
            "violations": len(result.report.violations),
            "loss_warnings": len(result.loss_warnings),
        },
        "telemetry": result.telemetry,
    }


def _run_fuzz_task(task: SweepTask) -> Dict[str, Any]:
    # The case is a pure function of (campaign root seed, case index):
    # workers regenerate it locally, so only coordinates cross the
    # process boundary and the merged sweep stays shard-invariant.
    from repro.testkit.runner import run_case
    from repro.testkit.schedule import make_case

    case = make_case(
        task.seed, task.index, n_ops=task.n_updates, inject=task.scenario
    )
    return run_case(case).payload()


_RUNNERS = {
    "fig6": _run_paired_task,
    "table1": _run_paired_task,
    "scale": _run_paired_task,
    "chaos": _run_chaos_task,
    "fuzz": _run_fuzz_task,
}


def run_task(task: SweepTask) -> Dict[str, Any]:
    """Execute one task and return its canonical result fingerprint.

    Runs entirely inside the calling process; safe to call from any
    worker because the simulation it builds is seeded only by the task.
    """
    try:
        runner = _RUNNERS[task.experiment]
    except KeyError:
        raise ValueError(
            f"unknown experiment {task.experiment!r};"
            f" choose from {sorted(_RUNNERS)}"
        ) from None
    payload = runner(task)
    payload["task"] = asdict(task)
    if task.check and task.experiment in ("fig6", "table1"):
        payload["sanitizer"] = _sanitize(task)
    return payload
