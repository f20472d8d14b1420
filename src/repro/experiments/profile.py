"""Profiled experiment runs: attribution + digest-identity in one call.

:func:`run_profiled` drives one of the standard experiments (fig6,
table1, chaos) under the :class:`~repro.obs.profile.Profiler` with span
recording on, and assembles the full *profile report*: host wall-time
attribution per subsystem, span-kind sim-time rollups, flamegraph
stacks, per-site end-state summaries, and the run's determinism digest.

The digest covers only pure simulation quantities (update tags, final
replicas / scenario outcomes) so it is comparable across profiled,
observed, and plain runs — ``verify_digest=True`` reruns the experiment
completely unprofiled and asserts byte-identity, which is the CI
``profile-smoke`` job's proof that profiling never perturbs the
simulation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.obs.profile import Profiler, collapsed_stacks, span_rollups
from repro.perf.tasks import _update_tags, digest

#: experiments `run_profiled` accepts
PROFILE_EXPERIMENTS = ("fig6", "table1", "chaos")

#: top-N span kinds listed in the dossier's hotspot table
HOTSPOT_LIMIT = 10

#: the attribution-coverage acceptance bar (CLI --check and CI gate)
COVERAGE_TARGET = 0.95


@dataclass
class ProfiledRun:
    """One profiled experiment: the report plus raw exports."""

    experiment: str
    report: Dict[str, Any]
    #: flamegraph collapsed-stack lines (sorted, deterministic)
    flame: List[str] = field(default_factory=list)
    #: span lists per recorder (chaos has one recorder per scenario;
    #: span ids are only unique within a recorder, so exports keep the
    #: groups separate)
    span_groups: List[list] = field(default_factory=list)
    #: the underlying experiment result object
    result: Optional[object] = None

    @property
    def digest(self) -> str:
        return self.report["digest"]


def _fingerprint(experiment: str, result) -> Dict[str, Any]:
    """The cross-mode determinism surface of an experiment result.

    Restricted to quantities that are invariant across observe/profile
    modes (update tags, replicas, scenario outcomes) — the telemetry
    registry is excluded because observed runs share the hub registry,
    which legitimately carries extra instruments.
    """
    if experiment == "chaos":
        return {
            "scenarios": [
                {
                    "scenario": r.scenario,
                    "ok": r.ok,
                    "converged": r.converged,
                    "updates_issued": r.updates_issued,
                    "updates_completed": r.updates_completed,
                    "events_processed": r.events_processed,
                    "violations": len(r.report.violations),
                    "loss_warnings": len(r.loss_warnings),
                }
                for r in result.results
            ]
        }
    return {
        "update_tags": _update_tags(result.proposal.results),
        "replicas": result.replicas,
    }


def _run(experiment: str, n_updates: int, seed: int, n_items: int,
         small: bool, observe: bool):
    if experiment == "fig6":
        from repro.experiments.fig6 import run_fig6

        return run_fig6(
            n_updates=n_updates, seed=seed, n_items=n_items, observe=observe
        )
    if experiment == "table1":
        from repro.experiments.table1 import run_table1

        return run_table1(
            n_updates=n_updates, seed=seed, n_items=n_items, observe=observe
        )
    from repro.experiments.chaos import run_chaos

    # chaos always observes; `observe` only gates fig6/table1
    return run_chaos(small=small, n_updates=n_updates, seed=seed)


def _span_groups(experiment: str, result) -> List[list]:
    if experiment == "chaos":
        return [
            list(r.obs.recorder)
            for r in result.results
            if r.obs is not None
        ]
    return [list(result.obs.recorder)] if result.obs is not None else []


def _merged_rollups(groups: List[list]) -> Dict[str, Dict[str, Any]]:
    merged: Dict[str, Dict[str, Any]] = {}
    for spans in groups:
        for kind, row in span_rollups(spans).items():
            acc = merged.get(kind)
            if acc is None:
                merged[kind] = dict(row)
            else:
                acc["count"] += row["count"]
                acc["cum_sim"] += row["cum_sim"]
                acc["self_sim"] += row["self_sim"]
    return dict(sorted(merged.items()))


def _merged_flame(groups: List[list]) -> List[str]:
    weights: Dict[str, int] = {}
    for spans in groups:
        for line in collapsed_stacks(spans):
            stack, value = line.rsplit(" ", 1)
            weights[stack] = weights.get(stack, 0) + int(value)
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def _site_summaries(experiment: str, result) -> Dict[str, Any]:
    """Per-site AV / assurance / backlog summary for the dossier."""
    if experiment == "chaos":
        from repro.obs.snapshot import merge_telemetry

        merged = merge_telemetry(r.telemetry for r in result.results)
        return merged.get("sites", {})
    # copy per-site dicts: the dossier annotates them, the result's
    # telemetry must stay untouched
    sites = {
        name: dict(row)
        for name, row in result.telemetry.get("sites", {}).items()
    }
    if experiment == "table1":
        final = result.proposal.final()
        for name in result.site_names:
            sites.setdefault(name, {})["correspondences"] = (
                final.per_site[name]
            )
    return sites


def run_profiled(
    experiment: str,
    n_updates: Optional[int] = None,
    seed: int = 0,
    n_items: int = 10,
    small: bool = False,
    verify_digest: bool = False,
    best_of: int = 1,
) -> ProfiledRun:
    """Run ``experiment`` under the profiler and build its report.

    ``small`` shrinks the workload to CI-smoke size (and selects the
    chaos small-scenario suite). ``verify_digest=True`` reruns the
    experiment unprofiled and unobserved and records whether the digests
    match (``report["digest_match"]``).

    ``best_of`` reruns the profiled experiment up to that many times and
    keeps the attempt with the highest attribution coverage (stopping
    early once :data:`COVERAGE_TARGET` is reached). Everything in the
    report except the wall-clock columns is deterministic across
    attempts, but coverage is a *wall-time* ratio: a multi-millisecond
    OS preemption landing between two kernel events inflates the
    unattributed run-loop residual, so a single attempt on a noisy host
    can dip below the gate for reasons that have nothing to do with the
    code. Same noise, same remedy as best-of-N timing.
    """
    if experiment not in PROFILE_EXPERIMENTS:
        raise ValueError(
            f"unknown experiment {experiment!r};"
            f" choose from {PROFILE_EXPERIMENTS}"
        )
    if n_updates is None:
        if experiment == "chaos":
            n_updates = 120 if small else 300
        else:
            n_updates = 200 if small else 1000

    profiler = result = None
    for _ in range(max(1, best_of)):
        attempt = Profiler()
        with attempt:
            attempt_result = _run(experiment, n_updates, seed, n_items,
                                  small, observe=True)
        if profiler is None or attempt.coverage > profiler.coverage:
            profiler, result = attempt, attempt_result
        if profiler.coverage >= COVERAGE_TARGET:
            break

    groups = _span_groups(experiment, result)
    rollups = _merged_rollups(groups)
    report = profiler.report()
    report["span_rollups"] = rollups
    # re-derive the per-subsystem sim-time columns from the merged rollups
    sim_by_sub: Dict[str, float] = {}
    spans_by_sub: Dict[str, int] = {}
    for kind, row in rollups.items():
        sim_by_sub[row["subsystem"]] = (
            sim_by_sub.get(row["subsystem"], 0.0) + row["self_sim"]
        )
        spans_by_sub[row["subsystem"]] = (
            spans_by_sub.get(row["subsystem"], 0) + row["count"]
        )
    for name, row in report["subsystems"].items():
        row["sim_time"] = sim_by_sub.get(name, 0.0)
        row["spans"] = spans_by_sub.get(name, 0)
    report["hotspots"] = sorted(
        ({"name": kind, **row} for kind, row in rollups.items()),
        key=lambda r: (-r["self_sim"], r["name"]),
    )[:HOTSPOT_LIMIT]

    fingerprint = _fingerprint(experiment, result)
    report.update({
        "experiment": experiment,
        "n_updates": n_updates,
        "seed": seed,
        "small": small,
        "digest": digest(fingerprint),
        "sites": _site_summaries(experiment, result),
        "events_processed": (
            sum(r.events_processed for r in result.results)
            if experiment == "chaos"
            else result.events_processed
        ),
    })

    if verify_digest:
        plain = _run(experiment, n_updates, seed, n_items, small,
                     observe=False)
        report["digest_match"] = (
            digest(_fingerprint(experiment, plain)) == report["digest"]
        )

    return ProfiledRun(
        experiment=experiment,
        report=report,
        flame=_merged_flame(groups),
        span_groups=groups,
        result=result,
    )
