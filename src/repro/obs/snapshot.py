"""Fleet telemetry: the one snapshot type workers ship back to a sweep.

Before this module the sharded sweep runner discarded every worker-side
metric — even ``events_processed`` was re-derived from ad-hoc result
fields. A :class:`TelemetrySnapshot` is the single, picklable,
canonically-serialisable carrier for a task's runtime telemetry:

* the kernel event count,
* a full-state :class:`~repro.obs.registry.MetricRegistry` snapshot
  (counters, gauges, raw-bucket histograms — mergeable without loss),
* per-site protocol state at end of run (AV level, sync backlog,
  lock-queue depth, replica stock total).

Everything in a snapshot is a pure simulation quantity (no wall-clock,
no pids), so snapshots ride inside the sweep's determinism fingerprint
and are gated byte-for-byte like the results themselves.

:func:`merge_telemetry` folds many snapshots into a sweep-level report.
The fold is performed in task-index order by the caller; with that
order fixed the merged output is **shard-count invariant** — integer
aggregates are order-free and float sums see the exact same operand
sequence regardless of which worker produced which snapshot (asserted
in ``tests/test_perf_determinism.py``).
"""

from __future__ import annotations

from collections import Counter
from typing import Any, Dict, Iterable, List, Optional

from repro.obs.registry import MetricRegistry, StreamingHistogram

#: snapshot schema version (bump when the shape changes)
TELEMETRY_VERSION = 1


class TelemetrySnapshot:
    """One run's telemetry, as a plain JSON-ready dict wrapper."""

    __slots__ = ("data",)

    def __init__(self, data: Dict[str, Any]) -> None:
        self.data = data

    @classmethod
    def capture(
        cls,
        system,
        registry: Optional[MetricRegistry] = None,
        extra_events: int = 0,
    ) -> "TelemetrySnapshot":
        """Snapshot a finished :class:`DistributedSystem` run.

        ``registry`` defaults to the system collector's registry (the
        private one on unobserved runs, the shared hub registry on
        observed runs — both hold only simulation-derived values).
        ``extra_events`` folds in kernel events from companion engines
        the experiment also ran (e.g. the conventional baseline fig6
        replays against) so ``events_processed`` honours its contract —
        *total kernel events across all task simulations* — rather than
        undercounting to the proposal engine alone.
        """
        if registry is None:
            registry = system.collector.registry
        sites: Dict[str, Dict[str, float]] = {}
        updates = Counter(system.collector.results.column("site"))
        for name in sorted(system.sites):
            site = system.sites[name]
            accel = site.accelerator
            sites[name] = {
                "av_level": accel.av_table.total(),
                "sync_backlog": float(len(accel.unsynced_items())),
                "lock_waiting": float(accel.locks.total_waiting()),
                "stock_total": sum(site.store.as_dict().values()),
                "updates": float(updates[name]),
            }
        return cls({
            "version": TELEMETRY_VERSION,
            "events_processed": system.env.events_processed + extra_events,
            "tasks": 1,
            "metrics": registry.snapshot(),
            "sites": sites,
        })

    def to_dict(self) -> Dict[str, Any]:
        return self.data

    def __repr__(self) -> str:
        return (
            f"<TelemetrySnapshot events={self.data.get('events_processed')}"
            f" metrics={len(self.data.get('metrics', {}))}>"
        )


def _merge_metric(
    name: str, acc: Dict[str, Any], new: Dict[str, Any]
) -> Dict[str, Any]:
    kind = new["kind"]
    if kind != acc["kind"]:
        raise ValueError(
            f"metric {name!r} changes kind across snapshots:"
            f" {acc['kind']} vs {kind}"
        )
    if kind == "counter":
        return {"kind": "counter", "value": acc["value"] + new["value"]}
    if kind == "gauge":
        # Gauges are last-value-wins per run; across runs the useful
        # sweep aggregate is the spread, not a meaningless "last".
        runs = acc.get("runs", 1)
        return {
            "kind": "gauge",
            "sum": acc.get("sum", acc.get("value", 0.0)) + new["value"],
            "min": min(acc.get("min", acc.get("value", 0.0)), new["value"]),
            "max": max(acc.get("max", acc.get("value", 0.0)), new["value"]),
            "runs": runs + 1,
        }
    # histogram: lossless raw-bucket merge
    merged = StreamingHistogram.from_dict(name, acc)
    merged.merge(StreamingHistogram.from_dict(name, new))
    return merged.to_dict()


def merge_telemetry(snapshots: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Fold task snapshots (in the caller's order) into a sweep report.

    Counters and histograms merge losslessly; gauges aggregate to
    ``{sum, min, max, runs}``; per-site fields aggregate the same way.
    Returns an empty-shaped report when no snapshot carries telemetry.
    """
    merged: Dict[str, Any] = {
        "version": TELEMETRY_VERSION,
        "events_processed": 0,
        "tasks": 0,
        "metrics": {},
        "sites": {},
    }
    metrics: Dict[str, Dict[str, Any]] = {}
    sites: Dict[str, Dict[str, Dict[str, float]]] = {}
    for snap in snapshots:
        if not snap:
            continue
        merged["events_processed"] += snap.get("events_processed", 0)
        merged["tasks"] += snap.get("tasks", 1)
        for name, state in snap.get("metrics", {}).items():
            prev = metrics.get(name)
            if prev is None:
                # Copy so merging never mutates the input snapshots;
                # normalise gauges straight to aggregate form.
                if state["kind"] == "gauge":
                    metrics[name] = {
                        "kind": "gauge",
                        "sum": state["value"],
                        "min": state["value"],
                        "max": state["value"],
                        "runs": 1,
                    }
                else:
                    metrics[name] = dict(state)
            else:
                metrics[name] = _merge_metric(name, prev, state)
        for site, fields in snap.get("sites", {}).items():
            per_site = sites.setdefault(site, {})
            for field, value in fields.items():
                agg = per_site.get(field)
                if agg is None:
                    per_site[field] = {
                        "sum": value, "min": value, "max": value, "runs": 1,
                    }
                else:
                    agg["sum"] += value
                    agg["min"] = min(agg["min"], value)
                    agg["max"] = max(agg["max"], value)
                    agg["runs"] += 1
    merged["metrics"] = {name: metrics[name] for name in sorted(metrics)}
    merged["sites"] = {
        site: dict(sorted(fields.items()))
        for site, fields in sorted(sites.items())
    }
    return merged


def telemetry_rows(merged: Dict[str, Any]) -> List[List[Any]]:
    """``[name, kind, rendered]`` rows for the sweep telemetry table."""
    rows: List[List[Any]] = []
    for name, state in merged.get("metrics", {}).items():
        kind = state["kind"]
        if kind == "counter":
            rows.append([name, "counter", f"{state['value']:g}"])
        elif kind == "gauge":
            rows.append([
                name, "gauge",
                (f"sum={state['sum']:g} min={state['min']:g}"
                 f" max={state['max']:g} runs={state['runs']}"),
            ])
        else:
            hist = StreamingHistogram.from_dict(name, state)
            s = hist.summary()
            rows.append([
                name, "histogram",
                (f"n={s['count']:g} mean={s['mean']:.3f}"
                 f" p50={s['p50']:.3f} p99={s['p99']:.3f}"
                 f" max={s['max']:.3f}"),
            ])
    return rows
