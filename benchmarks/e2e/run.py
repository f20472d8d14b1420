#!/usr/bin/env python3
"""The repo benchmark: one command, two modes.

**One run** (the driver's protocol; this is what ``BENCHMARK.json`` names)::

    python3 benchmarks/e2e/run.py --workload W --seed N --seconds S --trace 0|1

runs one workload once *in this process* (one process, one thread,
default GC), prints every metric by name with its unit, verifies the
outputs, and ends with one JSON line ``{"correct", "attempted",
"failed", "metrics"}``. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reruns the workload with the benchmark's tracer installed
and reports the per-layer metrics. Exit status is non-zero when
verification fails.

**A set** (what people run)::

    python3 benchmarks/e2e/run.py [--seed N] [--repeats R] [--workload W]
                                  [--traced] [--probes] [--quick] [--out FILE]

runs every workload ``R`` times, each run a fresh subprocess of the
one-run mode, and reports per workload the median over the repeats with
quartiles, range and sample count; ``--traced`` adds one traced run per
workload, ``--probes`` the layer probes.

Sizes are fixed: ``--seconds``/``--scale`` select them explicitly and
nothing is ever scaled to the host's speed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: a traced run drives this share of the untraced size (spans are kept
#: in memory: ~25 per update, 56 bytes each)
TRACE_SCALE = 0.5
#: share of the traced window that must lie inside some layer's span
MIN_COVERAGE = 0.90
#: prefix of the one-run mode's extended record line (read by set mode)
RECORD_PREFIX = "#record "


def _import_system() -> None:
    """Make ``repro`` (this checkout's ``src/``) and our siblings importable."""
    src = ROOT / "src"
    if not (src / "repro").is_dir():
        raise SystemExit(f"run.py: no system under test at {src}/repro")
    for path in (str(src), str(HERE)):
        if path not in sys.path:
            sys.path.insert(0, path)


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB.

    Linux: ``VmHWM`` of ``/proc/self/status``. ``ru_maxrss`` is *not*
    this process's own peak there — it survives fork/exec, so a run
    spawned by a 300 MB parent reads 300 MB whatever it does. Elsewhere
    ``ru_maxrss`` is all there is (bytes on macOS).
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return rss / (1024.0 * 1024.0 if sys.platform == "darwin" else 1024.0)


# -------------------------------------------------------------------- #
# one run
# -------------------------------------------------------------------- #

#: ``run_fig6(1000)`` runs the paper-shape check pools. One run's
#: reduction ranges over 0.55-0.89 from seed to seed (sd 0.06), so a
#: band of +-0.10 on a single run fails one seed in seven; the mean of
#: 16 has sd 0.016.
SHAPE_EPISODES = 16


def paper_shape(seed: int) -> tuple:
    """The paper's shape on the mean of ``SHAPE_EPISODES`` sub-seeded
    ``run_fig6(1000)`` runs, and the baseline engine's throughput.
    Returns (failures, baseline updates/s). Untimed but for the baseline
    replay, which moves no benchmark metric."""
    from statistics import fmean

    from repro.baselines.centralized import CentralizedSystem
    from repro.cluster import paper_config
    from repro.core.assurance import jain_index
    from repro.experiments.fig6 import make_paper_trace, run_fig6
    from repro.workload.driver import run_closed
    from workloads import SUBSEED_STRIDE

    reductions, local_ratios, fairnesses = [], [], []
    for episode in range(SHAPE_EPISODES):
        fig6 = run_fig6(n_updates=1000, seed=seed * SUBSEED_STRIDE + episode)
        per_site = fig6.proposal.final().per_site
        reductions.append(fig6.reduction)
        local_ratios.append(fig6.local_ratio)
        fairnesses.append(jain_index([per_site[n] for n in sorted(per_site)[1:]]))
    reduction, local_ratio, fairness = map(
        fmean, (reductions, local_ratios, fairnesses)
    )
    failures = []
    if not 0.65 <= reduction <= 0.85:
        failures.append(f"fig6 reduction {reduction:.3f} outside [0.65, 0.85]")
    if not local_ratio > 0.5:
        failures.append(f"fig6 local completion {local_ratio:.3f} <= 0.5")
    if not fairness > 0.95:
        failures.append(f"fig6 retailer fairness {fairness:.3f} <= 0.95")

    trace = make_paper_trace(5000, seed, n_items=10)
    baseline = CentralizedSystem(paper_config(n_items=10, seed=seed))
    start = time.perf_counter()
    results = run_closed(baseline, trace)
    return failures, len(results) / (time.perf_counter() - start)


def per_layer(base, traced, tracer, baseline_rate: float, probes: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric of one traced run (``base`` is the
    untraced run of the same size it is compared against)."""
    from tracer import LAYERS

    t = traced.tally
    updates = t.results
    c = t.counts
    self_ns = tracer.layer_self_ns()
    calls = tracer.layer_calls()
    metrics: Dict[str, float] = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_us_per_update"] = self_ns[layer] / 1e3 / updates
        metrics[f"{layer}.calls_per_update"] = calls[layer] / updates

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics.update({
        "sim.events_per_update": c["events"] / updates,
        "sim.spawns_per_update": tracer.calls_for("Environment.process") / updates,
        "net.msgs_per_update": c["msgs"] / updates,
        "net.drop_ratio": ratio(c["drops"], c["msgs"]),
        "net.retransmits_per_update": c["retransmits"] / updates,
        "db.wal_entries_per_update": c["wal_entries"] / updates,
        "db.lock_waits_per_update": tracer.lock_waits / updates,
        "core.av_requests_per_update": c["av_requests"] / updates,
        "core.av_request_fill_ratio": ratio(c["grants_served"], c["av_asks_handled"]),
        "core.pool_requests_per_update": c["pool_requests"] / updates,
        "core.imm_retries_per_update": c["imm_retries"] / updates,
        "core.imm_abort_ratio": ratio(c["imm_aborted"], c["imm_updates"]),
        "core.leases_per_update": c["leases_opened"] / updates,
        "core.lease_revert_ratio": ratio(c["leases_reverted"], c["leases_opened"]),
        "core.sheds_per_update": c["sheds"] / updates,
        "analysis.checks_per_update": c["sanitizer_events"] / updates,
        "obs.spans_per_update": c["obs_spans"] / updates,
        "metrics.records_per_update": c["records"] / updates,
        "cluster.build_s": sum(base.tally.build_s),
        "workload.trace_capture_s": sum(base.tally.capture_s),
        "baselines.updates_per_s": baseline_rate,
        "trace.coverage": sum(self_ns.values()) / (traced.wall_s * 1e9),
        "trace.overhead_ratio": traced.wall_s / base.wall_s,
    })
    metrics.update(probes)
    return metrics


def one_run(args, spec: dict) -> int:
    _import_system()
    from workloads import RUN_SECONDS, WORKLOADS, end_to_end, execute

    if args.workload not in WORKLOADS:
        raise SystemExit(f"run.py: unknown workload {args.workload!r}")
    if args.scale is not None:
        scale = args.scale
    elif args.seconds is not None:
        scale = args.seconds / RUN_SECONDS
    else:
        scale = 1.0

    record: dict = {
        "workload": args.workload, "seed": args.seed, "scale": scale,
        "traced": bool(args.trace),
    }
    if not args.trace:
        declared = spec["end_to_end"]
        run = execute(args.workload, args.seed, scale)
        values = end_to_end(run, peak_rss_mb())
    else:
        from probes import run_probes
        from tracer import Tracer

        declared = spec["per_layer"]
        scale *= TRACE_SCALE
        base = execute(args.workload, args.seed, scale)
        tracer = Tracer()
        run = execute(args.workload, args.seed, scale, tracer)
        run.tally.failures += base.tally.failures
        if run.tally.digest != base.tally.digest:
            run.tally.failures.append(
                f"traced digest {run.tally.digest[:16]} != untraced"
                f" {base.tally.digest[:16]}"
            )
        shape_failures, baseline_rate = paper_shape(args.seed)
        run.tally.failures += shape_failures
        values = per_layer(base, run, tracer, baseline_rate, run_probes())
        if values["trace.coverage"] < MIN_COVERAGE:
            run.tally.failures.append(
                f"trace coverage {values['trace.coverage']:.3f} < {MIN_COVERAGE}"
            )
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        record["spans"] = tracer.n_spans
        record["missing_boundaries"] = tracer.missing

    names = [m["name"] for m in declared]
    if set(values) != set(names):
        raise SystemExit(
            "run.py: computed metrics differ from BENCHMARK.json:"
            f" {sorted(set(values) ^ set(names))}"
        )
    tally = run.tally
    metrics = {
        m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared
    }
    print(f"{args.workload} seed={args.seed} scale={scale:g}"
          f" {'traced' if args.trace else 'untraced'}:"
          f" {tally.results} updates, {len(tally.drive_s)} episode(s),"
          f" {tally.counts['events']} kernel events,"
          f" driving {sum(tally.drive_s):.2f}s")
    for name in names:
        print(f"  {name:<40} {values[name]:>16.6g} {metrics[name]['unit']}")
    print(f"  result_digest {tally.digest}")
    for failure in tally.failures:
        print(f"  VERIFICATION FAILED: {failure}")

    record.update({
        "result_digest": tally.digest,
        "failures": tally.failures,
        "updates": tally.results,
        "trace_events": tally.trace_events,
        "skipped": tally.skipped,
        "kernel_events": tally.counts["events"],
        # per episode / scenario, microsecond resolution
        "drive_s": [round(x, 6) for x in tally.drive_s],
        "capture_s": [round(x, 6) for x in tally.capture_s],
        "build_s": [round(x, 6) for x in tally.build_s],
        "drive_results": tally.drive_results,
    })
    print(RECORD_PREFIX + json.dumps(record))
    print(json.dumps({
        "correct": run.ok,
        "attempted": tally.trace_events,
        "failed": len(tally.failures),
        "metrics": metrics,
    }))
    return 0 if run.ok else 1


# -------------------------------------------------------------------- #
# a set of runs
# -------------------------------------------------------------------- #

CALIBRATION_LOOPS = 2_000_000


def calibrate(samples: int = 5) -> float:
    """Host speed score in kops/s: best of ``samples`` timings of the
    same fixed pure-python spin loop ``benchmarks/harness.py`` uses, so
    result files from different hosts can be told apart."""
    best = 0.0
    for _ in range(samples):
        acc = 0
        start = time.perf_counter()
        for i in range(CALIBRATION_LOOPS):
            acc += i & 7
        best = max(best, CALIBRATION_LOOPS / (time.perf_counter() - start) / 1e3)
    return best


def git_revision() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def child_run(workload: str, seed: int, scale: float, traced: bool) -> dict:
    """One run in a fresh subprocess; returns its result and record."""
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(seed), "--scale", repr(scale), "--trace", str(int(traced)),
    ]
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    lines = out.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        record = json.loads(lines[-2][len(RECORD_PREFIX):])
    except (IndexError, ValueError):
        raise SystemExit(
            f"run.py: {workload} run produced no result"
            f" (exit {out.returncode}):\n{out.stdout}\n{out.stderr}"
        )
    return {"exit": out.returncode, "result": result, "record": record}


def run_set(args, spec: dict) -> int:
    _import_system()
    from stats import summarize
    from workloads import SIMULATED, WORKLOADS

    scale = args.scale if args.scale is not None else (0.02 if args.quick else 1.0)
    repeats = 1 if args.quick and args.repeats is None else (args.repeats or 5)
    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        if name not in WORKLOADS:
            raise SystemExit(f"run.py: unknown workload {name!r}")

    load = os.getloadavg()[0]
    if load > 1.0:
        print(f"WARNING: 1-min load average {load:.2f} > 1.0 —"
              " host-time metrics will be noisy", file=sys.stderr)
    report: dict = {
        "schema": 1,
        "provenance": {
            "git_revision": git_revision(),
            "seed": args.seed,
            "repeats": repeats,
            "scale": scale,
            "sizes": {
                n: dict(zip(("episodes", "updates_per_episode"), WORKLOADS[n].size(scale)))
                for n in names
            },
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "loadavg_1m": load,
            "calibration_kops": calibrate(),
        },
        "workloads": {n: {"runs": []} for n in names},
    }
    ok = True

    if args.probes:
        from probes import run_probes

        report["probes"] = run_probes()
        print("layer probes (ns per call):")
        for name, value in report["probes"].items():
            print(f"  {name:<32} {value:>12.1f} ns")

    # Workloads are interleaved inside each repeat so that a slow drift
    # of the shared host lands on all of them alike.
    for repeat in range(repeats):
        for name in names:
            child = child_run(name, args.seed, scale, traced=False)
            report["workloads"][name]["runs"].append(child)
            print(f"[{repeat + 1}/{repeats}] {name}:"
                  f" {child['result']['metrics']['updates_per_s']['value']:.0f} updates/s"
                  f"{'' if child['result']['correct'] else '  VERIFICATION FAILED'}")

    end_to_end = {m["name"]: m for m in spec["end_to_end"]}
    for name in names:
        entry = report["workloads"][name]
        runs = entry["runs"]
        entry["end_to_end"] = table = {}
        for metric, decl in end_to_end.items():
            values = [r["result"]["metrics"][metric]["value"] for r in runs]
            row = {**decl, **summarize(values), "values": values}
            host_time = metric not in SIMULATED
            if host_time and row["spread"] > decl["bound"]:
                row["status"] = "unresolved"
            elif not host_time and len(set(values)) != 1:
                row["status"] = "not-reproducible"
                ok = False
            else:
                row["status"] = "ok"
            table[metric] = row
        digests = {r["record"]["result_digest"] for r in runs}
        entry["result_digest"] = sorted(digests)[0]
        entry["digests_identical"] = len(digests) == 1
        entry["failures"] = [f for r in runs for f in r["record"]["failures"]]
        if not entry["digests_identical"] or entry["failures"]:
            ok = False

        print(f"\n{name}  (n={len(runs)} runs, digest {entry['result_digest'][:16]}"
              f"{'' if entry['digests_identical'] else ' DIGESTS DIFFER'})")
        print(f"  {'metric':<26}{'median':>12} {'unit':<6}{'q1':>11}{'q3':>11}"
              f"{'min':>11}{'max':>11}  spread  status")
        for metric, row in table.items():
            print(f"  {metric:<26}{row['median']:>12.5g} {row['unit']:<6}"
                  f"{row['q1']:>11.5g}{row['q3']:>11.5g}{row['min']:>11.5g}"
                  f"{row['max']:>11.5g}  {row['spread']:6.2%}  {row['status']}")
        for failure in entry["failures"]:
            print(f"  VERIFICATION FAILED: {failure}")

    if args.traced:
        for name in names:
            child = child_run(name, args.seed, scale, traced=True)
            entry = report["workloads"][name]
            entry["traced_record"] = child["record"]
            entry["per_layer"] = values = child["result"]["metrics"]
            if not child["result"]["correct"]:
                ok = False
            print(f"\n{name} traced ({child['record']['spans']} spans,"
                  f" coverage {values['trace.coverage']['value']:.3f},"
                  f" overhead x{values['trace.overhead_ratio']['value']:.2f})")
            for metric, cell in values.items():
                print(f"  {metric:<40} {cell['value']:>14.6g} {cell['unit']}")
            for failure in child["record"]["failures"]:
                print(f"  VERIFICATION FAILED: {failure}")

    report["ok"] = ok
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=1)
            fh.write("\n")
        print(f"\nwrote {args.out}")
    print("\nPASS" if ok else "\nFAIL")
    return 0 if ok else 1


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="one-run mode: nominal run length; sets the scale")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one-run mode: 0 = end-to-end, 1 = traced per-layer")
    parser.add_argument("--scale", type=float,
                        help="share of the full size to run (default 1)")
    parser.add_argument("--spans-out", help="one-run mode: write the span list here")
    parser.add_argument("--repeats", type=int, help="set mode: runs per workload (5)")
    parser.add_argument("--traced", action="store_true",
                        help="set mode: add one traced run per workload")
    parser.add_argument("--probes", action="store_true",
                        help="set mode: run the layer probes")
    parser.add_argument("--quick", action="store_true",
                        help="set mode: --scale 0.02, one repeat")
    parser.add_argument("--out", help="set mode: write the full JSON report here")
    args = parser.parse_args(argv)

    spec = load_spec()
    if args.trace is not None:
        if not args.workload:
            parser.error("--trace needs --workload")
        return one_run(args, spec)
    return run_set(args, spec)


if __name__ == "__main__":
    sys.exit(main())
