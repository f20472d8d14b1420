"""Command-line entry point: ``python -m repro <experiment>``.

Regenerates any of the paper's artifacts (and our ablations) from the
shell. Every experiment prints the same aligned tables its benchmark
target does.
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from repro._version import __version__


def _write_trace(obs, path: str) -> None:
    from repro.obs.export import write_chrome_trace

    document = write_chrome_trace(path, obs.recorder)
    print(f"wrote {len(document['traceEvents'])} trace events to {path}")


def _cmd_paired(args: argparse.Namespace) -> int:
    """``fig6`` and ``table1``: one paired replay, rendered two ways."""
    from repro.experiments import run_fig6, run_table1

    run = {"fig6": run_fig6, "table1": run_table1}[args.command]
    result = run(
        n_updates=args.updates, seed=args.seed, n_items=args.items,
        observe=bool(args.trace_out),
    )
    print(result.render())
    if args.trace_out:
        _write_trace(result.obs, args.trace_out)
    return 0


def _cmd_observe(args: argparse.Namespace) -> int:
    from repro.experiments import run_observed

    run = run_observed(
        n_updates=args.updates,
        seed=args.seed,
        n_items=args.items,
        sample_interval=args.sample_interval,
    )
    print(run.render())
    if args.trace_out:
        _write_trace(run.obs, args.trace_out)
    if args.jsonl_out:
        n = run.write_jsonl(args.jsonl_out)
        print(f"wrote {n} JSONL records to {args.jsonl_out}")
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.obs.report import load_report, render_html, render_text

    payload = load_report(args.path)
    print(render_text(payload))
    if args.html:
        document = render_html(payload)
        with open(args.html, "w", encoding="utf-8") as fh:
            fh.write(document)
        print(f"\nwrote HTML dossier to {args.html}")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    if args.static:
        return _static_check()
    from repro.analysis import run_check

    updates = args.updates
    if args.small:
        updates = min(updates, 150)
    run = run_check(
        n_updates=updates,
        seed=args.seed,
        n_items=args.items,
    )
    print(run.render())
    return 0 if run.ok else 1


def _static_check() -> int:
    """The whole static suite in one parse: lint rules + protoflow.

    Lint covers ``src`` and ``tests``; the protocol-flow checks cover
    ``src`` only (fixtures under ``tests/`` plant deliberate protocol
    defects).
    """
    from repro.analysis.lint import default_rules
    from repro.analysis.protoflow import run_checks
    from repro.analysis.protoflow.ir import index_project
    from repro.net.protocol import PROTOCOL

    lint_findings, ir = index_project(
        ["src", "tests"], rules=default_rules(), flow_paths=["src"]
    )
    flow_findings = run_checks(ir, PROTOCOL)
    findings = sorted(
        [*lint_findings, *flow_findings],
        key=lambda f: (f.path, f.line, f.col, f.rule),
    )
    for finding in findings:
        print(finding.render())
    print(
        f"static check: {len(findings)} finding(s)"
        f" ({len(lint_findings)} lint, {len(flow_findings)} protocol-flow,"
        f" {len(ir.files)} protocol file(s))"
    )
    return 1 if findings else 0


def _cmd_ablations(args: argparse.Namespace) -> int:
    from repro.experiments import (
        ABLATION_HEADERS,
        ablate_escrow,
        ablate_grant_policy,
        ablate_selection_strategy,
        ablate_update_mix,
    )
    from repro.metrics.report import text_table

    runs = {
        "grant policy (A)": ablate_grant_policy,
        "selection strategy (B)": ablate_selection_strategy,
        "static escrow (D)": ablate_escrow,
        "update mix (E)": ablate_update_mix,
    }
    for title, fn in runs.items():
        rows = fn(n_updates=args.updates, seed=args.seed)
        print(text_table(ABLATION_HEADERS, rows, title=f"Ablation — {title}"))
        print()
    return 0


def _cmd_faults(args: argparse.Namespace) -> int:
    from repro.experiments import FAULT_HEADERS, run_fault_experiment
    from repro.metrics.report import text_table

    result = run_fault_experiment(n_updates=args.updates, seed=args.seed)
    print(
        text_table(
            FAULT_HEADERS,
            result.rows(),
            title=(
                f"Availability (fault window t="
                f"[{result.fault_start:g}, {result.fault_end:g}])"
            ),
        )
    )
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    from repro.experiments.chaos import run_chaos

    report = run_chaos(
        small=args.small, n_updates=args.updates, seed=args.seed,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.testkit.fuzzer import _parse_budget, replay_artifact, run_fuzz

    if args.replay:
        reproduced, text = replay_artifact(args.replay)
        print(text)
        return 0 if reproduced else 1

    budget = _parse_budget(args.budget)
    if budget is None and args.cases is None:
        budget = 10.0
    report = run_fuzz(
        root_seed=args.seed,
        budget_s=budget,
        max_cases=args.cases,
        shards=args.shards,
        n_ops=args.ops,
        inject=args.inject,
        artifact_dir=args.artifact_dir,
        do_shrink=not args.no_shrink,
        log=print,
    )
    print(report.render())
    return 0 if report.ok else 1


def _cmd_latency(args: argparse.Namespace) -> int:
    from repro.experiments import LATENCY_HEADERS, run_latency_experiment
    from repro.metrics.report import text_table

    result = run_latency_experiment(n_updates=args.updates, seed=args.seed)
    print(text_table(LATENCY_HEADERS, result.rows(), title="Update latency"))
    print(f"mean speedup vs centralized: {result.speedup():.1f}x")
    return 0


def _cmd_sweep(args: argparse.Namespace) -> int:
    if args.dimension in ("items", "sites", "av-fraction"):
        from repro.experiments import (
            SWEEP_HEADERS,
            sweep_av_fraction,
            sweep_items,
            sweep_rows,
            sweep_scale,
        )
        from repro.metrics.report import text_table

        sweeps = {
            "items": sweep_items,
            # "sites" is the retailer-count ablation (historically named
            # "scale"; renamed so the topology grid can own that name).
            "sites": sweep_scale,
            "av-fraction": sweep_av_fraction,
        }
        fn = sweeps[args.dimension]
        print(
            text_table(
                SWEEP_HEADERS,
                sweep_rows(fn(seed=args.seed)),
                title=f"Sweep over {args.dimension}",
            )
        )
        return 0
    return _run_grid_sweep(args)


#: grids below this task count run sequentially under ``--shards auto``:
#: per-worker process start-up dominates and sharding is a slowdown
#: (the 3-task -small grids ran at 0.73-0.99x of sequential when
#: sharded on a 2-cpu host)
AUTO_SHARD_MIN_TASKS = 16


def _shards_arg(value: str):
    """``--shards`` value: a positive int, or ``auto``."""
    if value == "auto":
        return "auto"
    try:
        shards = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a positive integer or 'auto', got {value!r}"
        )
    if shards < 1:
        raise argparse.ArgumentTypeError("shard count must be >= 1")
    return shards


def resolve_shards(spec, n_tasks: int) -> int:
    """Concrete shard count for a sweep of ``n_tasks`` tasks.

    ``auto`` picks sequential for small grids and on a lone core
    (results are byte-identical for any shard count, so this is purely
    a wall-clock decision) and otherwise caps fan-out at the smaller of
    the task count and available cores.
    """
    if spec != "auto":
        return int(spec)
    import os

    cpus = os.cpu_count() or 1
    if n_tasks < AUTO_SHARD_MIN_TASKS or cpus < 2:
        return 1
    return min(4, cpus, n_tasks)


def _run_grid_sweep(args: argparse.Namespace) -> int:
    """Sharded seed × config grid sweep (see repro.perf)."""
    import time

    from repro.metrics.report import text_table
    from repro.perf import build_grid, run_sweep

    tasks = build_grid(
        args.dimension,
        root_seed=args.seed,
        replicates=args.replicates,
        check=args.check,
    )
    shards = resolve_shards(args.shards, len(tasks))
    started = time.perf_counter()  # repro-lint: disable=wall-clock (host timing of the sweep harness, not simulation)
    sweep = run_sweep(
        tasks,
        shards=shards,
        grid=args.dimension,
        root_seed=args.seed,
    )
    wall = time.perf_counter() - started  # repro-lint: disable=wall-clock (host timing of the sweep harness, not simulation)

    rows = []
    for task, result in zip(sweep.tasks, sweep.results):
        telemetry = result.get("telemetry", {})
        rows.append(
            [
                task.index,
                task.experiment + (f":{task.scenario}" if task.scenario else ""),
                task.seed,
                task.n_updates,
                telemetry.get("events_processed", ""),
                round(result["reduction"], 3) if "reduction" in result else "",
                (
                    "ok"
                    if result.get("ok", True)
                    and result.get("sanitizer", {}).get("violations", 0) == 0
                    else "FAIL"
                ),
            ]
        )
    print(
        text_table(
            ["task", "experiment", "seed", "updates", "events", "reduction", "status"],
            rows,
            title=(
                f"Sweep {args.dimension} (root seed {args.seed},"
                f" shards={shards}, retries={sweep.retries})"
            ),
        )
    )
    events = sweep.events_processed
    print(
        f"\n{len(sweep.results)} tasks, {events} kernel events,"
        f" {wall:.2f}s wall ({events / wall:,.0f} events/s)"
        f"\nresult digest: {sweep.digest()}"
    )
    from repro.obs.snapshot import telemetry_rows

    t_rows = telemetry_rows(sweep.telemetry())
    if t_rows:
        print()
        print(
            text_table(
                ["metric", "kind", "value"], t_rows,
                title="Merged telemetry (shard-count invariant)",
            )
        )
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(sweep.canonical())
            fh.write("\n")
        print(f"wrote canonical results to {args.out}")
    bad = [r for r in rows if r[-1] == "FAIL"]
    return 1 if bad else 0


def _cmd_figures(args: argparse.Namespace) -> int:
    from repro.analysis import record_scenario
    from repro.cluster import build_paper_system

    print("Fig. 3 — Delay Update within the local site (no messages)\n")
    system = build_paper_system(n_items=1, initial_stock=90.0, seed=args.seed)

    def fig3(env):
        yield system.update("site1", "item0", -10)

    print(record_scenario(system, fig3, width=24) or "(empty)")

    print("\nFig. 4 — Delay Update with AV transfer\n")
    system = build_paper_system(n_items=1, initial_stock=90.0, seed=args.seed)

    def fig4(env):
        yield system.update("site1", "item0", -45)

    print(record_scenario(system, fig4, width=24))

    print("\nFig. 5 — Immediate Update (primary-copy commit)\n")
    system = build_paper_system(
        n_items=1, initial_stock=90.0, regular_fraction=0.0, seed=args.seed
    )

    def fig5(env):
        yield system.update("site1", "item0", -5)

    print(record_scenario(system, fig5, width=24))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction harness for 'Autonomous Consistency Technique in"
            " Distributed Database with Heterogeneous Requirements'"
            " (IPPS 2000)."
        ),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, updates=1000):
        p.add_argument("--updates", type=int, default=updates,
                       help=f"total updates to issue (default {updates})")
        p.add_argument("--seed", type=int, default=0, help="root seed")
        p.add_argument("--items", type=int, default=10,
                       help="catalogue size (default 10, the calibrated value)")

    def trace_out(p):
        p.add_argument(
            "--trace-out", default=None, metavar="PATH",
            help=(
                "also record causal spans and write a Chrome trace-event"
                " JSON file (open in Perfetto)"
            ),
        )

    p = sub.add_parser("fig6", help="reproduce Fig. 6")
    common(p)
    trace_out(p)
    p.set_defaults(fn=_cmd_paired)

    p = sub.add_parser("table1", help="reproduce Table 1")
    common(p)
    trace_out(p)
    p.set_defaults(fn=_cmd_paired)

    p = sub.add_parser(
        "observe",
        help=(
            "replay the frozen §4 paper workload (Fig. 6 / Table 1)"
            " with the observability layer on"
        ),
    )
    common(p, updates=300)
    p.add_argument("--sample-interval", type=float, default=25.0,
                   help="sim-time between state snapshots (default 25)")
    trace_out(p)
    p.add_argument(
        "--jsonl-out", default=None, metavar="PATH",
        help="write spans + metrics + samples as line-delimited JSON",
    )
    p.set_defaults(fn=_cmd_observe)

    p = sub.add_parser(
        "report",
        help=(
            "render a sweep dossier (text or HTML) from a sweep"
            " canonical JSON"
        ),
    )
    p.add_argument(
        "path", help="sweep canonical JSON (`repro sweep ... --out`)",
    )
    p.add_argument(
        "--html", default=None, metavar="PATH",
        help="also write a self-contained HTML dossier",
    )
    p.set_defaults(fn=_cmd_report)

    p = sub.add_parser(
        "check",
        help="replay the frozen §4 paper workload under the runtime"
        " protocol sanitizer, or run the static suite with --static",
    )
    p.add_argument(
        "--static", action="store_true",
        help="run the static suite instead: lint rules + protocol-flow"
        " analysis in one parse",
    )
    common(p)
    p.add_argument(
        "--small", action="store_true",
        help="cap the workload at 150 updates (quick CI gate)",
    )
    p.set_defaults(fn=_cmd_check)

    p = sub.add_parser("ablations", help="run design-choice ablations")
    common(p)
    p.set_defaults(fn=_cmd_ablations)

    p = sub.add_parser("faults", help="fault-tolerance experiment")
    common(p)
    p.set_defaults(fn=_cmd_faults)

    p = sub.add_parser(
        "chaos",
        help=(
            "chaos suite: crash/partition/loss schedules must end in"
            " converged replicas with a clean sanitizer audit"
        ),
    )
    p.add_argument(
        "--updates", type=int, default=None,
        help="total updates per scenario (default 120 small / 300 full)",
    )
    p.add_argument("--seed", type=int, default=0, help="root seed")
    p.add_argument(
        "--small", action="store_true",
        help="run the 3-scenario CI smoke variant",
    )
    p.set_defaults(fn=_cmd_chaos)

    p = sub.add_parser("latency", help="latency comparison")
    common(p)
    p.set_defaults(fn=_cmd_latency)

    p = sub.add_parser(
        "fuzz",
        help=(
            "schedule-space fuzzing: perturbed deterministic runs under"
            " the sanitizer + end-state oracles, with automatic"
            " counterexample shrinking (see repro.testkit)"
        ),
    )
    p.add_argument("--seed", type=int, default=0, help="campaign root seed")
    p.add_argument(
        "--budget", default=None, metavar="TIME",
        help="wall-clock budget, e.g. 10s / 2m (default 10s)",
    )
    p.add_argument(
        "--cases", type=int, default=None,
        help="stop after N cases instead of (or as well as) --budget",
    )
    p.add_argument(
        "--shards", type=int, default=1,
        help="fan case batches across N worker processes",
    )
    p.add_argument(
        "--ops", type=int, default=36, help="workload ops per case"
    )
    from repro.cluster.config import SystemConfig

    p.add_argument(
        "--inject", default="", choices=["", *SystemConfig.KNOWN_INJECTIONS],
        help="TEST-ONLY: plant a known protocol bug to validate oracles",
    )
    p.add_argument(
        "--artifact-dir", default="fuzz-artifacts", metavar="DIR",
        help="where shrunk repro artifacts are written",
    )
    p.add_argument(
        "--no-shrink", action="store_true",
        help="report the first violating case without minimising it",
    )
    p.add_argument(
        "--replay", default=None, metavar="ARTIFACT",
        help="replay a repro artifact and verify byte-identity",
    )
    p.set_defaults(fn=_cmd_fuzz)

    p = sub.add_parser(
        "sweep",
        help=(
            "parameter sweeps (items/sites/av-fraction) and sharded"
            " seed-grid sweeps (fig6[-small|-wide], table1[-small],"
            " chaos[-small], scale[-small])"
        ),
    )
    from repro.perf.grids import GRID_NAMES

    p.add_argument(
        "dimension",
        choices=["items", "sites", "av-fraction", *GRID_NAMES],
    )
    p.add_argument("--seed", type=int, default=0, help="root seed")
    p.add_argument(
        "--shards", type=_shards_arg, default=1,
        help=(
            "fan the grid across N worker processes, or 'auto' to pick"
            " sequential for small grids (grid sweeps only; results are"
            " byte-identical for any N)"
        ),
    )
    p.add_argument(
        "--replicates", type=int, default=None,
        help="override the grid's replicate count (grid sweeps only)",
    )
    p.add_argument(
        "--check", action="store_true",
        help="also replay each task under the protocol sanitizer",
    )
    p.add_argument(
        "--out", default=None, metavar="PATH",
        help="write the canonical JSON results (determinism surface)",
    )
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser(
        "figures", help="regenerate Figs. 3-5 (protocol sequence diagrams)"
    )
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_figures)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
