"""Fuzz campaigns: batched case generation, sharded execution, repro
artifacts, and byte-identical replay.

A campaign enumerates case indices from a root seed, runs them in
batches through the sharded sweep runner (``experiment="fuzz"`` tasks —
each worker regenerates its case from ``(root_seed, index)``, so
nothing but coordinates crosses the process boundary), and stops at the
first violating case or when the wall-clock/case budget runs out. The
violating case is then shrunk and written as a JSON **repro artifact**:

.. code-block:: json

    {
      "format": "repro-fuzz-repro/1",
      "root_seed": 0, "case_index": 7,
      "original_case": { ... },
      "case": { ...minimal shrunk case... },
      "fingerprint": [["av.conservation", "item2"]],
      "digest": "…sha256 of the minimal case's full outcome…",
      "findings": ["violation: av.conservation t=41.3 …"],
      "shrink": {"runs": 57, "ops": [36, 2], "faults": [4, 0]}
    }

``python -m repro fuzz --replay artifact.json`` re-runs the embedded
case and demands the same fingerprint *and* the same outcome digest —
i.e. the artifact reproduces byte-identically, not just approximately.
"""

from __future__ import annotations

import json
import os
import textwrap
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional

from repro.perf.runner import run_sweep
from repro.perf.tasks import SweepTask
from repro.testkit.runner import run_case
from repro.testkit.schedule import FuzzCase
from repro.testkit.shrink import ShrinkResult, shrink_case

#: repro artifact format tag
ARTIFACT_FORMAT = "repro-fuzz-repro/1"


@dataclass
class FuzzReport:
    """Outcome of one fuzz campaign."""

    root_seed: int
    cases_run: int = 0
    #: payload of the first violating case (None = campaign clean)
    violating: Optional[dict] = None
    shrink: Optional[ShrinkResult] = None
    artifact_path: Optional[str] = None
    #: replay-after-shrink verified byte-identical
    replay_ok: Optional[bool] = None
    elapsed_s: float = 0.0
    events_processed: int = 0
    #: messages sent per message kind, summed over every case run
    sent_kinds: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.violating is None

    def render(self) -> str:
        status = "clean" if self.ok else "VIOLATION"
        lines = [
            f"fuzz campaign seed={self.root_seed}: {status}"
            f" ({self.cases_run} cases, {self.events_processed} kernel"
            f" events, {self.elapsed_s:.1f}s)"
        ]
        if self.sent_kinds:
            census = ", ".join(
                f"{kind}={n}" for kind, n in sorted(self.sent_kinds.items())
            )
            lines.append(
                f"  message kinds sent ({len(self.sent_kinds)}):"
            )
            lines += textwrap.wrap(
                census, width=76, initial_indent="    ",
                subsequent_indent="    ",
            )
        if self.violating is not None:
            index = self.violating.get("task", {}).get("index", "?")
            lines.append(
                f"  case #{index} fingerprint:"
                f" {self.violating['fingerprint']}"
            )
            for finding in self.violating.get("findings", [])[:8]:
                lines.append("    " + finding)
        if self.shrink is not None:
            lines.append("  " + self.shrink.render())
        if self.artifact_path is not None:
            lines.append(f"  repro artifact: {self.artifact_path}")
        if self.replay_ok is not None:
            lines.append(
                "  replay: "
                + ("byte-identical" if self.replay_ok else "MISMATCH")
            )
        return "\n".join(lines)


def _parse_budget(text: Optional[str]) -> Optional[float]:
    """``"10s"``/``"2m"``/``"120"`` -> seconds."""
    if text is None:
        return None
    text = text.strip().lower()
    scale = 1.0
    if text.endswith("ms"):
        scale, text = 1e-3, text[:-2]
    elif text.endswith("s"):
        text = text[:-1]
    elif text.endswith("m"):
        scale, text = 60.0, text[:-1]
    return float(text) * scale


def write_artifact(
    directory: str,
    report_root_seed: int,
    case_index: int,
    original: dict,
    shrink: ShrinkResult,
) -> str:
    """Shrunk case -> repro artifact on disk; returns the path."""
    outcome = run_case(shrink.case)
    artifact = {
        "format": ARTIFACT_FORMAT,
        "root_seed": report_root_seed,
        "case_index": case_index,
        "original_case": original,
        "case": shrink.case.to_dict(),
        "fingerprint": [list(pair) for pair in outcome.fingerprint],
        "digest": outcome.digest(),
        "findings": [v.render() for v in outcome.findings],
        "shrink": {
            "runs": shrink.runs,
            "ops": [shrink.ops_before, shrink.ops_after],
            "faults": [shrink.faults_before, shrink.faults_after],
        },
    }
    os.makedirs(directory, exist_ok=True)
    path = os.path.join(
        directory, f"repro-{outcome.digest()[:12]}.json"
    )
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(artifact, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def replay_artifact(path: str) -> tuple:
    """Re-run an artifact's case; ``(reproduced, report_text)``.

    Reproduction requires the recorded fingerprint *and* the recorded
    outcome digest — the latter covers update tags, replicas and kernel
    counters, so a pass means the replay was byte-identical.
    """
    with open(path, "r", encoding="utf-8") as handle:
        artifact = json.load(handle)
    if artifact.get("format") != ARTIFACT_FORMAT:
        raise ValueError(
            f"unsupported artifact format {artifact.get('format')!r}"
        )
    case = FuzzCase.from_dict(artifact["case"])
    outcome = run_case(case)
    fingerprint = [list(pair) for pair in outcome.fingerprint]
    same_fingerprint = fingerprint == artifact["fingerprint"]
    same_digest = outcome.digest() == artifact["digest"]
    reproduced = same_fingerprint and same_digest
    lines = [
        f"replay {os.path.basename(path)}:"
        f" {'REPRODUCED' if reproduced else 'NOT REPRODUCED'}",
        f"  fingerprint: {'match' if same_fingerprint else 'MISMATCH'}"
        f" {fingerprint}",
        f"  outcome digest: {'match' if same_digest else 'MISMATCH'}",
    ]
    lines += ["  " + v.render() for v in outcome.findings[:8]]
    return reproduced, "\n".join(lines)


def run_fuzz(
    root_seed: int = 0,
    budget_s: Optional[float] = None,
    max_cases: Optional[int] = None,
    shards: int = 1,
    n_ops: int = 36,
    inject: str = "",
    artifact_dir: Optional[str] = None,
    do_shrink: bool = True,
    shrink_max_runs: int = 400,
    batch: Optional[int] = None,
    log: Optional[Callable[[str], None]] = None,
) -> FuzzReport:
    """Run a campaign until a violation, the budget, or the case cap.

    At least one batch always runs, even with a zero budget — a
    campaign that tests nothing reports nothing.
    """
    if budget_s is None and max_cases is None:
        raise ValueError("need a wall-clock budget or a case cap")
    emit = log if log is not None else (lambda _line: None)
    # Campaign pacing is operator wall-clock, never simulation input.
    start = time.perf_counter()  # repro-lint: disable=wall-clock (campaign budget)
    report = FuzzReport(root_seed=root_seed)
    batch_size = batch if batch is not None else max(16, 8 * max(shards, 1))
    index = 0
    last_emit = start

    while True:
        if max_cases is not None:
            batch_size = min(batch_size, max_cases - index)
            if batch_size <= 0:
                break
        tasks = [
            SweepTask(
                index=i,
                experiment="fuzz",
                seed=root_seed,
                n_updates=n_ops,
                scenario=inject,
            )
            for i in range(index, index + batch_size)
        ]
        sweep = run_sweep(
            tasks, shards=shards, grid="fuzz", root_seed=root_seed
        )
        report.cases_run += len(sweep.results)
        report.events_processed += sweep.events_processed
        index += batch_size
        sent_kinds = report.sent_kinds
        for payload in sweep.results:
            for kind, n in payload["sent_kinds"].items():
                sent_kinds[kind] = sent_kinds.get(kind, 0) + n
        for payload in sweep.results:
            if not payload["ok"]:
                report.violating = payload
                break
        now = time.perf_counter()  # repro-lint: disable=wall-clock (campaign budget)
        elapsed = now - start
        if report.violating is not None or now - last_emit >= 2.0:
            last_emit = now
            emit(
                f"fuzz: {report.cases_run} cases, {elapsed:.1f}s,"
                f" {'violation found' if report.violating else 'clean'}"
            )
        if report.violating is not None:
            break
        if budget_s is not None and elapsed >= budget_s:
            break
        if max_cases is not None and index >= max_cases:
            break

    if report.violating is not None and do_shrink:
        payload = report.violating
        case = FuzzCase.from_dict(payload["case"])
        target = [tuple(pair) for pair in payload["fingerprint"]]
        emit(f"shrinking case #{payload['task']['index']} …")
        report.shrink = shrink_case(
            case, fingerprint=target, max_runs=shrink_max_runs
        )
        emit("  " + report.shrink.render())
        if artifact_dir is not None:
            report.artifact_path = write_artifact(
                artifact_dir,
                root_seed,
                payload["task"]["index"],
                payload["case"],
                report.shrink,
            )
            reproduced, replay_text = replay_artifact(report.artifact_path)
            report.replay_ok = reproduced
            emit(replay_text)

    report.elapsed_s = time.perf_counter() - start  # repro-lint: disable=wall-clock (campaign budget)
    return report
