#!/usr/bin/env python3
"""Compare two result files written by ``run.py --out``.

    python3 benchmarks/e2e/compare.py A.json B.json

One row per (workload, end-to-end metric): both medians with their
quartiles, the ratio B/A with its base, and a verdict for B against A —
``better`` / ``worse`` / ``unchanged`` / ``unresolved`` by the metric's
bound and the two sides' own spreads (see :func:`stats.verdict`). A
``result_digest`` line per workload says whether the two sides produced
the same simulated outcomes; digests are reported, not pinned.

Exit status is non-zero on any ``worse`` row, and whenever B commits a
smaller share of the trace or fails more verification checks than A —
a speed-up bought with failed updates does not count.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stats import verdict, worsening  # noqa: E402


def load(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the comparison table; return the exit status."""
    pa, pb = a["provenance"], b["provenance"]
    print(f"A: rev {pa['git_revision'][:12]} seed {pa['seed']} x{pa['repeats']}"
          f" scale {pa['scale']:g}  calibration {pa['calibration_kops']:.0f} kops/s",
          file=out)
    print(f"B: rev {pb['git_revision'][:12]} seed {pb['seed']} x{pb['repeats']}"
          f" scale {pb['scale']:g}  calibration {pb['calibration_kops']:.0f} kops/s",
          file=out)
    if (pa["seed"], pa["scale"]) != (pb["seed"], pb["scale"]):
        print("NOTE: seeds or sizes differ — simulated metrics are only exact"
              " for equal seed and size", file=out)

    bad: List[str] = []
    for name, wa in a["workloads"].items():
        wb = b["workloads"].get(name)
        if wb is None:
            print(f"\n{name}: missing from B", file=out)
            bad.append(f"{name}: missing from B")
            continue
        same = wa["result_digest"] == wb["result_digest"]
        print(f"\n{name}  result_digest {'identical' if same else 'DIFFERENT'}"
              f" ({wa['result_digest'][:12]} / {wb['result_digest'][:12]})", file=out)
        print(f"  {'metric':<26}{'A median [q1, q3]':>34}{'B median [q1, q3]':>34}"
              f"   B/A      verdict", file=out)
        for metric, ra in wa["end_to_end"].items():
            rb = wb["end_to_end"][metric]
            word = verdict(ra, rb, ra["better"], ra["bound"])
            ratio = rb["median"] / ra["median"] if ra["median"] else float("nan")
            print(f"  {metric:<26}"
                  f"{_cell(ra):>34}{_cell(rb):>34}"
                  f"  {ratio:6.3f}x of {ra['median']:.5g} {ra['unit']:<11} {word}",
                  file=out)
            if word == "worse":
                bad.append(f"{name}.{metric}: worse by"
                           f" {worsening(ra['median'], rb['median'], ra['better']):.1%}"
                           f" (bound {ra['bound']:.0%})")
        committed_a = wa["end_to_end"]["committed_ratio"]["median"]
        committed_b = wb["end_to_end"]["committed_ratio"]["median"]
        if committed_b < committed_a:
            bad.append(f"{name}: committed_ratio fell {committed_a:.6g} -> {committed_b:.6g}")
        if len(wb["failures"]) > len(wa["failures"]):
            bad.append(f"{name}: {len(wb['failures'])} verification failure(s) in B")

    print(file=out)
    for line in bad:
        print(f"REGRESSION: {line}", file=out)
    print("compare: FAIL" if bad else "compare: OK", file=out)
    return 1 if bad else 0


def _cell(row: dict) -> str:
    return f"{row['median']:.5g} [{row['q1']:.5g}, {row['q3']:.5g}]"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", help="base result file")
    parser.add_argument("b", help="result file compared against it")
    args = parser.parse_args(argv)
    return compare(load(args.a), load(args.b))


if __name__ == "__main__":
    sys.exit(main())
