"""Shared helpers for the benchmark harness.

Each bench regenerates one table/figure (or ablation) and both prints it
and persists it under ``benchmarks/results/`` so the reproduced artifact
survives pytest's output capture. The overhead gates, whose reports are
this host's timings, only print theirs: a run leaves the tree clean.
"""

from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"


@pytest.fixture
def save_result():
    """Persist a rendered table: ``save_result("fig6", text)``."""

    def _save(name: str, text: str) -> None:
        RESULTS_DIR.mkdir(exist_ok=True)
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return _save


def once(benchmark, fn, *args, **kwargs):
    """Run ``fn`` exactly once under the benchmark timer.

    The experiments are deterministic simulations — repeated rounds
    measure the same work, so one round keeps the harness fast while
    still producing a wall-clock figure per experiment.
    """
    return benchmark.pedantic(fn, args=args, kwargs=kwargs, rounds=1, iterations=1)
