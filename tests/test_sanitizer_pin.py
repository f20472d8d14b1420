"""Byte-identity pins for the runtime sanitizer's output.

Each case hashes everything a sanitized run reports — the rendered
report, its counters, its happens-before samples — together with the
run's span fingerprint. A change to how events reach the sanitizer, or
to how it folds them, must leave every hash unchanged: the audit is the
same audit, only its cost may move.

Cases: every scenario of ``run_chaos(small=True)`` at seed 0, and the
``python -m repro check --small`` replay (150 paper updates, 10 items)
at seeds 0 and 3.
"""

from __future__ import annotations

import functools
import hashlib

import pytest

from repro.analysis.check import run_check
from repro.experiments.chaos import run_chaos

#: case -> sha256 of (render, counters, hb samples, span fingerprint)
PINNED = {
    "chaos:maker-crash": (
        "eec4782f000259d41d6bb4d0da906da2e36e8cea38809ed73ba97b1047b52544"
    ),
    "chaos:retailer-crash": (
        "9cab679d2f3edf7eaaac3f70a55e0e2ca112f2ece9cf72c2acb5d158415e15ce"
    ),
    "chaos:partition-loss": (
        "f69e5ac5901b5c2c3abf7bc6fcc3f2e59a36b157ec743350931d292cb9ec011f"
    ),
    "chaos:overload": (
        "2e5a7908859f6abcb917a4014d2b503ed8b19709da3d4f4ac7d2890ea32a459b"
    ),
    "check:seed0": (
        "33bae17d25127ae15b7f9ad788a8e1a3e2a1a2510a9524b60bcbd940840334b0"
    ),
    "check:seed3": (
        "53fb1dfb04c78e9e4ed8e2bc5bf789c6471e55d3f19856a5cc454b6e69ac2268"
    ),
}


def _digest(report, recorder) -> str:
    text = repr((
        report.render(),
        sorted(report.counters.items()),
        report.hb_samples,
        recorder.fingerprint(),
    ))
    return hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def _digests() -> dict:
    digests = {
        f"chaos:{result.scenario}": _digest(result.report, result.obs.recorder)
        for result in run_chaos(small=True, seed=0).results
    }
    for seed in (0, 3):
        run = run_check(n_updates=150, seed=seed)
        digests[f"check:seed{seed}"] = _digest(run.report, run.system.obs.recorder)
    return digests


def test_the_pinned_cases_are_every_case():
    assert sorted(_digests()) == sorted(PINNED)


@pytest.mark.parametrize("case", sorted(PINNED))
def test_sanitizer_output_is_pinned(case):
    assert _digests()[case] == PINNED[case]
