"""Deterministic schedule-space fuzzer with end-state oracles.

The testkit turns the repository's deterministic simulator into a
FoundationDB-style test harness. A :class:`~repro.testkit.schedule.FuzzCase`
is a *complete, replayable description* of one run: the workload ops,
the fault schedule, and a perturbation vector (latency jitter, timer
jitter, perturbation seed) that explores the schedule space around the
unperturbed execution. Every case is a pure function of
``(root_seed, index)``, so any run — clean or violating — replays
bit-identically from its JSON form.

Pipeline (``python -m repro fuzz``):

1. :func:`~repro.testkit.schedule.make_case` derives a case from the
   campaign root seed and case index (workload + fault + perturbation
   mutations all drawn from one seeded stream).
2. :func:`~repro.testkit.runner.run_case` executes it under the full
   runtime :class:`~repro.analysis.sanitizer.ProtocolSanitizer` plus the
   end-state checker :func:`~repro.analysis.end_state.end_state` (replica
   convergence, exact AV conservation at settle, sequential-spec
   equivalence against an in-process reference executor).
3. On a violation, :func:`~repro.testkit.shrink.shrink_case`
   delta-debugs the op trace, fault schedule and perturbation vector
   down to a minimal case with the same violation fingerprint, and
   :mod:`repro.testkit.fuzzer` writes a JSON repro artifact that
   replays byte-identically via ``python -m repro fuzz --replay``.

Campaign batches ride the sharded sweep runner (:mod:`repro.perf`), so
fuzz throughput scales over worker processes without giving up the
merged-result determinism the perf suite already guarantees.
"""

from repro.testkit.fuzzer import FuzzReport, replay_artifact, run_fuzz
from repro.testkit.perturb import Perturbation
from repro.testkit.runner import CaseOutcome, run_case
from repro.testkit.schedule import FuzzCase, make_case
from repro.testkit.shrink import ShrinkResult, shrink_case

__all__ = [
    "CaseOutcome",
    "FuzzCase",
    "FuzzReport",
    "Perturbation",
    "ShrinkResult",
    "make_case",
    "replay_artifact",
    "run_case",
    "run_fuzz",
    "shrink_case",
]
