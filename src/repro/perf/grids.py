"""Named sweep grids: seed × config matrices over the paper workloads.

A grid is an ordered list of :class:`~repro.perf.tasks.SweepTask`. Each
task's seed is derived from the sweep's single root seed with
:func:`derive_seed` — the same stable-hash scheme
:class:`~repro.sim.rng.RngRegistry` uses for its named streams — so

* the grid is a pure function of ``(name, root_seed)``;
* replicate seeds are independent of how many replicates the grid has
  (adding a column never perturbs existing cells);
* the sharded runner needs no seed coordination at all: every task
  carries its own.
"""

from __future__ import annotations

import zlib
from typing import List

import numpy as np

from repro.perf.tasks import SweepTask

#: the chaos scenario names, in suite order: experiments.chaos's
#: SMALL_SCENARIOS and FULL_SCENARIOS without ``overload``, whose
#: surge the sweep grids do not run
_CHAOS_SMALL = ("maker-crash", "retailer-crash", "partition-loss")
_CHAOS_FULL = _CHAOS_SMALL + ("crash-storm", "flaky-links")


def derive_seed(root_seed: int, label: str, index: int) -> int:
    """Stable per-task seed from the sweep root seed.

    crc32 keeps the derivation identical across processes and Python
    versions (``hash()`` is salted); SeedSequence decorrelates the
    resulting streams even for adjacent indices.
    """
    child = np.random.SeedSequence(
        [int(root_seed), zlib.crc32(label.encode("utf-8")), int(index)]
    )
    return int(child.generate_state(1, dtype=np.uint64)[0] >> 1)


def _replicated(
    experiment: str,
    root_seed: int,
    replicates: int,
    n_updates: int,
    n_items: int,
    check: bool,
) -> List[SweepTask]:
    return [
        SweepTask(
            index=i,
            experiment=experiment,
            seed=derive_seed(root_seed, experiment, i),
            n_updates=n_updates,
            n_items=n_items,
            check=check,
        )
        for i in range(replicates)
    ]


def _chaos_grid(
    root_seed: int, scenarios, n_updates: int, n_items: int
) -> List[SweepTask]:
    return [
        SweepTask(
            index=i,
            experiment="chaos",
            seed=derive_seed(root_seed, f"chaos.{name}", i),
            n_updates=n_updates,
            n_items=n_items,
            scenario=name,
        )
        for i, name in enumerate(scenarios)
    ]


def _scale_grid(
    root_seed: int,
    specs,
    n_updates: int,
    n_items: int,
    check: bool,
) -> List[SweepTask]:
    return [
        SweepTask(
            index=i,
            experiment="scale",
            seed=derive_seed(root_seed, f"scale.{spec}", i),
            n_updates=n_updates,
            n_items=n_items,
            check=check,
            topology=spec,
        )
        for i, spec in enumerate(specs)
    ]


#: the CI smoke grid: small regional + deep layouts, sanitizer always on
_SCALE_SMALL_SPECS = (
    "flat:2",
    "regional:2x4:s2",
    "deep:2x2x2:s2",
)

#: the headline grid: 50 sites (1 maker + 7 aggregators + 42 leaves)
_SCALE_SPECS = (
    "regional:7x6:s2",
    "deep:3x4x4:s2",
)

GRID_NAMES = (
    "fig6-small",
    "fig6",
    "fig6-wide",
    "table1-small",
    "table1",
    "chaos-small",
    "chaos",
    "scale-small",
    "scale",
)


def build_grid(
    name: str,
    root_seed: int = 0,
    replicates: int | None = None,
    n_updates: int | None = None,
    check: bool = False,
) -> List[SweepTask]:
    """Build the named grid (optionally overriding its size).

    The ``-small`` variants are the CI-sized grids the determinism tests
    and the benchmark smoke gate run.
    """
    if name == "fig6-small":
        return _replicated(
            "fig6", root_seed, replicates or 3, n_updates or 120, 10, check
        )
    if name == "fig6":
        return _replicated(
            "fig6", root_seed, replicates or 8, n_updates or 1000, 10, check
        )
    if name == "table1-small":
        return _replicated(
            "table1", root_seed, replicates or 3, n_updates or 120, 10, check
        )
    if name == "table1":
        return _replicated(
            "table1", root_seed, replicates or 8, n_updates or 1000, 10, check
        )
    if name == "chaos-small":
        return _chaos_grid(root_seed, _CHAOS_SMALL, n_updates or 60, 6)
    if name == "chaos":
        return _chaos_grid(root_seed, _CHAOS_FULL, n_updates or 120, 6)
    if name == "fig6-wide":
        # The paper figure stretched sideways: one maker, 8 retailers,
        # all sites replicating everything (the flat scale-out control
        # the topology grids are compared against).
        return [
            SweepTask(
                index=i,
                experiment="fig6",
                seed=derive_seed(root_seed, "fig6-wide", i),
                n_updates=n_updates or 600,
                n_items=10,
                check=check,
                n_retailers=8,
            )
            for i in range(replicates or 3)
        ]
    if name == "scale-small":
        # Sanitizer is always on here: this grid is the CI scale-smoke
        # gate (zero violations + shard/sequential byte-identity).
        return _scale_grid(
            root_seed, _SCALE_SMALL_SPECS, n_updates or 200, 40, True
        )
    if name == "scale":
        return _scale_grid(
            root_seed, _SCALE_SPECS, n_updates or 5000, 10000, check
        )
    raise ValueError(f"unknown grid {name!r}; choose from {GRID_NAMES}")
