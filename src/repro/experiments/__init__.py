"""Experiment harness: paper figures/tables, sweeps, ablations, faults."""

from repro.experiments.ablations import (
    ABLATION_HEADERS,
    ablate_escrow,
    ablate_grant_policy,
    ablate_selection_strategy,
    ablate_stale_beliefs,
    ablate_update_mix,
)
from repro.experiments.chaos import (
    ChaosReport,
    ChaosScenario,
    FaultedRun,
    run_chaos,
    run_chaos_scenario,
    run_faulted,
)
from repro.experiments.faults import (
    FAULT_HEADERS,
    FaultResult,
    run_fault_experiment,
    run_partition_experiment,
)
from repro.experiments.fig6 import make_paper_trace, run_fig6
from repro.experiments.observe import ObservedRun, run_observed
from repro.experiments.latency_exp import (
    LATENCY_HEADERS,
    LatencyResult,
    run_latency_experiment,
)
from repro.experiments.runner import (
    Checkpoint,
    CountedRun,
    PairedResult,
    checkpoint_schedule,
    correspondence_reduction,
    run_counted,
    run_paired,
)
from repro.experiments.sweep import (
    SWEEP_HEADERS,
    SweepPoint,
    sweep_av_fraction,
    sweep_items,
    sweep_rows,
    sweep_scale,
)
from repro.experiments.table1 import run_table1

__all__ = [
    "ABLATION_HEADERS",
    "ChaosReport",
    "ChaosScenario",
    "Checkpoint",
    "CountedRun",
    "FAULT_HEADERS",
    "FaultResult",
    "FaultedRun",
    "LATENCY_HEADERS",
    "LatencyResult",
    "ObservedRun",
    "PairedResult",
    "SWEEP_HEADERS",
    "SweepPoint",
    "ablate_escrow",
    "ablate_grant_policy",
    "ablate_selection_strategy",
    "ablate_stale_beliefs",
    "ablate_update_mix",
    "checkpoint_schedule",
    "correspondence_reduction",
    "make_paper_trace",
    "run_chaos",
    "run_chaos_scenario",
    "run_counted",
    "run_fault_experiment",
    "run_faulted",
    "run_partition_experiment",
    "run_fig6",
    "run_latency_experiment",
    "run_observed",
    "run_paired",
    "run_table1",
    "sweep_av_fraction",
    "sweep_items",
    "sweep_rows",
    "sweep_scale",
]
