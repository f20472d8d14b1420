"""SCM workload models, generators, drivers and traces."""

from repro.workload.driver import run_closed, run_open, split_by_site
from repro.workload.generators import (
    PaperWorkload,
    TopologyWorkload,
    WorkloadEvent,
    WorkloadGenerator,
    ZipfSampler,
    normalize_mix,
)
from repro.workload.scm import (
    MakerAgent,
    RetailerAgent,
    SalesReport,
    SCMOutcome,
    SCMSimulation,
)
from repro.workload.trace import TraceSummary, WorkloadTrace

__all__ = [
    "MakerAgent",
    "PaperWorkload",
    "RetailerAgent",
    "SCMOutcome",
    "SCMSimulation",
    "SalesReport",
    "TopologyWorkload",
    "TraceSummary",
    "WorkloadEvent",
    "WorkloadGenerator",
    "WorkloadTrace",
    "ZipfSampler",
    "normalize_mix",
    "run_closed",
    "run_open",
    "split_by_site",
]
