#!/usr/bin/env python
"""Fault tolerance: retailers keep selling through a maker outage.

Run:  python examples/fault_tolerance.py

The paper's §2 motivation: a centralized system dies with its server,
while the autonomous approach lets every site keep updating locally.
Here we crash the maker for a window mid-run and watch the retailers:
Delay Updates covered by local AV keep committing; only the updates
that need an AV transfer from the dead maker fail (with a timeout),
and everything recovers when the maker returns.
"""

from repro.cluster import build_paper_system
from repro.metrics.availability import AvailabilityTracker
from repro.workload import PaperWorkload, run_open, split_by_site
from repro.workload.trace import WorkloadTrace

FAULT_START, FAULT_END = 300.0, 900.0

system = build_paper_system(
    n_items=8,
    initial_stock=150.0,
    seed=3,
    request_timeout=10.0,  # AV requests to a dead maker must not hang
)
config = system.config

workload = PaperWorkload(
    maker=config.maker,
    retailers=config.retailers,
    items=system.catalog.items(),
    initial_stock=config.initial_stock,
    rng=system.rngs.stream("workload"),
)
trace = WorkloadTrace.capture(workload, 600)
tracker = AvailabilityTracker(FAULT_START, FAULT_END)


def crash_the_maker(env):
    yield env.timeout(FAULT_START)
    print(f"[t={env.now:6.1f}] *** maker crashes ***")
    system.sites[config.maker].crash()
    yield env.timeout(FAULT_END - FAULT_START)
    system.sites[config.maker].restart()
    print(f"[t={env.now:6.1f}] *** maker recovers ***")


system.env.process(crash_the_maker(system.env))
run_open(
    system,
    split_by_site(trace),
    interarrival=5.0,
    on_complete=lambda i, e, r: tracker.record(r),
)

print("\nAvailability (fraction of attempted updates that committed)")
print(f"fault window: t in [{FAULT_START:g}, {FAULT_END:g}]\n")
header = f"{'site':8} {'normal':>8} {'in fault':>9}"
print(header)
print("-" * len(header))
for site in config.site_names:
    normal = tracker.availability(site, False)
    fault = tracker.availability(site, True)
    attempted = tracker.stats(site, True).attempted
    note = "(crashed, no demand)" if site == config.maker else f"({attempted} attempts)"
    print(f"{site:8} {normal:8.1%} {fault:9.1%}  {note}")

print(
    "\nA centralized deployment scores 0% for every site during the"
    "\noutage — compare: python -m repro faults"
)
