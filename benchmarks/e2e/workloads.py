"""The five benchmark workloads, their verification and their metrics.

Every workload is built from ``--seed`` alone and handed to the system
under test as frozen :class:`~repro.workload.trace.WorkloadTrace` s; all
load is in *simulated* time and the host side is one closed Python loop.

A run of a closed-loop workload is a fixed number of independent
**episodes**: episode ``r`` of seed ``s`` is a fresh system and a fresh
trace seeded ``s * 1000 + r``. The §4 stock model is a driftless random
walk per item, so one long trace wanders into a seed-specific regime
(ten seeds of one 150k-update trace spread ``corr_per_update`` by 10%);
pooling many short episodes — the paper's own experiment size — keeps
every simulated metric within a few percent across seeds, which is what
lets the regression bounds in ``BENCHMARK.json`` be tight.
"""

from __future__ import annotations

import hashlib
import statistics
import time
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from repro.cluster import DistributedSystem, Topology, paper_config
from repro.cluster.catalog import make_catalog
from repro.core.assurance import jain_index
from repro.core.types import UPDATE_TAGS, UpdateKind, UpdateOutcome
from repro.experiments import chaos
from repro.experiments.fig6 import make_paper_trace
from repro.experiments.scale import make_scale_trace
from repro.workload import driver

#: ``--seconds`` of the driver contract that corresponds to ``--scale 1``
RUN_SECONDS = 6
#: episode r of seed s is seeded s * SUBSEED_STRIDE + r
SUBSEED_STRIDE = 1000
#: shortest trace a scaled-down episode / chaos scenario is cut to
MIN_UPDATES = 60
#: the chaos surge must still overrun its budgets when scaled down
MIN_CHAOS_UPDATES = 240


# -------------------------------------------------------------------- #
# what one run accumulates
# -------------------------------------------------------------------- #

@dataclass
class Tally:
    """Everything one run (all its episodes / scenarios) adds up."""

    trace_events: int = 0
    results: int = 0
    committed: int = 0
    local: int = 0
    skipped: int = 0
    correspondences: float = 0.0
    latencies: List[float] = field(default_factory=list)
    retailer_corr: Counter = field(default_factory=Counter)
    #: per episode / scenario, in order
    capture_s: List[float] = field(default_factory=list)
    build_s: List[float] = field(default_factory=list)
    drive_s: List[float] = field(default_factory=list)
    drive_results: List[int] = field(default_factory=list)
    #: verification failures (empty = the run is correct)
    failures: List[str] = field(default_factory=list)
    #: public-state counts behind the per-layer ratios
    counts: Counter = field(default_factory=Counter)
    _digest: "hashlib._Hash" = field(default_factory=hashlib.sha256)

    @property
    def digest(self) -> str:
        return self._digest.hexdigest()

    def absorb(self, system, leaves: Sequence[str], results) -> None:
        """Fold one finished system and its results into the totals."""
        digest = self._digest
        latencies = self.latencies
        counts = self.counts
        committed = local = av_requests = 0
        for r in results:
            if r.committed:
                committed += 1
            if r.local_only:
                local += 1
            av_requests += r.av_requests
            latencies.append(r.latency)
            digest.update(
                f"{r.kind.value}:{r.outcome.value}:{int(r.local_only)}:"
                f"{r.av_requests}:{r.finished_at!r};".encode()
            )
            if r.kind is UpdateKind.IMMEDIATE:
                counts["imm_updates"] += 1
                if r.outcome is UpdateOutcome.ABORTED:
                    counts["imm_aborted"] += 1
            if r.outcome is UpdateOutcome.SHED:
                counts["sheds"] += 1
        for name in sorted(system.sites):
            replica = system.sites[name].store.as_dict()
            digest.update(
                (name + ":" + ",".join(
                    f"{item}={replica[item]!r}" for item in sorted(replica)
                ) + "\n").encode()
            )
        self.results += len(results)
        self.committed += committed
        self.local += local
        stats = system.stats
        self.correspondences += stats.correspondences_for_tags(UPDATE_TAGS)
        for name in leaves:
            self.retailer_corr[name] += stats.correspondences_for_site_tags(
                name, UPDATE_TAGS
            )

        counts["events"] += system.env.events_processed
        counts["msgs"] += stats.sent_total
        counts["drops"] += stats.dropped_total
        counts["av_requests"] += av_requests
        counts["records"] += system.collector.total
        counts["obs_spans"] += len(system.obs.recorder)
        for site in system.sites.values():
            accel = site.accelerator
            counts["wal_entries"] += len(accel.txns.wal)
            counts["grants_served"] += _get(accel, "delay.grants_served")
            counts["imm_retries"] += _get(accel, "immediate.retries")
            handled = site.endpoint.handled
            counts["pool_requests"] += handled.get("av.pool.request", 0)
            counts["av_asks_handled"] += sum(
                handled.get(kind, 0)
                for kind in ("av.request", "av.pool.request", "av.pool.refill")
            )
            counts["retransmits"] += _get(accel, "reliable.retransmissions")
            counts["leases_opened"] += _get(accel, "leases.opened")
            counts["leases_reverted"] += _get(accel, "leases.reverted")


def _get(obj, path: str, default=0):
    """``obj.a.b`` or ``default`` when a link is missing or ``None`` —
    the diagnostics behind per-layer counts may be off or removed."""
    for part in path.split("."):
        obj = getattr(obj, part, None)
        if obj is None:
            return default
    return obj


# -------------------------------------------------------------------- #
# verification
# -------------------------------------------------------------------- #

def accounting_failures(
    trace: Iterable, results: Iterable, skips_allowed: bool = False
) -> List[str]:
    """Is every trace event accounted for by exactly one result?

    Without faults every site's results must replay that site's stream
    of the trace in order, one for one. With ``skips_allowed`` (the
    chaos scenarios: a crashed site issues nothing, the horizon cuts
    streams off, the surge completes out of order) the results must be
    a sub-multiset of the trace; the difference is the counted skips.
    """
    issued: Dict[str, list] = {}
    for e in trace:
        issued.setdefault(e.site, []).append((e.item, e.delta))
    done: Dict[str, list] = {}
    for r in results:
        req = r.request
        done.setdefault(req.site, []).append((req.item, req.delta))
    failures = []
    for site in sorted(set(issued) | set(done)):
        want, got = issued.get(site, []), done.get(site, [])
        if skips_allowed:
            extra = Counter(got) - Counter(want)
            if extra:
                failures.append(
                    f"{site}: {sum(extra.values())} result(s) match no trace event"
                )
        elif want != got:
            failures.append(
                f"{site}: {len(got)} result(s) do not replay its"
                f" {len(want)} trace event(s) one for one"
            )
    return failures


# -------------------------------------------------------------------- #
# closed-loop workloads (episodes)
# -------------------------------------------------------------------- #

@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: independent sub-seeded episodes per run, trace length of each
    episodes: int
    updates: int
    run: Callable[["Workload", int, float, Tally, object], None]

    def size(self, scale: float) -> Tuple[int, int]:
        """(episodes, updates per episode) at ``scale``: episodes are
        cut first, then the single remaining episode is shortened."""
        total = self.episodes * self.updates * scale
        episodes = max(1, min(self.episodes, round(self.episodes * scale)))
        updates = min(self.updates, max(MIN_UPDATES, round(total / episodes)))
        return episodes, updates


def _run_episodes(
    workload: Workload,
    seed: int,
    scale: float,
    tally: Tally,
    tracer,
    *,
    setup: Callable[[int, int, object], tuple],
    shared: Callable[[], object] = lambda: None,
    open_interarrival: Optional[float] = None,
) -> None:
    """Drive ``workload``'s episodes: ``setup(sub_seed, updates, context)``
    makes each episode's (trace, config); ``shared()`` makes the context
    every episode shares; ``open_interarrival`` switches the driver from
    ``run_closed`` to per-site ``run_open`` streams."""
    episodes, updates = workload.size(scale)
    clock = time.perf_counter
    start = clock()
    context = shared()
    shared_s = clock() - start
    on_complete = None
    for episode in range(episodes):
        sub_seed = seed * SUBSEED_STRIDE + episode
        t0 = clock()
        trace, config = setup(sub_seed, updates, context)
        t1 = clock()
        system = DistributedSystem.build(config)
        t2 = clock()
        if open_interarrival is not None:
            results = driver.run_open(
                system, driver.split_by_site(trace),
                interarrival=open_interarrival,
            )
        else:
            if tracer is not None:
                base = tally.results

                def on_complete(i, _event, _result, base=base):
                    tracer.ctx = base + i + 1

            results = driver.run_closed(system, trace, on_complete=on_complete)
        t3 = clock()
        tally.capture_s.append(t1 - t0)
        tally.build_s.append(t2 - t1 + (shared_s if episode == 0 else 0.0))
        tally.drive_s.append(t3 - t2)
        tally.drive_results.append(len(results))
        tally.trace_events += len(trace)

        try:
            system.check_invariants(quiescent=config.propagate)
        except AssertionError as exc:
            tally.failures.append(f"episode {episode}: invariant: {exc}")
        tally.failures += [
            f"episode {episode}: {msg}"
            for msg in accounting_failures(trace, results)
        ]
        leaves = (
            config.topology.leaves if config.topology is not None
            else config.retailers
        )
        tally.absorb(system, leaves, results)


def _paper_layout(n_retailers: int, regular_fraction: float = 1.0):
    def setup(sub_seed: int, updates: int, _context):
        trace = make_paper_trace(
            updates, sub_seed, n_items=10, n_retailers=n_retailers
        )
        config = paper_config(
            n_items=10, n_retailers=n_retailers, seed=sub_seed,
            regular_fraction=regular_fraction,
        )
        return trace, config

    return setup


SCALE_SPEC = "regional:7x6:s2"
SCALE_ITEMS = 10_000


def _scale_topology():
    width = len(str(SCALE_ITEMS - 1))
    return Topology.parse(
        SCALE_SPEC, [f"item{i:0{width}d}" for i in range(SCALE_ITEMS)]
    )


def _scale_setup(sub_seed: int, updates: int, topology):
    trace = make_scale_trace(topology, updates, sub_seed)
    config = paper_config(n_items=SCALE_ITEMS, seed=sub_seed, topology=topology)
    return trace, config


# -------------------------------------------------------------------- #
# chaos-faults
# -------------------------------------------------------------------- #

CHAOS_ITEMS = 6
CHAOS_INTERARRIVAL = 0.02
#: how often a surge trace that leaves the immediate path idle is drawn again
SURGE_REDRAWS = 8
#: fewest decrements of immediate items that make a surge: the burst the
#: overload budgets are tuned to shed (see ``chaos._OVERLOAD_PARAMS``)
SURGE_MIN_IMMEDIATE = 40


def _both_paths(factory: Callable) -> Callable:
    """``factory``, drawn again until the surge loads the immediate path.

    The ``overload`` scenario's flash sale is three bursts of
    ``n_updates // 3`` (and a tail of at most two events), each aimed
    at one hot item drawn once. On 1.6% of seeds (12 of 0..739: 32, 112,
    127, ...) all three draw the hot *regular* item: no 2PC storm,
    nothing is shed or demoted, and the scenario's own end-state check
    fails the run for not having surged at all. Such a trace is no input
    for this workload: draw ``r`` > 0 of seed ``s`` uses sub-seed
    ``s * SUBSEED_STRIDE + r``, like an episode.
    """

    def make(n_updates: int, seed: int, config):
        immediate = set(
            make_catalog(
                config.n_items, regular_fraction=config.regular_fraction
            ).non_regular_items()
        )
        for draw in range(SURGE_REDRAWS):
            draw_seed = seed * SUBSEED_STRIDE + draw if draw else seed
            trace = factory(n_updates, draw_seed, config)
            hits = sum(e.item in immediate and e.delta < 0 for e in trace)
            if hits >= SURGE_MIN_IMMEDIATE:
                return trace
        raise RuntimeError(
            f"surge trace of seed {seed} left the immediate path idle"
            f" in {SURGE_REDRAWS} draws"
        )

    return make


class _SetupCapture:
    """Times ``DistributedSystem.build`` and the trace factories of
    ``run_chaos_scenario`` at call level and keeps what they returned —
    the scenario runner hands back neither the system nor the trace."""

    def __init__(self) -> None:
        self.system = None
        self.trace = None
        self.capture_s = 0.0
        self.build_s = 0.0

    def __enter__(self) -> "_SetupCapture":
        self._raw_build = vars(DistributedSystem)["build"]
        self._raw_factory = chaos.make_paper_trace
        inner_build = self._raw_build.__func__

        def build(cls, *args, **kwargs):
            start = time.perf_counter()
            self.system = inner_build(cls, *args, **kwargs)
            self.build_s += time.perf_counter() - start
            return self.system

        DistributedSystem.build = classmethod(build)
        chaos.make_paper_trace = self.timed(self._raw_factory)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        DistributedSystem.build = self._raw_build
        chaos.make_paper_trace = self._raw_factory

    def timed(self, factory: Callable) -> Callable:
        def make(*args, **kwargs):
            start = time.perf_counter()
            self.trace = factory(*args, **kwargs)
            self.capture_s += time.perf_counter() - start
            return self.trace

        return make

    def take(self) -> tuple:
        out = (self.system, self.trace, self.capture_s, self.build_s)
        self.system = self.trace = None
        self.capture_s = self.build_s = 0.0
        return out


def _run_chaos_faults(workload, seed, scale, tally, tracer) -> None:
    updates = max(MIN_CHAOS_UPDATES, round(workload.updates * scale))
    with _SetupCapture() as capture:
        for index, scenario in enumerate(chaos.FULL_SCENARIOS):
            if tracer is not None:
                tracer.ctx = index
            if scenario.trace_factory is not None:  # the surge
                scenario = replace(
                    scenario,
                    trace_factory=capture.timed(_both_paths(scenario.trace_factory)),
                )
            start = time.perf_counter()
            outcome = chaos.run_chaos_scenario(
                scenario, n_updates=updates, seed=seed,
                n_items=CHAOS_ITEMS, interarrival=CHAOS_INTERARRIVAL,
            )
            wall = time.perf_counter() - start
            system, trace, capture_s, build_s = capture.take()
            results = system.collector.results
            tally.capture_s.append(capture_s)
            tally.build_s.append(build_s)
            tally.drive_s.append(wall - capture_s - build_s)
            tally.drive_results.append(len(results))
            tally.trace_events += len(trace)
            tally.skipped += len(trace) - len(results)

            if not outcome.ok:
                tally.failures.append(
                    f"{scenario.name}: " + outcome.render().replace("\n", " | ")
                )
            if outcome.updates_completed > len(results):
                tally.failures.append(
                    f"{scenario.name}: {outcome.updates_completed} updates"
                    f" completed but only {len(results)} results recorded"
                )
            tally.failures += [
                f"{scenario.name}: {msg}"
                for msg in accounting_failures(trace, results, skips_allowed=True)
            ]
            tally.absorb(system, system.config.retailers, results)
            tally.counts["sanitizer_events"] += outcome.report.counters.get(
                "events", 0
            )


# -------------------------------------------------------------------- #
# the registry
# -------------------------------------------------------------------- #

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "paper-local",
            "150 episodes of the paper's 1000-update experiment, 2 retailers:"
            " 85% of updates take the zero-communication path, so core/sim/"
            "metrics/db.txn do the work and net little",
            150, 1000, partial(_run_episodes, setup=_paper_layout(2)),
        ),
        Workload(
            "wide-starved",
            "8 retailers share the same AV: 45% of updates run selecting/"
            "deciding/transfer, so net.transport and net.stats rise; a"
            " local-path gain shrinks here",
            20, 3000, partial(_run_episodes, setup=_paper_layout(8)),
        ),
        Workload(
            "immediate-2pc",
            "no regular items: every update is 2PC with S/X lock waits and"
            " WAL begin/commit, no AV at all; an AV-path optimisation"
            " predicts no change here",
            10, 3000,
            partial(
                _run_episodes, setup=_paper_layout(2, regular_fraction=0.0),
                # jitter 0: per-site closed streams, overlapping across sites
                open_interarrival=0.5,
            ),
        ),
        Workload(
            "scale-regional",
            "50 sites, 10^4 items, partial replication, aggregator pools:"
            " the only large working set, where setup_s, peak_rss_mb and the"
            " table kernel show",
            2, 40000,
            partial(_run_episodes, setup=_scale_setup, shared=_scale_topology),
        ),
        Workload(
            "chaos-faults",
            "six fault scenarios with observe, sanitize, reliability, leases"
            " and overload on and an open-loop surge: the only place those"
            " layers cost anything",
            1, 20000, _run_chaos_faults,
        ),
    )
}


@dataclass
class Run:
    """One executed run: the tally plus the window it was measured in."""

    workload: str
    seed: int
    scale: float
    tally: Tally
    #: host wall of set-up + driving + verification (traced window)
    wall_s: float

    @property
    def ok(self) -> bool:
        return not self.tally.failures


def execute(name: str, seed: int, scale: float, tracer=None) -> Run:
    """Run one workload once, in this process."""
    workload = WORKLOADS[name]
    tally = Tally()
    if tracer is not None:
        tracer.install()
    try:
        start = time.perf_counter()
        workload.run(workload, seed, scale, tally, tracer)
        wall = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    return Run(name, seed, scale, tally, wall)


# -------------------------------------------------------------------- #
# end-to-end metrics
# -------------------------------------------------------------------- #

def band_mean(latencies: Sequence[float], low: float = 0.98, high: float = 0.999) -> float:
    """Mean of the sample between two quantile ranks (at least one value).

    The p99 neighbourhood as one smooth number: p99 itself is quantised
    to whole round trips and flips between adjacent levels from seed to
    seed, while everything above p99.9 on ``chaos-faults`` is a handful
    of crash-window stalls whose length the fault schedule sets.
    """
    ordered = sorted(latencies)
    start = int(len(ordered) * low)
    return statistics.fmean(ordered[start:max(start + 1, int(len(ordered) * high))])


def end_to_end(run: Run, peak_rss_mb: float) -> Dict[str, float]:
    """The nine end-to-end metrics of one untraced run."""
    t = run.tally
    return {
        "updates_per_s": t.results / sum(t.drive_s),
        "setup_s": sum(t.capture_s) + sum(t.build_s),
        "peak_rss_mb": peak_rss_mb,
        "corr_per_update": t.correspondences / t.results,
        "remote_ratio": 1.0 - t.local / t.results,
        "committed_ratio": t.committed / t.trace_events,
        "sim_latency_mean": statistics.fmean(t.latencies),
        "sim_latency_p99_band": band_mean(t.latencies),
        "fairness_jain": jain_index(list(t.retailer_corr.values())),
    }


#: the subset that is simulated (exact for a seed) rather than host time
SIMULATED = (
    "corr_per_update", "remote_ratio", "committed_ratio",
    "sim_latency_mean", "sim_latency_p99_band", "fairness_jain",
)
