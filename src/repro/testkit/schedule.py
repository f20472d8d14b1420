"""Fuzz cases: complete, replayable schedule descriptions.

A :class:`FuzzCase` freezes everything a run depends on — system seed,
workload ops, fault schedule, perturbation vector and topology shape —
as plain data. Frozen-tuple fields make cases hashable (the shrinker
memoises on them) and ``to_dict``/``from_dict`` round-trip through
canonical JSON, which is what makes repro artifacts replayable
byte-for-byte on any host.

:func:`make_case` is the generator: a pure function of
``(root_seed, index)`` that mutates the paper's §4 workload (demand
spikes, retargeted ops, duplicate bursts), draws fault motifs
(crash/recover, partition/heal, loss windows, link cuts) and picks a
perturbation vector. All randomness comes from one
:class:`numpy.random.Generator` seeded by SeedSequence, so the same
coordinates always produce the same case on every platform.
"""

from __future__ import annotations

import zlib
from dataclasses import asdict, dataclass, replace
from typing import Dict, Tuple

import numpy as np

from repro.cluster.catalog import item_ids
from repro.net.faults import FaultSchedule
from repro.perf.grids import derive_seed

#: artifact/case format tag (bump on incompatible field changes)
CASE_FORMAT = "repro-fuzz-case/1"


def _freeze(value):
    """Lists (JSON) -> tuples (hashable case fields), recursively."""
    if isinstance(value, list):
        return tuple(_freeze(v) for v in value)
    return value


def _thaw(value):
    """Tuples -> lists, recursively (for JSON serialisation)."""
    if isinstance(value, tuple):
        return [_thaw(v) for v in value]
    return value


@dataclass(frozen=True)
class FuzzCase:
    """One fully-determined fuzz run.

    Attributes
    ----------
    seed:
        Root seed for every RNG stream inside the simulated system.
    ops:
        Workload as ``(site, item, delta)`` triples, interleaved in
        issue order (split per site by the runner).
    faults:
        Fault schedule as :meth:`FaultSchedule.to_specs` triples
        ``(time, action, args)``.
    latency_amp, timer_amp, perturb_seed:
        The perturbation vector (see :class:`repro.testkit.perturb.Perturbation`);
        amplitudes are relative jitter in ``[0, 1)``.
    n_items, n_retailers, initial_stock:
        Topology/catalogue shape.
    interarrival, horizon, settle, sync_interval:
        Run-shape timings, handed to the one faulted-run harness
        (:func:`repro.experiments.chaos.run_faulted`).
    reliability:
        Run with the robustness layer on (the default; without it,
        conservative in-transit loss is legal and the conservation
        oracle only checks the ``<=`` bound).
    inject:
        TEST-ONLY planted-bug name (see ``SystemConfig.inject``).
    overload:
        Surge case: the overload layer is attached (tight budgets), the
        runner issues arrivals open-loop, and the end-state oracles
        additionally demand the degradation ring settled back at NORMAL
        with every shed observably rejected.
    topology:
        Scale-out case: a :func:`repro.cluster.topology.Topology.parse`
        spec (e.g. ``"regional:2x3:s2"``). Empty string = the flat
        paper layout (``n_retailers`` applies). When set, every op is
        retargeted inside its item's interest set and the fault
        vocabulary includes aggregator crash motifs.
    """

    seed: int
    ops: Tuple[Tuple[str, str, float], ...]
    faults: Tuple[tuple, ...] = ()
    latency_amp: float = 0.0
    timer_amp: float = 0.0
    perturb_seed: int = 0
    n_items: int = 4
    n_retailers: int = 2
    initial_stock: float = 100.0
    interarrival: float = 3.0
    horizon: float = 240.0
    settle: float = 160.0
    sync_interval: float = 25.0
    reliability: bool = True
    inject: str = ""
    overload: bool = False
    topology: str = ""

    def __post_init__(self) -> None:
        if not 0.0 <= self.latency_amp < 1.0:
            raise ValueError(f"latency_amp {self.latency_amp} not in [0, 1)")
        if not 0.0 <= self.timer_amp < 1.0:
            raise ValueError(f"timer_amp {self.timer_amp} not in [0, 1)")

    # ------------------------------------------------------------- #
    # serialisation
    # ------------------------------------------------------------- #

    def to_dict(self) -> Dict:
        data = asdict(self)
        data["ops"] = _thaw(self.ops)
        data["faults"] = _thaw(self.faults)
        data["format"] = CASE_FORMAT
        return data

    @classmethod
    def from_dict(cls, data: Dict) -> "FuzzCase":
        data = dict(data)
        fmt = data.pop("format", CASE_FORMAT)
        if fmt != CASE_FORMAT:
            raise ValueError(f"unsupported case format {fmt!r}")
        data["ops"] = _freeze(data.get("ops", []))
        data["faults"] = _freeze(data.get("faults", []))
        return cls(**data)

    # ------------------------------------------------------------- #
    # derived views
    # ------------------------------------------------------------- #

    @property
    def site_names(self) -> list:
        if self.topology:
            from repro.cluster.topology import Topology

            return list(Topology.parse(self.topology, self.item_names).names)
        return [f"site{i}" for i in range(self.n_retailers + 1)]

    @property
    def item_names(self) -> list:
        return item_ids(self.n_items)

    def fault_schedule(self) -> FaultSchedule:
        return FaultSchedule.from_specs(_thaw(self.faults))

    def with_(self, **changes) -> "FuzzCase":
        """A copy with fields replaced (shrinker convenience)."""
        return replace(self, **changes)


# ----------------------------------------------------------------- #
# generation
# ----------------------------------------------------------------- #

def _mutation_rng(root_seed: int, index: int) -> np.random.Generator:
    seq = np.random.SeedSequence(
        [int(root_seed), zlib.crc32(b"fuzz.mutate"), int(index)]
    )
    # Mutation decisions are campaign-level (root seed + index), made
    # before any system exists — no RngRegistry to derive from.
    return np.random.default_rng(seq)  # repro-lint: disable=seeded-rng (campaign-coordinate stream, no system registry yet)


def _mutate_ops(trace, sites, retailers, mut) -> Tuple[Tuple[str, str, float], ...]:
    """Perturb the paper workload into an adversarial op stream."""
    ops = []
    for event in trace:
        site, item, delta = event.site, event.item, float(event.delta)
        roll = float(mut.random())
        if roll < 0.12:
            # Demand spike: scaled decrements exhaust local AV and force
            # cross-site transfers even in very short (shrunk) traces.
            delta *= float(mut.integers(2, 6))
        elif roll < 0.18 and delta < 0 and len(retailers) > 1:
            # Retarget a decrement to a different retailer (sign stays
            # site-appropriate: only the maker mints).
            site = retailers[int(mut.integers(0, len(retailers)))]
        ops.append((site, item, delta))
        if float(mut.random()) < 0.06:
            # Duplicate burst: same op twice back-to-back.
            ops.append((site, item, delta))
    return tuple(ops)


def _surge_ops(ops, retailers, mut) -> Tuple[Tuple[str, str, float], ...]:
    """Splice a flash-sale burst into the op stream (surge cases).

    A run of consecutive unit decrements against one hot item from one
    site — issued open-loop by the runner, so the burst arrives at the
    interarrival rate regardless of completion and it is the system's
    admission control, not the driver, that has to bound concurrency.
    """
    items = sorted({item for _site, item, _delta in ops})
    hot = items[int(mut.integers(0, len(items)))]
    site = retailers[int(mut.integers(0, len(retailers)))]
    burst = int(mut.integers(30, 81))
    pos = int(mut.integers(0, len(ops) + 1))
    burst_ops = tuple((site, hot, -1.0) for _ in range(burst))
    return ops[:pos] + burst_ops + ops[pos:]


def _draw_faults(sites, horizon, mut) -> FaultSchedule:
    """0-2 fault motifs with randomized victims, windows and rates."""
    schedule = FaultSchedule()
    for _ in range(int(mut.integers(0, 3))):
        kind = ("crash", "partition", "drop", "link")[int(mut.integers(0, 4))]
        start = round(float(mut.uniform(20.0, horizon * 0.6)), 3)
        duration = round(float(mut.uniform(20.0, 100.0)), 3)
        if kind == "crash":
            victim = sites[int(mut.integers(0, len(sites)))]
            schedule.crash(start, victim).recover(start + duration, victim)
        elif kind == "partition":
            cut = int(mut.integers(1, len(sites)))
            schedule.partition(start, sites[:cut], sites[cut:])
            schedule.heal(start + duration)
        elif kind == "drop":
            rate = round(float(mut.uniform(0.02, 0.2)), 3)
            schedule.drop(start, rate).drop(start + duration, 0.0)
        else:
            peer = sites[1 + int(mut.integers(0, len(sites) - 1))]
            schedule.link_down(start, sites[0], peer)
            schedule.link_up(start + duration, sites[0], peer)
    return schedule


def _draw_topology(n_items: int, mut) -> str:
    """A random small region tree (the topology mutation vocabulary)."""
    if float(mut.random()) < 0.35:
        regions = int(mut.integers(1, 3))
        subs = int(mut.integers(1, 3))
        leaves = int(mut.integers(1, 3))
        spread = int(mut.integers(1, 3))
        return f"deep:{regions}x{subs}x{leaves}:s{spread}"
    regions = int(mut.integers(1, 4))
    leaves = int(mut.integers(1, 4))
    spread = int(mut.integers(1, 3))
    return f"regional:{regions}x{leaves}:s{spread}"


def _retarget_into_interest(ops, topology, mut):
    """Interest-set churn: re-home every op inside its item's replicas.

    Ops were drawn against the flat paper layout; under a topology a
    site may only update items it replicates, so each decrement is
    retargeted to a random *leaf* in the item's interest set (the
    maker's mints already land in every set). The churn — consecutive
    decrements of one item hopping between its leaves — is exactly what
    stresses pool grants, owed-balance routing, and belief staleness.
    """
    retargeted = []
    for site, item, delta in ops:
        if site != topology.maker:
            leaves = [
                s
                for s in topology.sites_for(item)
                if topology.role_of(s) == "retailer"
            ]
            site = leaves[int(mut.integers(0, len(leaves)))]
        retargeted.append((site, item, delta))
    return tuple(retargeted)


def _draw_topology_faults(topology, horizon, mut) -> FaultSchedule:
    """Fault motifs over a region tree, biased toward aggregators.

    An aggregator mid-crash is the scale-out-specific hazard: leaves
    below it lose their pool and must fall back to the believed-richest
    strategy, and its own pooled AV must survive the restart.
    """
    schedule = FaultSchedule()
    names = list(topology.names)
    aggregators = [n for n in names if topology.role_of(n) == "aggregator"]
    for _ in range(int(mut.integers(0, 3))):
        start = round(float(mut.uniform(20.0, horizon * 0.6)), 3)
        duration = round(float(mut.uniform(20.0, 100.0)), 3)
        roll = float(mut.random())
        if aggregators and roll < 0.5:
            victim = aggregators[int(mut.integers(0, len(aggregators)))]
            schedule.crash(start, victim).recover(start + duration, victim)
        elif roll < 0.75:
            victim = names[int(mut.integers(0, len(names)))]
            schedule.crash(start, victim).recover(start + duration, victim)
        else:
            rate = round(float(mut.uniform(0.02, 0.15)), 3)
            schedule.drop(start, rate).drop(start + duration, 0.0)
    return schedule


def make_case(
    root_seed: int,
    index: int,
    n_ops: int = 36,
    inject: str = "",
) -> FuzzCase:
    """Derive fuzz case ``index`` of the campaign rooted at ``root_seed``.

    Pure: the same coordinates always yield the same case, which is what
    lets the sharded campaign regenerate a case anywhere and what makes
    ``--replay`` meaningful.
    """
    from repro.experiments.fig6 import make_paper_trace

    mut = _mutation_rng(root_seed, index)
    seed = derive_seed(root_seed, "fuzz.case", index)
    perturb_seed = derive_seed(root_seed, "fuzz.perturb", index)

    n_retailers = int(mut.integers(2, 4))
    n_items = int(mut.integers(3, 7))
    sites = [f"site{i}" for i in range(n_retailers + 1)]
    retailers = sites[1:]

    trace = make_paper_trace(
        n_ops, seed, n_items=n_items, n_retailers=n_retailers
    )
    ops = _mutate_ops(trace, sites, retailers, mut)

    horizon = 240.0
    faults = _draw_faults(sites, horizon, mut)
    latency_amp = float(mut.choice([0.0, 0.3, 0.6, 0.9]))
    timer_amp = float(mut.choice([0.0, 0.2, 0.5]))
    interarrival = round(float(mut.uniform(2.0, 5.0)), 3)
    sync_interval = float(mut.choice([15.0, 25.0, 40.0]))

    # The surge roll consumes the stream last among the original draws,
    # so pre-existing campaign coordinates keep producing byte-identical
    # cases; the topology draws below extend the stream strictly after.
    overload = bool(mut.random() < 0.2)
    if overload:
        # Demotion (make_regular) is not fault-tolerant by design; in a
        # surge case the workload is the adversary, the network stays
        # healthy. Arrivals are dense — a flash sale, not a drizzle —
        # so the open-loop burst actually outpaces completion.
        faults = FaultSchedule()
        ops = _surge_ops(ops, retailers, mut)
        interarrival = round(float(mut.uniform(0.2, 1.0)), 3)

    # Scale-out cases: re-lay the cluster as a random region tree,
    # re-home ops inside interest sets, and redraw faults with the
    # aggregator-crash motif. Skipped for surge cases (the overload
    # oracles assume the flat layout's believed-richest flow).
    topology = ""
    if not overload and float(mut.random()) < 0.30:
        from repro.cluster.topology import Topology

        topology = _draw_topology(n_items, mut)
        topo = Topology.parse(topology, item_ids(n_items))
        ops = _retarget_into_interest(ops, topo, mut)
        faults = _draw_topology_faults(topo, horizon, mut)

    return FuzzCase(
        seed=seed,
        ops=ops,
        faults=_freeze(faults.to_specs()),
        latency_amp=latency_amp,
        timer_amp=timer_amp,
        perturb_seed=perturb_seed,
        n_items=n_items,
        n_retailers=n_retailers,
        interarrival=interarrival,
        horizon=horizon,
        settle=160.0,
        sync_interval=sync_interval,
        inject=inject,
        overload=overload,
        topology=topology,
    )
