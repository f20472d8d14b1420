"""Deterministic subsystem profiler: where does the wall time go?

The ROADMAP's scale-out items need *attribution*, not just totals —
"fig6 runs at ~15k events/sec" says nothing about whether the engine,
the network, the AV machinery or the lock manager is the bottleneck.
This module answers that with two complementary signals:

* **Host wall-time per subsystem** — :class:`Profiler` hooks the
  kernel's event dispatch (:attr:`Environment.profile_dispatch`) and
  times every callback batch, attributing the cost to the subsystem
  that owns the resumed code. Classification is structural: a resumed
  :class:`~repro.sim.process.Process` is attributed by its generator's
  code object (``repro.core.delay_update`` → ``av``), a plain callback
  by its function's module. Code-object lookups are cached, so the
  per-event cost is two clock reads and two dict hits.
* **Sim-time per span kind** — rollups over the
  :class:`~repro.obs.spans.SpanRecorder` tree: count, cumulative and
  *self* sim-time (cumulative minus children) per kind, mapped to
  subsystems through :data:`SPAN_SUBSYSTEMS`.

The profiler is purely observational: it never schedules, never draws
randomness, and never mutates events, so a profiled run is bit-identical
to an unprofiled one (asserted by ``tests/test_profile.py`` and the CI
``profile-smoke`` job).

:data:`SPAN_SUBSYSTEMS` is also the *registry* of legal span kinds: the
``span-kind-registry`` lint rule rejects any ``recorder.start("kind",
…)`` or ``recorder.write_row(row, "kind", …)`` in ``src/`` whose kind
is not declared here, so new instrumentation cannot silently fall
outside the attribution map.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Iterable, List, Optional, Tuple

from repro.obs.spans import Span
from repro.sim.engine import Environment

#: span kind -> subsystem. THE single declaration point for span kinds;
#: extend this map when adding instrumentation (enforced by the
#: ``span-kind-registry`` lint rule).
SPAN_SUBSYSTEMS: Dict[str, str] = {
    # the update root + delay-update (AV) chain
    "update": "av",
    "read": "av",
    "av.checking": "av",
    "av.selecting": "av",
    "av.request": "av",
    "av.grant": "av",
    "av.deciding": "av",
    "av.push.apply": "av",
    "delay.apply": "av",
    # reclassification (regular <-> non-regular migration)
    "cls.regular": "av",
    "cls.nonregular": "av",
    "cls.lock": "locks",
    "cls.apply": "av",
    # AV rebalancing daemon
    "rebal.pass": "av",
    # immediate update: 2PC + lock manager
    "imm.lock": "locks",
    "imm.prepare": "locks",
    "imm.commit": "locks",
    "imm.abort": "locks",
    "imm.apply": "locks",
    # replica synchronisation (lazy sync + eager propagation)
    "sync.pass": "sync",
    "sync.push": "sync",
    "prop.push": "sync",
    "prop.apply": "sync",
}

#: module-path prefix (below ``repro/``) -> subsystem, first match wins.
#: Order matters: specific prefixes shadow their package.
MODULE_SUBSYSTEMS: Tuple[Tuple[str, str], ...] = (
    ("core/sync", "sync"),
    ("core/immediate_update", "locks"),
    ("db/", "locks"),
    ("core/", "av"),
    ("cluster/", "av"),
    ("net/", "net"),
    ("sim/", "engine"),
    ("analysis/", "sanitizer"),
    ("workload/", "workload"),
    ("experiments/", "workload"),
    ("testkit/", "workload"),
    ("metrics/", "workload"),
    ("baselines/", "baseline"),
    ("obs/", "engine"),
)

#: every subsystem the profiler can attribute to (report ordering)
SUBSYSTEMS: Tuple[str, ...] = (
    "engine", "net", "av", "locks", "sync", "sanitizer",
    "workload", "baseline", "other",
)


def subsystem_for_path(filename: str) -> str:
    """Map a source filename to its subsystem (``"other"`` if unknown)."""
    path = filename.replace("\\", "/")
    marker = "/repro/"
    pos = path.rfind(marker)
    if pos < 0:
        return "other"
    tail = path[pos + len(marker):]
    for prefix, subsystem in MODULE_SUBSYSTEMS:
        if tail.startswith(prefix):
            return subsystem
    return "other"


class Profiler:
    """Attributes kernel wall time and event counts to subsystems.

    Use as a context manager around any simulation-driving code::

        profiler = Profiler()
        with profiler:
            result = run_fig6(n_updates=200, observe=True)
        report = profiler.report(spans=result.obs.recorder)

    Activation installs the dispatch hook *class-wide* on
    :class:`~repro.sim.engine.Environment` — every environment built
    inside the ``with`` block is profiled, including baselines. Nested
    activation is rejected (one profiler owns the hook at a time).
    """

    def __init__(self) -> None:
        #: subsystem -> [event count, wall seconds]
        self._stats: Dict[str, list] = {}
        #: code object -> subsystem (memoised classification)
        self._code_cache: Dict[Any, str] = {}
        #: wall seconds spent inside Environment.run (the denominator
        #: for attribution coverage)
        self.run_wall = 0.0
        self._run_depth = 0
        #: subsystem of the event currently being stepped (set by the
        #: dispatch hook, consumed by the step timer)
        self._current = "engine"
        self._active = False
        self._saved_run = None
        self._saved_step = None

    # ---------------------------------------------------------------- #
    # activation
    # ---------------------------------------------------------------- #

    def __enter__(self) -> "Profiler":
        if Environment.profile_dispatch is not None:
            raise RuntimeError("another Profiler is already active")
        self._active = True
        Environment.profile_dispatch = self._dispatch
        self._saved_run = Environment.run
        self._saved_step = Environment.step
        profiler = self
        original_run = self._saved_run
        original_step = self._saved_step
        stats = self._stats

        def timed_run(env_self, until=None):
            # Depth guard: only the outermost call owns the window, so
            # re-entrant run() (not expected, but harmless) never
            # double-counts.
            profiler._run_depth += 1
            start = perf_counter()  # repro-lint: disable=wall-clock (profiler measures host time by design)
            try:
                return original_run(env_self, until)
            finally:
                profiler._run_depth -= 1
                if profiler._run_depth == 0:
                    profiler.run_wall += perf_counter() - start  # repro-lint: disable=wall-clock (profiler measures host time by design)

        def timed_step(env_self):
            # Times the WHOLE step — queue pop, bucket bookkeeping and
            # callback execution — and credits it to the subsystem the
            # dispatch hook classified, so queue operations count toward
            # the event that caused them. Only the run loop's
            # peek/compare overhead stays unattributed.
            profiler._current = "engine"
            start = perf_counter()  # repro-lint: disable=wall-clock (profiler measures host time by design)
            try:
                original_step(env_self)
            finally:
                elapsed = perf_counter() - start  # repro-lint: disable=wall-clock (profiler measures host time by design)
                stat = stats.get(profiler._current)
                if stat is None:
                    stat = stats[profiler._current] = [0, 0.0]
                stat[0] += 1
                stat[1] += elapsed

        Environment.run = timed_run
        Environment.step = timed_step
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        Environment.profile_dispatch = None
        if self._saved_run is not None:
            Environment.run = self._saved_run
            self._saved_run = None
        if self._saved_step is not None:
            Environment.step = self._saved_step
            self._saved_step = None
        self._active = False

    # ---------------------------------------------------------------- #
    # the hot path
    # ---------------------------------------------------------------- #

    def _dispatch(self, event, callbacks) -> None:
        """Execute an event's callbacks, classifying them on the way.

        Replaces the engine's inline callback loop (see
        ``Environment.step``); behaviour must be indistinguishable from
        it. Timing happens one level up in the step wrapper so queue
        operations are included in the attributed cost.
        """
        self._current = self._classify(event, callbacks)
        for callback in callbacks:
            callback(event)

    def _classify(self, event, callbacks) -> str:
        """Subsystem owning this event's work.

        A completed :class:`Process` is attributed to its own generator;
        otherwise the first classifiable callback wins — a bound
        ``Process._resume`` attributes to the resumed generator, a plain
        function or closure (e.g. the network's delivery lambda) to its
        defining module. Events nobody meaningful owns (bare condition
        plumbing) fall back to ``"engine"``.
        """
        generator = getattr(event, "_generator", None)
        if generator is not None:
            return self._code_subsystem(generator.gi_code)
        for callback in callbacks:
            owner = getattr(callback, "__self__", None)
            if owner is not None:
                generator = getattr(owner, "_generator", None)
                if generator is not None:
                    return self._code_subsystem(generator.gi_code)
                func = callback.__func__
            else:
                func = callback
            code = getattr(func, "__code__", None)
            if code is not None:
                return self._code_subsystem(code)
        return "engine"

    def _code_subsystem(self, code) -> str:
        try:
            return self._code_cache[code]
        except KeyError:
            subsystem = subsystem_for_path(code.co_filename)
            self._code_cache[code] = subsystem
            return subsystem

    # ---------------------------------------------------------------- #
    # results
    # ---------------------------------------------------------------- #

    @property
    def events_attributed(self) -> int:
        return sum(stat[0] for stat in self._stats.values())

    @property
    def attributed_wall(self) -> float:
        return sum(stat[1] for stat in self._stats.values())

    @property
    def coverage(self) -> float:
        """Attributed wall over run-loop wall (≈1; gap = queue ops)."""
        return self.attributed_wall / self.run_wall if self.run_wall else 0.0

    def subsystem_table(self) -> Dict[str, Dict[str, float]]:
        """Per-subsystem events / wall seconds / share of attributed wall."""
        total = self.attributed_wall
        out: Dict[str, Dict[str, float]] = {}
        for name in sorted(self._stats):
            events, wall = self._stats[name]
            out[name] = {
                "events": events,
                "wall_s": wall,
                "wall_pct": (100.0 * wall / total) if total else 0.0,
            }
        return out

    def event_counts(self) -> Dict[str, int]:
        """Deterministic part of the attribution: events per subsystem."""
        return {name: self._stats[name][0] for name in sorted(self._stats)}

    def report(
        self, spans: Optional[Iterable[Span]] = None
    ) -> Dict[str, Any]:
        """The full profile report dict (JSON-ready).

        ``wall`` quantities are host measurements and vary run to run;
        ``subsystems[*].events`` and the span rollups are pure
        simulation quantities and are identical for identical seeds.
        """
        rollup = span_rollups(spans) if spans is not None else {}
        subsystems = self.subsystem_table()
        sim_by_subsystem: Dict[str, float] = {}
        spans_by_subsystem: Dict[str, int] = {}
        for kind, row in rollup.items():
            subsystem = row["subsystem"]
            sim_by_subsystem[subsystem] = (
                sim_by_subsystem.get(subsystem, 0.0) + row["self_sim"]
            )
            spans_by_subsystem[subsystem] = (
                spans_by_subsystem.get(subsystem, 0) + row["count"]
            )
        for name, row in subsystems.items():
            row["sim_time"] = sim_by_subsystem.get(name, 0.0)
            row["spans"] = spans_by_subsystem.get(name, 0)
        hotspots = sorted(
            (
                {"name": kind, **row}
                for kind, row in rollup.items()
            ),
            key=lambda r: (-r["self_sim"], r["name"]),
        )
        return {
            "kind": "profile",
            "wall": {
                "run_s": self.run_wall,
                "attributed_s": self.attributed_wall,
                "coverage": self.coverage,
            },
            "events_attributed": self.events_attributed,
            "subsystems": subsystems,
            "span_rollups": rollup,
            "hotspots": hotspots,
        }


# -------------------------------------------------------------------- #
# span rollups & exports
# -------------------------------------------------------------------- #


def span_rollups(spans: Iterable[Span]) -> Dict[str, Dict[str, Any]]:
    """Per-kind rollup: count, cumulative and self sim-time, subsystem.

    *Self* time is a span's duration minus its children's durations
    (clamped at zero — overlapping async children can exceed the
    parent), so summing self time never double-counts a nested chain.
    """
    spans = list(spans)
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration
            )
    rollup: Dict[str, Dict[str, Any]] = {}
    for span in spans:
        row = rollup.get(span.name)
        if row is None:
            row = rollup[span.name] = {
                "subsystem": SPAN_SUBSYSTEMS.get(span.name, "other"),
                "count": 0,
                "cum_sim": 0.0,
                "self_sim": 0.0,
            }
        row["count"] += 1
        row["cum_sim"] += span.duration
        row["self_sim"] += max(
            0.0, span.duration - child_time.get(span.span_id, 0.0)
        )
    return dict(sorted(rollup.items()))


def collapsed_stacks(spans: Iterable[Span], scale: float = 1000.0) -> List[str]:
    """Flamegraph collapsed-stack lines (``a;b;c <value>``).

    Each finished span contributes its *self* sim-time (scaled to an
    integer) at the stack ``site;root;…;kind`` built from its parent
    chain. Feed the output to ``flamegraph.pl`` or speedscope's
    collapsed importer. Lines are sorted for determinism.
    """
    spans = list(spans)
    by_id: Dict[int, Span] = {s.span_id: s for s in spans}
    child_time: Dict[int, float] = {}
    for span in spans:
        if span.parent_id is not None:
            child_time[span.parent_id] = (
                child_time.get(span.parent_id, 0.0) + span.duration
            )
    weights: Dict[str, int] = {}
    for span in spans:
        self_time = max(
            0.0, span.duration - child_time.get(span.span_id, 0.0)
        )
        value = int(round(self_time * scale))
        if value <= 0:
            continue
        names: List[str] = [span.name]
        seen = {span.span_id}
        parent_id = span.parent_id
        while parent_id is not None and parent_id in by_id:
            if parent_id in seen:  # pragma: no cover - corrupt links guard
                break
            seen.add(parent_id)
            parent = by_id[parent_id]
            names.append(parent.name)
            parent_id = parent.parent_id
        stack = ";".join([span.site] + list(reversed(names)))
        weights[stack] = weights.get(stack, 0) + value
    return [f"{stack} {weight}" for stack, weight in sorted(weights.items())]


def write_collapsed_stacks(path: str, spans: Iterable[Span]) -> int:
    """Write flamegraph collapsed stacks; returns the line count."""
    lines = collapsed_stacks(spans)
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line + "\n")
    return len(lines)


def profiled_chrome_trace(spans: Iterable[Span]) -> List[Dict[str, Any]]:
    """Chrome trace events enriched with subsystem categories.

    Same layout as :func:`repro.obs.export.chrome_trace_events` (sites
    as threads, spans as complete events) but ``cat`` carries the
    subsystem so Perfetto can filter/colour by attribution, and ``args``
    keeps the trace id for chain search.
    """
    from repro.obs.export import chrome_trace_events

    events = chrome_trace_events(spans)
    for event in events:
        if event.get("ph") != "X":
            continue
        subsystem = SPAN_SUBSYSTEMS.get(event["name"], "other")
        event["cat"] = subsystem
        event["args"]["subsystem"] = subsystem
    return events


def write_profiled_chrome_trace(path: str, spans: Iterable[Span]) -> dict:
    """Write the subsystem-enriched Chrome trace; returns the document."""
    import json

    from repro.obs.export import SIM_UNIT_US

    document = {
        "traceEvents": profiled_chrome_trace(spans),
        "displayTimeUnit": "ms",
        "otherData": {
            "exporter": "repro.obs.profile",
            "sim_unit_us": SIM_UNIT_US,
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh)
    return document
