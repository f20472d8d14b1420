"""Fault injection for the simulated network.

The paper claims the autonomous approach keeps retailers operating through
maker failures ("fault tolerance"). :class:`FaultInjector` provides the
three fault classes the experiments use:

* **site crash** — a crashed endpoint neither sends nor receives (the
  network's half of the fail-stop ``Site.crash``);
* **network partition** — messages crossing partition groups are dropped;
* **probabilistic message loss** — per-message Bernoulli drop, globally
  or per directed link (overrides the global rate);
* **link outage** — a directed link drops everything (flapping links
  alternate outage and service).

All methods may be called mid-simulation; effects apply to messages sent
after the call (in-flight messages are delivered — links have memory).

:class:`FaultSchedule` is the declarative layer on top: a builder of
timed fault steps (crash/recover/partition/heal/drop-rate/link faults)
installed as one simulation process, replacing ad-hoc per-experiment
crasher generators; its crash and recover steps go through the system's
sites.
"""

from __future__ import annotations

import copy as _copy
from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


class FaultInjector:
    """Mutable fault state consulted by the network on every send."""

    def __init__(
        self,
        rng: Optional[np.random.Generator] = None,
        drop_probability: float = 0.0,
    ) -> None:
        if not 0.0 <= drop_probability <= 1.0:
            raise ValueError(f"drop_probability {drop_probability} not in [0, 1]")
        self._crashed: set[str] = set()
        self._partition: Optional[dict[str, int]] = None
        self._drop_probability = drop_probability
        #: per-directed-link drop probability, overriding the global rate
        self._link_drop: dict[tuple[str, str], float] = {}
        #: directed links currently down (flapping, cable pulls)
        self._down_links: set[tuple[str, str]] = set()
        self._rng = rng
        #: counters for reporting
        self.crashes_injected = 0
        self.messages_dropped = 0
        #: no fault of any kind active — senders may skip the per-message
        #: drop verdict entirely. Maintained by every mutator (a plain
        #: attribute, not a property: it is read once per message).
        self.quiet = drop_probability == 0.0

    def _refresh_quiet(self) -> None:
        self.quiet = not (
            self._crashed
            or self._partition is not None
            or self._down_links
            or self._link_drop
            or self._drop_probability > 0.0
        )

    @property
    def drop_probability(self) -> float:
        """Global Bernoulli loss rate (assignment keeps ``quiet`` honest)."""
        return self._drop_probability

    @drop_probability.setter
    def drop_probability(self, probability: float) -> None:
        self._drop_probability = probability
        self._refresh_quiet()

    # ---------------------------------------------------------------- #
    # crash / recover
    # ---------------------------------------------------------------- #

    def crash(self, site: str) -> None:
        """Mark ``site`` as crashed (idempotent)."""
        if site not in self._crashed:
            self._crashed.add(site)
            self.crashes_injected += 1
            self.quiet = False

    def recover(self, site: str) -> None:
        """Bring ``site`` back (idempotent)."""
        self._crashed.discard(site)
        self._refresh_quiet()

    def is_crashed(self, site: str) -> bool:
        return site in self._crashed

    @property
    def any_crashed(self) -> bool:
        """Whether any site is currently down (cheap hot-path gate)."""
        return bool(self._crashed)

    @property
    def crashed_sites(self) -> frozenset[str]:
        return frozenset(self._crashed)

    # ---------------------------------------------------------------- #
    # partitions
    # ---------------------------------------------------------------- #

    def partition(self, groups: Iterable[Iterable[str]]) -> None:
        """Split the network into isolated groups.

        Sites not mentioned in any group form an implicit extra group
        together (group index ``-1``).
        """
        mapping: dict[str, int] = {}
        for idx, group in enumerate(groups):
            for site in group:
                if site in mapping:
                    raise ValueError(f"site {site!r} listed in two groups")
                mapping[site] = idx
        self._partition = mapping
        self.quiet = False

    def heal(self) -> None:
        """Remove any partition."""
        self._partition = None
        self._refresh_quiet()

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def same_partition(self, a: str, b: str) -> bool:
        if self._partition is None:
            return True
        return self._partition.get(a, -1) == self._partition.get(b, -1)

    # ---------------------------------------------------------------- #
    # link faults
    # ---------------------------------------------------------------- #

    def set_drop_probability(self, probability: float) -> None:
        """Change the global Bernoulli loss rate mid-run."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"drop_probability {probability} not in [0, 1]")
        self.drop_probability = probability  # property setter refreshes quiet

    def set_link_drop(self, src: str, dst: str, probability: float) -> None:
        """Override the loss rate of the directed ``src → dst`` link."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"link drop {probability} not in [0, 1]")
        self._link_drop[(src, dst)] = probability
        self._refresh_quiet()

    def clear_link_drop(self, src: str, dst: str) -> None:
        """Remove a per-link override; the global rate applies again."""
        self._link_drop.pop((src, dst), None)
        self._refresh_quiet()

    def link_down(self, src: str, dst: str) -> None:
        """Take the directed ``src → dst`` link down (idempotent)."""
        self._down_links.add((src, dst))
        self.quiet = False

    def link_up(self, src: str, dst: str) -> None:
        """Restore a downed link (idempotent)."""
        self._down_links.discard((src, dst))
        self._refresh_quiet()

    def clear_link_faults(self) -> None:
        """Drop every per-link override and outage (chaos heal phase)."""
        self._link_drop.clear()
        self._down_links.clear()
        self._refresh_quiet()

    def link_is_down(self, src: str, dst: str) -> bool:
        return (src, dst) in self._down_links

    # ---------------------------------------------------------------- #
    # verdict
    # ---------------------------------------------------------------- #

    def should_drop(self, src: str, dst: str) -> bool:
        """Decide whether a message from ``src`` to ``dst`` is lost now."""
        if src in self._crashed or dst in self._crashed:
            self.messages_dropped += 1
            return True
        if not self.same_partition(src, dst):
            self.messages_dropped += 1
            return True
        if (src, dst) in self._down_links:
            self.messages_dropped += 1
            return True
        probability = self._link_drop.get((src, dst), self._drop_probability)
        if probability > 0.0:
            if self._rng is None:
                raise RuntimeError(
                    "drop_probability > 0 requires an rng at construction"
                )
            if self._rng.random() < probability:
                self.messages_dropped += 1
                return True
        return False

    def __repr__(self) -> str:
        return (
            f"<FaultInjector crashed={sorted(self._crashed)}"
            f" partitioned={self.partitioned}"
            f" p_drop={self.drop_probability}"
            f" link_faults={len(self._link_drop) + len(self._down_links)}>"
        )


@dataclass(frozen=True)
class FaultStep:
    """One timed action in a :class:`FaultSchedule`."""

    time: float
    action: str
    args: tuple

    def __str__(self) -> str:
        inner = ", ".join(repr(a) for a in self.args)
        return f"t={self.time:g} {self.action}({inner})"


class FaultSchedule:
    """Declarative, timed fault scenario.

    A chainable builder: each method appends a step, ``install`` spawns
    one process that sleeps between steps and applies them in time order
    (insertion order breaks ties). A crash step crashes the site
    (``system.crash``: fail-stop), a recover step restarts it
    (``system.restart``: crash recovery and rejoin).

    >>> schedule = (FaultSchedule()
    ...             .crash(100.0, "site0")
    ...             .recover(400.0, "site0")
    ...             .drop(0.0, 0.05))
    """

    def __init__(self) -> None:
        self._steps: list[FaultStep] = []

    # -- builders ---------------------------------------------------- #

    def _add(self, time: float, action: str, *args) -> "FaultSchedule":
        if time < 0:
            raise ValueError(f"negative step time {time}")
        self._steps.append(FaultStep(time, action, args))
        return self

    def crash(self, time: float, site: str) -> "FaultSchedule":
        return self._add(time, "crash", site)

    def recover(self, time: float, site: str) -> "FaultSchedule":
        """Restart ``site`` (``system.restart``)."""
        return self._add(time, "recover", site)

    def partition(self, time: float, *groups: Iterable[str]) -> "FaultSchedule":
        return self._add(time, "partition", tuple(tuple(g) for g in groups))

    def heal(self, time: float) -> "FaultSchedule":
        return self._add(time, "heal")

    def drop(self, time: float, probability: float) -> "FaultSchedule":
        """Set the global loss rate at ``time``."""
        return self._add(time, "drop", probability)

    def link_drop(
        self, time: float, src: str, dst: str, probability: Optional[float]
    ) -> "FaultSchedule":
        """Override one directed link's loss rate (``None`` clears it)."""
        return self._add(time, "link_drop", src, dst, probability)

    def link_down(self, time: float, src: str, dst: str) -> "FaultSchedule":
        return self._add(time, "link_down", src, dst)

    def link_up(self, time: float, src: str, dst: str) -> "FaultSchedule":
        return self._add(time, "link_up", src, dst)

    def flap(
        self,
        src: str,
        dst: str,
        start: float,
        end: float,
        period: float,
        both_ways: bool = True,
    ) -> "FaultSchedule":
        """Alternate link outage/service every ``period/2`` in a window.

        Expands into explicit down/up steps and always ends with the
        link up at ``end``.
        """
        if period <= 0:
            raise ValueError("flap period must be positive")
        if end <= start:
            raise ValueError("flap window must have positive length")
        t = start
        down = True
        while t < end:
            action = "link_down" if down else "link_up"
            self._add(t, action, src, dst)
            if both_ways:
                self._add(t, action, dst, src)
            down = not down
            t += period / 2.0
        self._add(end, "link_up", src, dst)
        if both_ways:
            self._add(end, "link_up", dst, src)
        return self

    # -- inspection --------------------------------------------------- #

    @property
    def steps(self) -> list[FaultStep]:
        """Steps in application order (time, then insertion order)."""
        return sorted(self._steps, key=lambda s: s.time)

    def copy(self) -> "FaultSchedule":
        """An independent deep copy (mutation-safe for fuzzing).

        The fuzzer mutates schedules between runs; sharing step storage
        across tasks would let one task's mutation silently rewrite
        another task's scenario.
        """
        clone = FaultSchedule()
        clone._steps = _copy.deepcopy(self._steps)
        return clone

    def to_specs(self) -> list:
        """Plain-data form ``[[time, action, [args...]], ...]``.

        JSON-serialisable (tuples become lists); :meth:`from_specs`
        round-trips it. Steps are listed in application order.
        """

        def plain(value):
            if isinstance(value, tuple):
                return [plain(v) for v in value]
            return value

        return [[s.time, s.action, plain(list(s.args))] for s in self.steps]

    @classmethod
    def from_specs(cls, specs: Iterable) -> "FaultSchedule":
        """Rebuild a schedule written by :meth:`to_specs`.

        Nested lists (partition groups) are re-frozen to tuples so the
        rebuilt steps compare equal to the originals.
        """

        def frozen(value):
            if isinstance(value, list):
                return tuple(frozen(v) for v in value)
            return value

        schedule = cls()
        for time, action, args in specs:
            schedule._add(float(time), str(action), *[frozen(a) for a in args])
        return schedule

    @property
    def last_time(self) -> float:
        """Time of the final step (0.0 for an empty schedule)."""
        return max((s.time for s in self._steps), default=0.0)

    def __len__(self) -> int:
        return len(self._steps)

    # -- execution ---------------------------------------------------- #

    def install(self, system):
        """Spawn the process that applies the steps to ``system`` (its
        ``network`` and its ``crash(site)`` / ``restart(site)``); returns
        it. The steps are deep-copied now: mutating the builder later
        (the fuzzer does, between runs) cannot alias a running schedule.
        """
        steps = _copy.deepcopy(self.steps)
        env = system.env

        def runner():
            for step in steps:
                if step.time > env.now:
                    yield env.timeout(step.time - env.now)
                self._apply(step, system)

        return env.process(runner(), owner=None)

    @staticmethod
    def _apply(step: FaultStep, system) -> None:
        faults = system.network.faults
        args = step.args
        if step.action == "link_drop" and args[2] is None:
            faults.clear_link_drop(*args[:2])
            return
        # The builder methods are the only writers of step actions.
        {
            "crash": system.crash,
            "recover": system.restart,
            "partition": faults.partition,
            "heal": faults.heal,
            "drop": faults.set_drop_probability,
            "link_drop": faults.set_link_drop,
            "link_down": faults.link_down,
            "link_up": faults.link_up,
        }[step.action](*args)

    def __repr__(self) -> str:
        return f"<FaultSchedule {len(self._steps)} steps last_t={self.last_time:g}>"
