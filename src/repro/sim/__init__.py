"""Deterministic discrete-event simulation kernel.

The kernel is the substrate every other subsystem runs on: a virtual clock,
an event queue ordered by ``(time, priority, sequence)``, generator-driven
processes and named seeded RNG streams. What a run records (spans, the
event taps, metric instruments) lives in :mod:`repro.obs`.
"""

from repro.sim.engine import Environment
from repro.sim.errors import (
    AlreadyTriggered,
    EmptySchedule,
    Interrupt,
    SimulationError,
    StopSimulation,
)
from repro.sim.events import AllOf, AnyOf, Condition, ConditionValue, Event, Timeout
from repro.sim.process import Process
from repro.sim.rng import RngRegistry

__all__ = [
    "AllOf",
    "AlreadyTriggered",
    "AnyOf",
    "Condition",
    "ConditionValue",
    "EmptySchedule",
    "Environment",
    "Event",
    "Interrupt",
    "Process",
    "RngRegistry",
    "SimulationError",
    "StopSimulation",
    "Timeout",
]
