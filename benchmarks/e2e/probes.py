"""Layer probes: the unit cost of one call into each layer, in isolation.

Each probe times ``CALLS`` calls of one layer's public function with
nothing else running, so the traced budget reads as *unit cost × exact
count* — in particular ``sim.process`` machinery (spawn + first resume +
completion) is separable from the protocol bodies it resumes, which the
traced run can only time together when no boundary wraps the generator.
"""

from __future__ import annotations

import time
from typing import Callable, Dict

#: calls timed per probe (each probe runs for roughly 0.05-0.3 s)
CALLS = 100_000


def _ns_per_call(timed_loop: Callable[[], None], calls: int = CALLS) -> float:
    start = time.perf_counter_ns()
    timed_loop()
    return (time.perf_counter_ns() - start) / calls


def sim_schedule_step() -> float:
    """Schedule one zero-delay event and step it."""
    from repro.sim.engine import Environment
    from repro.sim.events import Event

    env = Environment()

    def loop():
        schedule, step = env.schedule, env.step
        for _ in range(CALLS):
            schedule(Event(env))
            step()

    return _ns_per_call(loop)


def sim_process_spawn() -> float:
    """Spawn a process whose generator returns at once, and run it."""
    from repro.sim.engine import Environment

    env = Environment()

    def body():
        return None
        yield  # pragma: no cover - makes this a generator function

    def loop():
        process, run = env.process, env.run
        for _ in range(CALLS):
            process(body())
            run()

    return _ns_per_call(loop)


def net_roundtrip() -> float:
    """One request/reply pair between two endpoints, latency 1.0."""
    from repro.net.network import Network
    from repro.sim.engine import Environment
    from repro.sim.rng import RngRegistry

    calls = CALLS // 5
    env = Environment()
    network = Network(env, rng=RngRegistry(0).stream("net.latency"))
    client, server = network.endpoint("a"), network.endpoint("b")
    server.on("ping", lambda msg: msg.payload)

    def pinger():
        for i in range(calls):
            yield client.request("b", "ping", i)

    def loop():
        env.process(pinger())
        env.run()

    return _ns_per_call(loop, calls)


def db_apply_atomic() -> float:
    """One fused single-delta transaction (WAL + store)."""
    from repro.core.columns import make_store
    from repro.db.transaction import TransactionManager

    store = make_store("probe")
    store.insert("item", 0.0)
    txns = TransactionManager(store)

    def loop():
        apply_atomic = txns.apply_atomic
        for _ in range(CALLS):
            apply_atomic("item", 1.0, force=True)

    return _ns_per_call(loop)


def core_av_take() -> float:
    """One covered AV take on the active kernel's table."""
    from repro.core.columns import make_av_table

    table = make_av_table("probe")
    table.define("item", float(CALLS))

    def loop():
        take = table.take_if_covered
        for _ in range(CALLS):
            take("item", 1.0)

    return _ns_per_call(loop)


def metrics_record() -> float:
    """Record one committed local update."""
    from repro.core.types import UpdateKind, UpdateOutcome, UpdateRequest, UpdateResult
    from repro.metrics.collector import MetricsCollector

    collector = MetricsCollector()
    collector.ledger.set_initial("item", 0.0)
    result = UpdateResult(
        request=UpdateRequest("site1", "item", 1.0, request_id=1),
        kind=UpdateKind.DELAY,
        outcome=UpdateOutcome.COMMITTED,
        local_only=True,
    )

    def loop():
        record = collector.record
        for _ in range(CALLS):
            record(result)

    return _ns_per_call(loop)


def obs_null_span() -> float:
    """Open and finish one span on the disabled hub."""
    from repro.obs.hub import NULL_OBS

    recorder = NULL_OBS.recorder

    def loop():
        start = recorder.start
        for _ in range(CALLS):
            start("probe", "site1", 0.0).finish(0.0)

    return _ns_per_call(loop)


PROBES: Dict[str, Callable[[], float]] = {
    "probe.sim_schedule_step_ns": sim_schedule_step,
    "probe.sim_process_spawn_ns": sim_process_spawn,
    "probe.net_roundtrip_ns": net_roundtrip,
    "probe.db_apply_atomic_ns": db_apply_atomic,
    "probe.core_av_take_ns": core_av_take,
    "probe.metrics_record_ns": metrics_record,
    "probe.obs_null_span_ns": obs_null_span,
}


def run_probes() -> Dict[str, float]:
    return {name: probe() for name, probe in PROBES.items()}
