"""Unit tests for the discrete-event engine (clock, queue, run modes)."""

import pytest

from repro.sim import EmptySchedule, Environment, Event


def test_clock_starts_at_initial_time():
    assert Environment().now == 0.0
    assert Environment(initial_time=7.5).now == 7.5


def test_timeout_advances_clock():
    env = Environment()
    env.timeout(5)
    env.run()
    assert env.now == 5


def test_run_until_time_stops_clock_exactly():
    env = Environment()
    env.timeout(10)
    env.run(until=4)
    assert env.now == 4


def test_run_until_time_processes_events_at_boundary():
    env = Environment()
    seen = []

    def proc(env):
        yield env.timeout(4)
        seen.append(env.now)

    env.process(proc(env))
    env.run(until=4)
    assert seen == [4]


def test_run_until_before_now_rejected():
    env = Environment(initial_time=10)
    with pytest.raises(ValueError):
        env.run(until=5)


def test_run_until_event_returns_its_value():
    env = Environment()

    def proc(env):
        yield env.timeout(3)
        return "done"

    p = env.process(proc(env))
    assert env.run(until=p) == "done"
    assert env.now == 3


def test_run_until_already_processed_event():
    env = Environment()
    ev = env.event()
    ev.succeed(11)
    env.run()
    assert env.run(until=ev) == 11


def test_run_until_never_triggered_event_raises():
    env = Environment()
    ev = env.event()  # never triggered
    env.timeout(1)
    with pytest.raises(RuntimeError, match="never triggered"):
        env.run(until=ev)


def test_step_on_empty_queue_raises():
    with pytest.raises(EmptySchedule):
        Environment().step()


def test_peek_reports_next_event_time():
    env = Environment()
    assert env.peek() == float("inf")
    env.timeout(2.5)
    assert env.peek() == 2.5


def test_negative_delay_rejected():
    env = Environment()
    with pytest.raises(ValueError):
        env.timeout(-1)
    with pytest.raises(ValueError):
        env.schedule(Event(env), delay=-0.5)


NAN = float("nan")


def test_nan_delay_rejected():
    """NaN passes a ``delay < 0`` test (every comparison with it is
    false); queued, it broke the heap's order and the clock ran
    backwards: processes waiting ``timeout(5)``, ``timeout(nan)``,
    ``timeout(1)``, ``timeout(2)`` and ``timeout(3)``, started in that
    order, logged the clock as ``1.0, 3.0, 2.0, nan, 5.0``."""
    env = Environment()
    with pytest.raises(ValueError, match="NaN"):
        env.timeout(NAN)
    with pytest.raises(ValueError, match="NaN"):
        env.schedule(Event(env), delay=NAN)
    assert env.peek() == float("inf")  # nothing was queued
    clock = []

    def waiter(delay):
        yield env.timeout(delay)
        clock.append(env.now)

    for delay in (5, 1, 2, 3):
        env.process(waiter(delay))
    env.run()
    assert clock == [1, 2, 3, 5]


def test_perturbation_producing_nan_rejected():
    env = Environment()
    env.perturb = lambda event, priority, delay: NAN
    with pytest.raises(ValueError, match="NaN"):
        env.schedule(Event(env), delay=1.0)
    assert env.peek() == float("inf")
    env.schedule(Event(env), delay=0.0)  # zero-delay events are exempt
    env.run()
    assert env.now == 0.0


def test_run_until_nan_rejected():
    env = Environment()
    env.timeout(1)
    with pytest.raises(ValueError):
        env.run(until=NAN)
    env.run()
    assert env.now == 1


def test_events_fire_in_time_order():
    env = Environment()
    order = []

    def waiter(env, delay):
        yield env.timeout(delay)
        order.append(delay)

    for d in [5, 1, 3, 2, 4]:
        env.process(waiter(env, d))
    env.run()
    assert order == [1, 2, 3, 4, 5]


def test_fifo_among_simultaneous_events():
    env = Environment()
    order = []

    def waiter(env, tag):
        yield env.timeout(1)
        order.append(tag)

    for tag in "abcde":
        env.process(waiter(env, tag))
    env.run()
    assert order == list("abcde")


def test_unhandled_failure_crashes_run():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        env.run()


def test_defused_failure_does_not_crash():
    env = Environment()
    ev = env.event()
    ev.fail(RuntimeError("boom"))
    ev.defuse()
    env.run()  # no raise


def test_events_processed_counter():
    env = Environment()
    env.timeout(1)
    env.timeout(2)
    env.run()
    assert env.events_processed == 2


def _collections_during(fn):
    """Run ``fn`` and return the generations collected while it ran."""
    import gc

    seen = []

    def on_gc(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(on_gc)
    try:
        fn()
    finally:
        gc.callbacks.remove(on_gc)
    return seen


def test_collect_young_after_defers_collection_to_one_young_pass():
    import gc

    from repro.sim.engine import collect_young_after

    inside = []

    @collect_young_after
    def allocate():
        inside.append(gc.isenabled())
        inside.append(_collections_during(lambda: [[i] for i in range(20_000)]))
        return "built"

    assert gc.isenabled()
    seen = _collections_during(lambda: inside.append(allocate()))
    # 20 000 survivors would trigger ~28 automatic collections; none ran
    # during the pass, and the pass ended with one young collection.
    assert inside == [False, [], "built"]
    assert seen == [0]
    assert gc.isenabled()


def test_collect_young_after_respects_a_caller_that_has_gc_off():
    import gc

    from repro.sim.engine import collect_young_after

    @collect_young_after
    def fail():
        raise ValueError("pass failed")

    gc.disable()
    try:
        assert _collections_during(lambda: pytest.raises(ValueError, fail)) == []
        assert not gc.isenabled()
    finally:
        gc.enable()
    with pytest.raises(ValueError):
        fail()
    assert gc.isenabled()
