"""Unit tests for generator processes: composition, interrupts, failures."""

import pytest

from repro.sim import Environment, Interrupt


def test_process_requires_generator():
    env = Environment()
    with pytest.raises(TypeError):
        env.process(lambda: None)


def test_process_return_value():
    env = Environment()

    def proc(env):
        yield env.timeout(1)
        return 99

    p = env.process(proc(env))
    env.run()
    assert p.value == 99


def test_process_composition_yield_subprocess():
    env = Environment()

    def child(env):
        yield env.timeout(2)
        return "from-child"

    def parent(env):
        got = yield env.process(child(env))
        return (env.now, got)

    p = env.process(parent(env))
    env.run()
    assert p.value == (2, "from-child")


def test_yield_from_delegation():
    env = Environment()

    def inner(env):
        yield env.timeout(1)
        return 5

    def outer(env):
        a = yield from inner(env)
        b = yield from inner(env)
        return a + b

    p = env.process(outer(env))
    env.run()
    assert p.value == 10 and env.now == 2


def test_process_failure_propagates_to_joiner():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("exploded")

    def joiner(env):
        try:
            yield env.process(bad(env))
        except ValueError as exc:
            return f"caught {exc}"

    p = env.process(joiner(env))
    env.run(until=p)
    assert p.value == "caught exploded"


def test_unjoined_process_failure_crashes_simulation():
    env = Environment()

    def bad(env):
        yield env.timeout(1)
        raise ValueError("unhandled")

    env.process(bad(env))
    with pytest.raises(ValueError, match="unhandled"):
        env.run()


def test_interrupt_delivers_cause():
    env = Environment()

    def victim(env):
        try:
            yield env.timeout(100)
        except Interrupt as intr:
            return ("interrupted", intr.cause, env.now)

    def attacker(env, target):
        yield env.timeout(3)
        target.interrupt(cause="crash")

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert v.value == ("interrupted", "crash", 3)


def test_interrupt_detaches_old_target():
    env = Environment()
    resumed = []

    def victim(env):
        try:
            yield env.timeout(5)
            resumed.append("timeout")  # must NOT happen
        except Interrupt:
            yield env.timeout(100)
            resumed.append("post-interrupt")

    def attacker(env, target):
        yield env.timeout(1)
        target.interrupt()

    v = env.process(victim(env))
    env.process(attacker(env, v))
    env.run()
    assert resumed == ["post-interrupt"]
    assert env.now == 101


def test_interrupt_finished_process_raises():
    env = Environment()

    def quick(env):
        yield env.timeout(1)

    p = env.process(quick(env))
    env.run()
    with pytest.raises(RuntimeError):
        p.interrupt()


def test_yield_non_event_raises_inside_process():
    env = Environment()

    def bad(env):
        try:
            yield 42
        except TypeError as exc:
            return f"typeerror: {'not an Event' in str(exc)}"
        yield env.timeout(0)

    p = env.process(bad(env))
    env.run()
    assert p.value == "typeerror: True"


def test_yield_after_misuse_resumes_with_the_event():
    """What a process yields in answer to the misuse TypeError is the
    event it waits on; the stale event is not sent in again."""
    env = Environment()
    seen = []

    def recovers(env):
        try:
            yield 42
        except TypeError:
            pass
        value = yield env.timeout(5, value="five")
        seen.append((env.now, value))

    p = env.process(recovers(env))
    env.run()
    assert seen == [(5, "five")]
    assert p.ok


def test_is_alive_lifecycle():
    env = Environment()

    def proc(env):
        yield env.timeout(2)

    p = env.process(proc(env))
    assert p.is_alive
    env.run()
    assert not p.is_alive


def test_process_owner_defaults_to_none():
    env = Environment()

    def my_process(env):
        yield env.timeout(0)

    p = env.process(my_process(env))
    assert p.owner is None
    q = env.process(my_process(env), owner="site0")
    assert q.owner == "site0"
    assert repr(q).startswith(
        "<Process site0:test_process_owner_defaults_to_none.<locals>.my_process"
    )
    env.run()


def test_owned_lists_live_processes_in_spawn_order():
    env = Environment()

    def sleeper(env, delay):
        yield env.timeout(delay)

    a = env.process(sleeper(env, 3), owner="agg0")
    b = env.process(sleeper(env, 1), owner="agg0.0")
    c = env.process(sleeper(env, 2), owner="agg0")
    d = env.process(sleeper(env, 1))
    assert env.owned("agg0") == [a, c]
    assert env.owned("agg0.0") == [b]
    assert env.owned(None) == [d]
    assert env.owned("site9") == []
    env.run(until=2.5)
    # A process leaves its owner's list when it ends.
    assert env.owned("agg0") == [a]
    assert env.owned("agg0.0") == [] and env.owned(None) == []
    env.run()
    assert env.owned("agg0") == []


def test_failed_and_interrupted_processes_leave_the_census():
    env = Environment()

    def boom(env):
        yield env.timeout(1)
        raise ValueError("boom")

    def joiner(env, proc):
        with pytest.raises(ValueError):
            yield proc

    def forever(env):
        yield env.event()

    p = env.process(boom(env), owner="s")
    env.process(joiner(env, p), owner="s")
    q = env.process(forever(env), owner="s")
    env.run(until=2)
    assert env.owned("s") == [q]
    q.interrupt("crash")
    with pytest.raises(Interrupt):
        env.run()
    assert env.owned("s") == []


def test_immediate_return_process():
    env = Environment()

    def empty(env):
        return 7
        yield  # pragma: no cover - makes it a generator

    p = env.process(empty(env))
    env.run()
    assert p.value == 7
