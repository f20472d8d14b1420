"""Overload layer: admission, breaker, backpressure, degradation ring.

Unit tests drive an :class:`OverloadController` against a stub
accelerator (pure state-machine checks, no engine); integration tests
build real systems to show sheds surface as typed results, the layer is
inert when disabled, and an amply-provisioned surge demotes nothing.
"""

from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DistributedSystem, paper_config
from repro.core.overload import (
    ALLOWED_TRANSITIONS,
    CircuitBreaker,
    DegradationState,
    OverloadController,
    OverloadParams,
    OverloadStateError,
)
from repro.core.types import UpdateOutcome
from repro.obs.hub import Observability

# ---------------------------------------------------------------------- #
# stub accelerator: just enough surface for the controller
# ---------------------------------------------------------------------- #


class StubEndpoint:
    def __init__(self):
        self.handlers = {}
        self.sent = []

    def on(self, kind, handler):
        self.handlers[kind] = handler

    def send(self, dst, kind, payload, tag=None):
        self.sent.append((dst, kind, payload))


class StubLocks:
    def __init__(self):
        self.waiting = 0

    def total_waiting(self):
        return self.waiting


class StubAccel:
    site = "site1"
    base_site = "site0"

    def __init__(self):
        self.endpoint = StubEndpoint()
        # A disabled hub: no registry, so the pressure gauge is never
        # looked up; a subscriber keeps the controller's events.
        self.obs = Observability(enabled=False)
        self.events = []
        self.obs.subscribe_fields(
            lambda kind, now, fields: self.events.append((kind, now, fields))
        )
        self.locks = StubLocks()
        self.owed_pairs = 0
        self.now = 0.0
        self.sync_calls = 0

    def live_peers(self):
        return []

    def sync_all(self):
        self.sync_calls += 1
        self.owed_pairs = 0


def make_controller(**params):
    accel = StubAccel()
    defaults = dict(
        inflight_budget=4, backlog_budget=4, lock_wait_budget=4,
        recover_hold=5.0,
    )
    defaults.update(params)
    return accel, OverloadController(accel, OverloadParams(**defaults))


LEGAL = {(a.value, b.value) for a, b in ALLOWED_TRANSITIONS}


# ---------------------------------------------------------------------- #
# params validation
# ---------------------------------------------------------------------- #


class TestParams:
    def test_defaults_valid(self):
        OverloadParams()

    @pytest.mark.parametrize("bad", [
        {"inflight_budget": 0},
        {"backlog_budget": 0},
        {"retry_after": 0.0},
        {"breaker_threshold": 0},
        {"breaker_cooldown": 0.0},
        {"degraded_grant_fraction": 0.0},
        {"degraded_grant_fraction": 1.5},
        # threshold ordering: recover <= strain <= degrade
        {"recover_ratio": 0.7, "strain_ratio": 0.6},
        {"strain_ratio": 0.95, "degrade_ratio": 0.9},
    ])
    def test_invalid_rejected(self, bad):
        with pytest.raises(ValueError):
            OverloadParams(**bad)


# ---------------------------------------------------------------------- #
# circuit breaker
# ---------------------------------------------------------------------- #


class TestCircuitBreaker:
    def test_trips_after_threshold_consecutive_failures(self):
        br = CircuitBreaker(threshold=3, cooldown=10.0)
        assert not br.record_failure(1.0)
        assert not br.record_failure(2.0)
        assert br.record_failure(3.0)
        assert br.state == CircuitBreaker.OPEN
        assert br.trips == 1
        allowed, retry = br.allow(4.0)
        assert not allowed and retry > 0

    def test_success_resets_failure_streak(self):
        br = CircuitBreaker(threshold=2, cooldown=10.0)
        br.record_failure(1.0)
        br.record_success()
        assert not br.record_failure(2.0)
        assert br.state == CircuitBreaker.CLOSED

    def test_half_open_probe_success_recloses(self):
        br = CircuitBreaker(threshold=1, cooldown=10.0)
        br.record_failure(0.0)
        allowed, _ = br.allow(10.0)  # cooldown expired: one probe through
        assert allowed and br.state == CircuitBreaker.HALF_OPEN
        # everyone else is held while the probe is in flight
        assert br.allow(10.5) == (False, 2.5)
        br.record_success()
        assert br.state == CircuitBreaker.CLOSED

    def test_half_open_probe_failure_retrips(self):
        br = CircuitBreaker(threshold=1, cooldown=10.0)
        br.record_failure(0.0)
        br.allow(10.0)
        assert br.record_failure(11.0)
        assert br.state == CircuitBreaker.OPEN
        assert br.trips == 2
        assert br.pressure(11.0) == 1.0
        assert br.pressure(21.0) == 0.0  # cooldown elapsed: no pressure


# ---------------------------------------------------------------------- #
# admission + backpressure (stub accel)
# ---------------------------------------------------------------------- #


class TestAdmission:
    def test_sheds_exactly_over_budget(self):
        _accel, ctl = make_controller(inflight_budget=2)
        assert ctl.admit(1.0) is None
        ctl.begin(1.0)
        assert ctl.admit(1.0) is None
        ctl.begin(1.0)
        retry = ctl.admit(1.0)
        assert retry == ctl.params.retry_after > 0
        ctl.end(2.0)
        assert ctl.admit(2.0) is None
        assert ctl.peak_inflight == 2

    def test_record_shed_emits_observable_event(self):
        accel, ctl = make_controller()
        ctl.record_shed(3.0, 5.0)
        assert ctl.shed == 1
        kinds = [k for k, _t, _f in accel.events]
        assert "ovl.shed" in kinds
        _, _, fields = accel.events[0]
        assert fields["retry_after"] == 5.0


class TestBackpressure:
    def test_backlog_over_budget_flushes_inline_once_per_timestamp(self):
        accel, ctl = make_controller(backlog_budget=2)
        accel.owed_pairs = 3
        ctl.note_backlog(5.0)
        assert accel.sync_calls == 1
        assert ctl.flushes == 1
        # same timestamp again: no double flush
        accel.owed_pairs = 3
        ctl.note_backlog(5.0)
        assert accel.sync_calls == 1
        assert ctl.peak_backlog == 3

    def test_under_budget_never_flushes(self):
        accel, ctl = make_controller(backlog_budget=4)
        accel.owed_pairs = 1
        ctl.note_backlog(5.0)
        assert accel.sync_calls == 0


# ---------------------------------------------------------------------- #
# degradation hooks
# ---------------------------------------------------------------------- #


class TestDegradationHooks:
    def test_widened_grant_only_under_strain(self):
        _accel, ctl = make_controller()
        assert ctl.widened_grant(10.0, 2.0) is None
        ctl.state = DegradationState.STRAINED
        assert ctl.widened_grant(10.0, 2.0) == 9.0
        # never more than held, never less than the ask
        assert ctl.widened_grant(1.0, 3.0) == 1.0

    def test_filter_peers_drops_degraded_unless_empty(self):
        _accel, ctl = make_controller()
        ctl.peer_states = {"site2": "degraded", "site3": "normal"}
        assert ctl.filter_peers(["site2", "site3"]) == ["site3"]
        ctl.peer_states["site3"] = "degraded"
        assert ctl.filter_peers(["site2", "site3"]) == ["site2", "site3"]

    def test_degraded_read_bound_floor_and_lag(self):
        _accel, ctl = make_controller()
        assert ctl.degraded_read_bound(50.0) is None
        ctl.state = DegradationState.DEGRADED
        ctl.note_sync_pass(40.0)
        ctl.state = DegradationState.DEGRADED  # note_sync_pass re-evaluates
        assert ctl.degraded_read_bound(50.0) == 10.0
        assert ctl.degraded_read_bound(40.2) == ctl.params.stale_read_floor

    def test_sync_interval_halved_under_strain(self):
        _accel, ctl = make_controller()
        assert ctl.sync_interval(30.0) == 30.0
        ctl.state = DegradationState.DEGRADED
        assert ctl.sync_interval(30.0) == 15.0


# ---------------------------------------------------------------------- #
# state machine: legality + monotone ring
# ---------------------------------------------------------------------- #


class TestStateMachine:
    def test_illegal_edge_raises(self):
        _accel, ctl = make_controller()
        with pytest.raises(OverloadStateError):
            ctl._transition(DegradationState.DEGRADED, 1.0)

    def test_full_pressure_walks_to_degraded_and_back(self):
        accel, ctl = make_controller(inflight_budget=2)
        ctl.begin(1.0)
        ctl.begin(2.0)   # ratio 1.0 >= strain: NORMAL -> STRAINED
        ctl.evaluate(2.5)  # still full: STRAINED -> DEGRADED (one edge/step)
        assert ctl.state is DegradationState.DEGRADED
        ctl.end(3.0)
        ctl.end(4.0)  # ratio 0 <= recover: -> RECOVERING
        assert ctl.state is DegradationState.RECOVERING
        ctl.evaluate(4.0 + ctl.params.recover_hold)
        assert ctl.state is DegradationState.NORMAL
        assert [(f, t) for _n, f, t in ctl.transitions] == [
            ("normal", "strained"), ("strained", "degraded"),
            ("degraded", "recovering"), ("recovering", "normal"),
        ]
        # every transition was broadcast to peers (none here) and logged
        assert all((f, t) in LEGAL for _n, f, t in ctl.transitions)

    def test_relapse_from_recovering(self):
        _accel, ctl = make_controller(inflight_budget=2)
        ctl.begin(1.0)
        ctl.begin(2.0)
        ctl.evaluate(2.5)
        ctl.end(3.0)
        ctl.end(3.5)
        assert ctl.state is DegradationState.RECOVERING
        ctl.begin(4.0)
        ctl.begin(4.5)  # full pressure again: relapse
        assert ctl.state is DegradationState.DEGRADED

    @given(st.lists(
        st.sampled_from(["begin", "end", "backlog", "timeout", "success", "calm"]),
        max_size=60,
    ))
    @settings(derandomize=True, deadline=None, max_examples=200)
    def test_transition_log_is_a_legal_contiguous_walk(self, seq):
        """Property: whatever load history arrives, every edge the
        controller takes is in ALLOWED_TRANSITIONS, the log is a
        contiguous walk from NORMAL, and finalize lands at NORMAL."""
        accel, ctl = make_controller(breaker_cooldown=30.0)
        now = 0.0
        for op in seq:
            now += 1.0
            if op == "begin":
                if ctl.admit(now) is None:
                    ctl.begin(now)
                else:
                    ctl.record_shed(now, ctl.params.retry_after)
            elif op == "end":
                if ctl.inflight > 0:
                    ctl.end(now)
            elif op == "backlog":
                accel.owed_pairs += 1
                ctl.note_backlog(now)
            elif op == "timeout":
                ctl.record_2pc_timeout(now)
            elif op == "success":
                ctl.record_2pc_success(now)
            else:  # calm: drain everything, let the hold elapse
                while ctl.inflight:
                    ctl.end(now)
                accel.owed_pairs = 0
                now += ctl.params.recover_hold + 1.0
                ctl.evaluate(now)
        while ctl.inflight:
            ctl.end(now)
        accel.owed_pairs = 0
        ctl.finalize(now + 100.0)  # past any breaker cooldown

        prev = DegradationState.NORMAL.value
        for _t, frm, to in ctl.transitions:
            assert frm == prev, "transition log is not contiguous"
            assert (frm, to) in LEGAL, f"illegal edge {frm}->{to}"
            prev = to
        assert ctl.state is DegradationState.NORMAL
        assert ctl.peak_inflight <= ctl.params.inflight_budget


# ---------------------------------------------------------------------- #
# integration: real systems
# ---------------------------------------------------------------------- #


def drive(system, ops):
    procs = [system.update(site, item, delta) for site, item, delta in ops]
    system.run()
    return [p.value for p in procs]


class TestIntegration:
    def test_disabled_layer_is_inert(self):
        config = paper_config(seed=7)
        assert config.overload is None
        system = DistributedSystem.build(config)
        for site in system.sites.values():
            assert site.accelerator.overload is None

    def test_disabled_layer_runs_are_byte_identical(self):
        ops = [("site1", "item0", -3.0), ("site2", "item1", -2.0),
               ("site0", "item0", +5.0)]

        def one_run():
            system = DistributedSystem.build(
                paper_config(seed=11, n_items=4, sanitize=True)
            )
            results = drive(system, ops)
            report = system.sanitizer.finish()
            assert not any(
                k.startswith("overload") for k in report.counters
            )
            return (
                [r.outcome.value for r in results],
                {n: {i: system.sites[n].store.value(i)
                     for i, _v in sorted(system.sites[n].store.items())}
                 for n in sorted(system.sites)},
            )

        assert one_run() == one_run()

    def test_surge_sheds_surface_as_typed_results(self):
        config = paper_config(
            seed=3,
            n_items=4,
            regular_fraction=0.0,  # immediate items: 2PC yields, so the
            initial_stock=500.0,   # burst actually stacks up in flight
            overload=OverloadParams(inflight_budget=2, lock_wait_budget=2),
        )
        system = DistributedSystem.build(config)
        # open-loop burst: all spawned at t=0, far over the budget of 2
        results = drive(
            system, [("site1", "item0", -1.0) for _ in range(10)]
        )
        shed = [r for r in results if r.outcome is UpdateOutcome.SHED]
        assert shed, "burst over budget must shed"
        assert all(r.retry_after > 0 for r in shed)
        assert all(not r.committed for r in shed)
        ctl = system.sites["site1"].accelerator.overload
        assert ctl.shed == len(shed)
        assert ctl.peak_inflight <= 2

    def test_surge_with_ample_headroom_demotes_zero_items(self):
        """Regression: a surge the delay path can absorb must never
        trigger demotion — degradation is a last resort, not a reflex."""
        from repro.experiments.chaos import SMALL_SCENARIOS, run_chaos_scenario

        base = next(s for s in SMALL_SCENARIOS if s.name == "overload")
        ample = OverloadParams(
            inflight_budget=200, backlog_budget=400, lock_wait_budget=200
        )
        scenario = replace(
            base,
            name="overload-ample",
            config_overrides={**base.config_overrides, "overload": ample},
            extra_checks=None,  # the standard checks demand demotions > 0
        )
        result = run_chaos_scenario(scenario, n_updates=45)
        assert result.ok
        counters = result.report.counters
        assert counters.get("overload_demotions", 0) == 0
        assert counters.get("overload_promotions", 0) == 0


def test_crash_mid_demotion_clears_the_inflight_entry():
    """A crash ends a demotion under way at the base; the item leaves
    the in-flight set, so a later pass may demote it again."""
    config = paper_config(
        seed=0, n_items=2, regular_fraction=0.0, initial_stock=500.0,
        overload=OverloadParams(),
    )
    system = DistributedSystem.build(config)
    base = system.sites[config.maker]
    ctl = base.accelerator.overload
    ctl._demote_inflight.add("item0")
    system.env.process(ctl._demote("item0"), owner=base.name)
    system.run(until=0.5)  # the lock round-trips are in flight
    base.crash()
    assert ctl._demote_inflight == set()
    assert not base.accelerator.av_table.defined("item0")
