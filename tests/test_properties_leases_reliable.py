"""Randomized properties for the robustness layer, driven through the
testkit's schedule-perturbation hooks (ISSUE 5 satellite).

Both properties run the *correct* protocol through
:func:`repro.testkit.run_case` over hypothesis-drawn fault windows and
perturbation vectors, then assert the strong end state:

* **lease ack-vs-expiry** (``repro.core.leases``): whatever interleaving
  of grant delivery, ack, holder crash and expiry probe the perturbed
  schedule produces, every lease resolves exactly once — discharged or
  reverted, never both, never neither — and no volume is lost or
  double-counted.
* **retransmit dedup** (``repro.net.reliable``): message-loss windows
  force retransmissions and timer jitter reorders the retries; the
  dedup layer must prevent any double-apply, which the sequential-spec
  oracle checks against an independent reference execution.

``derandomize=True`` keeps CI stable: hypothesis enumerates the same
examples every run, and each example is itself a deterministic
simulation.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.fig6 import make_paper_trace
from repro.perf.grids import derive_seed
from repro.testkit import run_case
from repro.testkit.schedule import FuzzCase

LEASE_RULES = ("lease.conflict", "lease.double-resolve", "lease.reopen")

SETTINGS = settings(max_examples=8, deadline=None, derandomize=True)


def _case(case_seed, faults, latency_amp, timer_amp, perturb_seed):
    """A small two-retailer case whose decrements force AV grants."""
    seed = derive_seed(1009, "prop.case", case_seed)
    trace = make_paper_trace(18, seed, n_items=3, n_retailers=2)
    ops = tuple(
        # Scaled-up decrements exhaust local AV, so grants (and with
        # them leases and reliable retransmissions) actually happen.
        (e.site, e.item, float(e.delta * (3 if e.delta < 0 else 1)))
        for e in trace
    )
    return FuzzCase(
        seed=seed,
        ops=ops,
        faults=faults,
        latency_amp=latency_amp,
        timer_amp=timer_amp,
        perturb_seed=derive_seed(1009, "prop.perturb", perturb_seed),
        n_items=3,
        n_retailers=2,
        interarrival=2.5,
        horizon=120.0,
        settle=160.0,
    )


@SETTINGS
@given(
    case_seed=st.integers(min_value=0, max_value=10_000),
    victim=st.sampled_from(["site1", "site2"]),
    crash_at=st.floats(min_value=10.0, max_value=60.0),
    down_for=st.floats(min_value=20.0, max_value=80.0),
    latency_amp=st.sampled_from([0.0, 0.4, 0.8]),
    perturb_seed=st.integers(min_value=0, max_value=10_000),
)
def test_lease_resolves_exactly_once_under_crashes(
    case_seed, victim, crash_at, down_for, latency_amp, perturb_seed
):
    """Ack-vs-expiry races never lose or double-count leased volume."""
    faults = (
        (round(crash_at, 3), "crash", (victim,)),
        (round(crash_at + down_for, 3), "recover", (victim,)),
    )
    outcome = run_case(
        _case(case_seed, faults, latency_amp, 0.0, perturb_seed)
    )
    assert outcome.ok, outcome.render()
    for rule in LEASE_RULES:
        assert rule not in outcome.rules
    counters = outcome.counters
    assert counters["leases_opened"] == (
        counters["leases_discharged"] + counters["leases_reverted"]
    )


@SETTINGS
@given(
    case_seed=st.integers(min_value=0, max_value=10_000),
    drop_at=st.floats(min_value=0.0, max_value=40.0),
    drop_for=st.floats(min_value=20.0, max_value=60.0),
    drop_p=st.floats(min_value=0.05, max_value=0.3),
    timer_amp=st.sampled_from([0.0, 0.3, 0.6]),
    perturb_seed=st.integers(min_value=0, max_value=10_000),
)
def test_retransmit_dedup_never_double_applies(
    case_seed, drop_at, drop_for, drop_p, timer_amp, perturb_seed
):
    """Loss-forced retries + jittered backoff: every delta applies once."""
    faults = (
        (round(drop_at, 3), "drop", (round(drop_p, 3),)),
        (round(drop_at + drop_for, 3), "drop", (0.0,)),
    )
    outcome = run_case(
        _case(case_seed, faults, 0.0, timer_amp, perturb_seed)
    )
    # outcome.ok covers end_state: every replica equals the ledger and
    # the ledger equals the reference execution, i.e. no retransmitted
    # delta applied twice.
    assert outcome.ok, outcome.render()
    assert "oracle.spec" not in outcome.rules


@SETTINGS
@given(
    case_seed=st.integers(min_value=0, max_value=10_000),
    perturb_seed=st.integers(min_value=0, max_value=10_000),
    latency_amp=st.sampled_from([0.2, 0.7]),
    timer_amp=st.sampled_from([0.1, 0.5]),
)
def test_perturbed_runs_stay_deterministic(
    case_seed, perturb_seed, latency_amp, timer_amp
):
    """Perturbation is part of the schedule, not a source of noise."""
    case = _case(case_seed, (), latency_amp, timer_amp, perturb_seed)
    assert run_case(case).digest() == run_case(case).digest()
