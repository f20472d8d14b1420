"""Fig. 6 — number of updates vs number of correspondences.

Paper claims validated here:
  * the proposal cuts correspondences by ≈75% vs the conventional
    centralized approach (we accept 55-95%: the exact value depends on
    the item count the scan lost);
  * "most of the update is completed within the local site";
  * the conventional line is linear at ~1 correspondence/update.
"""

from conftest import once

from repro.experiments import run_fig6


def _totals(run):
    """A counted run's correspondence curve, checkpoint by checkpoint."""
    return [cp.total_correspondences for cp in run.checkpoints]


def bench_fig6(benchmark, save_result):
    result = once(benchmark, run_fig6, n_updates=1000, seed=0, n_items=10)
    save_result("fig6", result.render())

    # Shape assertions (the paper's stated findings).
    assert 0.55 <= result.reduction <= 0.95, (
        f"reduction {result.reduction:.1%} out of the paper's band"
    )
    assert result.local_ratio > 0.5, "most updates must complete locally"

    conv_final = result.conventional.final()
    slope = conv_final.total_correspondences / conv_final.updates
    assert abs(slope - 1.0) < 1e-9, "conventional is 1 corr/update"

    for curve in (_totals(result.proposal), _totals(result.conventional)):
        assert all(b >= a for a, b in zip(curve, curve[1:])), "monotonic"
    assert (
        result.proposal.final().total_correspondences
        < conv_final.total_correspondences
    )


def bench_fig6_multiseed(benchmark, save_result):
    """Stability across seeds: the ordering never flips."""

    def run_all():
        return [run_fig6(n_updates=600, seed=s, n_items=10) for s in range(5)]

    results = once(benchmark, run_all)
    lines = ["seed  reduction  local_ratio"]
    for seed, r in enumerate(results):
        lines.append(f"{seed:4d}  {r.reduction:9.1%}  {r.local_ratio:11.1%}")
        assert r.reduction > 0.4, f"seed {seed}: win vanished"
        assert r.local_ratio > 0.5
    save_result("fig6_multiseed", "\n".join(lines))
