"""Chaos property test: random operations + faults, invariants always hold.

A hypothesis rule machine interleaves updates, batched syncs, crashes
and recoveries on a live system and re-checks the AV-conservation and
non-negativity invariants after every step. Immediate updates are
excluded (the primary-copy protocol assumes reachable participants and
would need timeout machinery under crashes — a documented limitation);
the Delay path is exactly what the paper claims survives faults.
"""

from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from hypothesis import strategies as st

from repro.cluster import build_paper_system

SITES = ["site0", "site1", "site2"]
ITEMS = ["item0", "item1"]


class ChaosMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.system = build_paper_system(
            n_items=2,
            initial_stock=80.0,
            seed=7,
            request_timeout=10.0,  # crashed grantors must not hang updates
        )

    # -------------------------------------------------------------- #
    # rules
    # -------------------------------------------------------------- #

    @rule(
        site=st.sampled_from(SITES),
        item=st.sampled_from(ITEMS),
        delta=st.integers(min_value=-30, max_value=30),
    )
    def update(self, site, item, delta):
        if self.system.sites[site].crashed:
            return
        proc = self.system.update(site, item, float(delta))
        self.system.run()
        # The process must terminate (committed/rejected/failed) — a
        # hang would leave it untriggered after the queue drained.
        assert proc.triggered

    @rule(site=st.sampled_from(SITES))
    def sync(self, site):
        if self.system.sites[site].crashed:
            return
        self.system.sites[site].accelerator.sync_all()
        self.system.run()

    @rule(site=st.sampled_from(SITES))
    def crash(self, site):
        # Keep at least one site alive so some progress stays possible.
        alive = [s for s in SITES if not self.system.sites[s].crashed]
        if len(alive) > 1 or site not in alive:
            self.system.sites[site].crash()

    @rule(site=st.sampled_from(SITES))
    def restart(self, site):
        """Full restart path: recovery + resolution + sync catch-up."""
        if not self.system.sites[site].crashed:
            return
        self.system.sites[site].restart()
        self.system.run()

    # -------------------------------------------------------------- #
    # invariants
    # -------------------------------------------------------------- #

    @invariant()
    def conservation_and_nonnegativity(self):
        ledger = self.system.collector.ledger
        for item in ITEMS:
            true_value = ledger.true_value(item)
            assert true_value >= 0, f"{item} ground truth negative"
            # AV may be temporarily parked in holds of FAILED (crashed)
            # updates, so the table total is <= the bound — never above.
            assert self.system.av_total(item) <= true_value + 1e-9

    @invariant()
    def no_negative_av(self):
        for site in self.system.sites.values():
            for item, volume in site.av_table.items():
                assert volume >= 0, (site.name, item, volume)

    def teardown(self):
        # Heal everything, sync everyone, drain: replicas converge.
        for site in SITES:
            self.system.restart(site)
        self.system.run()
        for site in self.system.sites.values():
            site.accelerator.sync_all()
        self.system.run()
        ledger = self.system.collector.ledger
        for item in ITEMS:
            for site in self.system.sites.values():
                assert site.store.value(item) == ledger.true_value(item), (
                    f"{site.name} did not converge on {item}"
                )


TestChaosMachine = ChaosMachine.TestCase
TestChaosMachine.settings = settings(
    max_examples=25, stateful_step_count=30, deadline=None
)
