"""Theorem 2 in operation, across the machine zoo and f = 1..3.

A system fused for ``f`` crash faults (``dmin = f + 1``) tolerates
``⌊f/2⌋`` Byzantine liars: the Algorithm-3 vote discounts them and the
supervisor corrects their state.  One liar more and the majority
argument collapses — the supervised system must report DEGRADED (with
culprits named) rather than ever restore a possibly-wrong state.

Every schedule is seeded through :mod:`repro.utils.rng`, so each case
replays the same victims and corruption targets run after run.
"""

from __future__ import annotations

import pytest

from repro.core.fusion import generate_fusion
from repro.machines.catalog import zoo
from repro.simulation import DistributedSystem, FaultInjector
from repro.utils.rng import as_generator, derive_seed

WORKLOAD = list("abacbcab") * 3
SEEDS = list(range(4))
F_VALUES = [1, 2, 3]


@pytest.fixture(scope="module", params=F_VALUES)
def fused(request):
    f = request.param
    return f, generate_fusion(zoo(), f)


@pytest.fixture(scope="module")
def reference_states(fused):
    f, fusion = fused
    system = DistributedSystem.with_fusion_backups(zoo(), f=f, fusion=fusion)
    report = system.run(WORKLOAD)
    assert report.consistent
    return system.states()


def _byzantine_plan(system, liars: int, seed: int):
    injector = FaultInjector(
        system.server_names(), seed=derive_seed(seed, "theorem2-plan", liars)
    )
    rng = as_generator(derive_seed(seed, "theorem2-victims", liars))
    names = list(system.server_names())
    victims = [names[int(i)] for i in rng.choice(len(names), size=liars, replace=False)]
    after = int(rng.integers(1, len(WORKLOAD)))
    return injector.byzantine_plan(victims, after_event=after), tuple(victims)


class TestWithinBudgetLiarsAreCorrected:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_floor_f_half_liars_detected_and_corrected(
        self, fused, reference_states, seed
    ):
        f, fusion = fused
        liars = f // 2
        system = DistributedSystem.with_fusion_backups(
            zoo(), f=f, fusion=fusion, supervised=True
        )
        plan, victims = _byzantine_plan(system, liars, seed)
        report = system.run(WORKLOAD, fault_plan=plan, rng=derive_seed(seed, "corrupt"))
        assert report.status == "healthy"
        assert report.consistent
        assert system.states() == reference_states
        if liars:
            # The vote flagged exactly the liars and restored them.
            recoveries = system.trace.recoveries()
            flagged = set()
            for record in recoveries:
                flagged.update(record.payload["suspected_byzantine"])
            assert flagged == set(victims)
            assert system.supervisor.total_liars_detected == liars

    @pytest.mark.parametrize("seed", SEEDS[:2])
    def test_mixed_budget_crash_plus_liars(self, fused, reference_states, seed):
        """Crashes and liars together, weighted 1 and 2, up to exactly f."""
        f, fusion = fused
        liars = f // 2
        crashes = f - 2 * liars
        system = DistributedSystem.with_fusion_backups(
            zoo(), f=f, fusion=fusion, supervised=True
        )
        injector = FaultInjector(
            system.server_names(), seed=derive_seed(seed, "mixed-plan", f)
        )
        plan = injector.random_plan(crashes, liars, len(WORKLOAD))
        report = system.run(WORKLOAD, fault_plan=plan, rng=derive_seed(seed, "mixed"))
        assert report.status == "healthy"
        assert report.consistent
        assert system.states() == reference_states


class TestPastBudgetLiarsDegrade:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_one_liar_too_many_is_degraded(self, fused, seed):
        f, fusion = fused
        liars = f // 2 + 1
        system = DistributedSystem.with_fusion_backups(
            zoo(), f=f, fusion=fusion, supervised=True
        )
        plan, victims = _byzantine_plan(system, liars, seed)
        report = system.run(WORKLOAD, fault_plan=plan, rng=derive_seed(seed, "corrupt"))
        assert report.status == "degraded"
        assert report.culprits, "a degraded report must name culprits"
        assert not report.consistent
        assert system.supervisor is not None
        assert system.supervisor.status.value == "degraded"
        assert system.supervisor.degraded_reason
