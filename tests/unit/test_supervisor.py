"""Unit tests for the fleet supervisor and the typed fault-budget errors.

The supervisor is *vote first, restore second*: a recovery pass whose
observed fault mix (crashes + 2·liars, Theorems 1–2) exceeds the budget
must refuse to touch any server and raise a typed
:class:`FaultBudgetExceededError` naming the culprit machines.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.exceptions import (
    FaultBudgetExceededError,
    FaultToleranceExceededError,
)
from repro.core.fault_tolerance import FaultBudget
from repro.core.fusion import generate_fusion
from repro.core.runtime import BatchRecovery
from repro.machines import fig1_counter_a, fig1_counter_b
from repro.simulation.coordinator import FusionCoordinator
from repro.simulation.server import Server
from repro.simulation.supervisor import FleetStatus, FleetSupervisor
from repro.simulation.trace import ExecutionTrace

WORKLOAD = [0, 1, 0, 0, 1, 0, 1, 1]


@pytest.fixture(scope="module")
def fusion():
    return generate_fusion([fig1_counter_a(), fig1_counter_b()], f=2)


def _fleet(fusion):
    machines = list(fusion.originals) + list(fusion.backups)
    servers = {m.name: Server(m) for m in machines}
    for event in WORKLOAD:
        for server in servers.values():
            server.apply(event)
    return servers


def _supervisor(fusion, trace=None):
    coordinator = FusionCoordinator(fusion.product, fusion.backups)
    return FleetSupervisor(coordinator, f=fusion.f, trace=trace)


class TestFaultBudget:
    def test_budget_arithmetic(self):
        budget = FaultBudget(3)
        assert budget.crash_budget == 3
        assert budget.byzantine_budget == 1
        assert budget.weight(1, 1) == 3
        assert budget.allows(crashes=3, byzantine=0)
        assert budget.allows(crashes=1, byzantine=1)
        assert not budget.allows(crashes=2, byzantine=1)
        assert not budget.allows(crashes=0, byzantine=2)

    def test_negative_f_rejected(self):
        with pytest.raises(ValueError):
            FaultBudget(-1)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            FaultBudget(2).allows(-1, 0)


class TestFaultBudgetExceededError:
    def test_for_crashes_names_machines(self):
        error = FaultBudgetExceededError.for_crashes(["a", "b", "c"], 2)
        assert error.culprits == ("a", "b", "c")
        assert error.observed == 3
        assert error.tolerated == 2
        assert "a, b, c" in str(error)
        assert isinstance(error, FaultToleranceExceededError)

    def test_for_budget_weighs_liars_double(self):
        error = FaultBudgetExceededError.for_budget(["a"], ["b"], 2)
        assert error.culprits == ("a", "b")
        assert error.observed == 3  # 1 crash + 2 units per liar
        assert error.tolerated == 2
        assert "suspected Byzantine" in str(error)


class TestSupervisedRecovery:
    def test_crash_within_budget_is_restored(self, fusion):
        servers = _fleet(fusion)
        victims = list(servers)[: fusion.f]
        for name in victims:
            servers[name].crash()
        supervisor = _supervisor(fusion)
        report = supervisor.oversee(servers, step=len(WORKLOAD))
        assert report.status is FleetStatus.HEALTHY
        assert set(report.crashed) == set(victims)
        assert report.weight == fusion.f
        assert all(server.is_consistent() for server in servers.values())
        assert supervisor.total_crashes_observed == fusion.f

    def test_liar_within_budget_is_detected_and_corrected(self, fusion):
        servers = _fleet(fusion)
        liar = next(iter(servers))
        servers[liar].corrupt(rng=np.random.default_rng(5))
        supervisor = _supervisor(fusion)
        report = supervisor.oversee(servers, step=len(WORKLOAD))
        assert report.status is FleetStatus.HEALTHY
        assert report.suspected_byzantine == (liar,)
        assert report.weight == 2
        assert all(server.is_consistent() for server in servers.values())
        assert supervisor.total_liars_detected == 1

    def test_crashes_past_budget_degrade_without_restoring(self, fusion):
        servers = _fleet(fusion)
        victims = list(servers)[: fusion.f + 1]
        for name in victims:
            servers[name].crash()
        trace = ExecutionTrace()
        supervisor = _supervisor(fusion, trace=trace)
        with pytest.raises(FaultBudgetExceededError) as excinfo:
            supervisor.oversee(servers, step=len(WORKLOAD))
        assert set(excinfo.value.culprits) == set(victims)
        assert excinfo.value.observed == fusion.f + 1
        assert excinfo.value.tolerated == fusion.f
        assert supervisor.status is FleetStatus.DEGRADED
        assert set(supervisor.culprits) == set(victims)
        # Never a silently wrong recovery: the crashed servers stay down.
        for name in victims:
            assert servers[name].report_state() is None
        # The degradation is on the record.
        notes = [r for r in trace.records if r.payload.get("message", "").startswith("DEGRADED")]
        assert len(notes) == 1

    def test_mixed_weight_past_budget_degrades(self, fusion):
        # f-1 crashes plus one liar weigh (f-1) + 2 = f+1 > f.  With
        # only f-1 crashes the true top state provably never *loses* the
        # vote (dmin = f+1 leaves at least one honest separator against
        # any wrong state), so the pass either flags the liar — tipping
        # the weight over budget — or hits an ambiguous tie; both must
        # degrade, never restore.
        servers = _fleet(fusion)
        names = list(servers)
        for name in names[: fusion.f - 1]:
            servers[name].crash()
        liar = names[fusion.f - 1]
        servers[liar].corrupt(rng=np.random.default_rng(5))
        supervisor = _supervisor(fusion)
        with pytest.raises(FaultBudgetExceededError) as excinfo:
            supervisor.oversee(servers, step=len(WORKLOAD))
        assert supervisor.status is FleetStatus.DEGRADED
        assert excinfo.value.tolerated == fusion.f
        assert liar in supervisor.culprits

    def test_recovered_fleet_returns_to_healthy(self, fusion):
        servers = _fleet(fusion)
        supervisor = _supervisor(fusion)
        names = list(servers)
        for name in names[: fusion.f + 1]:
            servers[name].crash()
        with pytest.raises(FaultBudgetExceededError):
            supervisor.oversee(servers, step=1)
        assert supervisor.status is FleetStatus.DEGRADED
        # Operator intervention: one server comes back within budget.
        machines = {m.name: m for m in list(fusion.originals) + list(fusion.backups)}
        revived = names[0]
        servers[revived].restore(machines[revived].initial)
        for event in WORKLOAD:
            servers[revived].apply(event)  # catches back up
        report = supervisor.oversee(servers, step=2)
        assert report.status is FleetStatus.HEALTHY
        assert supervisor.status is FleetStatus.HEALTHY
        assert supervisor.culprits == ()


class TestEngineBudgetError:
    """The vote engine's crash overrun is the canonical typed error."""

    def test_budget_error_names_the_crashed_machines(self, fusion):
        observations = {}
        machines = list(fusion.originals) + list(fusion.backups)
        servers = _fleet(fusion)
        for index, machine in enumerate(machines):
            observations[machine.name] = (
                None if index <= fusion.f else servers[machine.name].report_state()
            )

        engine = BatchRecovery(fusion.product, fusion.backups)
        with pytest.raises(FaultBudgetExceededError) as raised:
            engine.recover(observations, strict=True, expected_max_faults=fusion.f)

        crashed = [m.name for m in machines[: fusion.f + 1]]
        expected = FaultBudgetExceededError.for_crashes(crashed, fusion.f)
        assert str(raised.value) == str(expected)
        assert raised.value.culprits == tuple(crashed)
        assert raised.value.observed == fusion.f + 1
        assert raised.value.tolerated == fusion.f
