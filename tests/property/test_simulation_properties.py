"""Property-based tests for the end-to-end simulator.

The key invariant (Theorem 6 in operational form): for any workload and
any fault plan within the system's budget — up to ``f`` crashes for a
crash-fused system, up to ``f`` liars for a Byzantine-fused system — the
run ends with every server back in its ground-truth state.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.machines import mod_counter
from repro.simulation import (
    DistributedSystem,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    WorkloadGenerator,
)

RELAXED = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def _counters(count: int = 3):
    events = tuple(range(count))
    return [
        mod_counter(3, count_event=e, events=events, name="node-%d" % e) for e in events
    ]


@st.composite
def crash_plan_strategy(draw, server_names, max_faults, workload_length):
    count = draw(st.integers(min_value=0, max_value=max_faults))
    victims = draw(
        st.lists(st.sampled_from(list(server_names)), min_size=count, max_size=count, unique=True)
    )
    events = []
    for victim in victims:
        when = draw(st.integers(min_value=0, max_value=workload_length))
        events.append(FaultEvent(victim, FaultKind.CRASH, when))
    return FaultPlan(tuple(events))


class TestSimulatorInvariants:

    @RELAXED
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    def test_any_single_crash_is_recovered(self, data, seed):
        machines = _counters(3)
        system = DistributedSystem.with_fusion_backups(machines, f=1)
        workload = WorkloadGenerator((0, 1, 2), seed=seed).uniform(30)
        plan = data.draw(
            crash_plan_strategy(system.server_names(), max_faults=1, workload_length=len(workload))
        )
        report = system.run(workload, fault_plan=plan)
        assert report.consistent
        assert report.faults_injected == len(plan)

    @RELAXED
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    def test_up_to_two_crashes_with_f2_fusion(self, data, seed):
        machines = _counters(3)
        system = DistributedSystem.with_fusion_backups(machines, f=2)
        workload = WorkloadGenerator((0, 1, 2), seed=seed).uniform(25)
        plan = data.draw(
            crash_plan_strategy(system.server_names(), max_faults=2, workload_length=len(workload))
        )
        report = system.run(workload, fault_plan=plan)
        assert report.consistent

    @RELAXED
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        victim_index=st.integers(min_value=0, max_value=2),
        when=st.integers(min_value=0, max_value=20),
    )
    def test_single_byzantine_fault_is_corrected(self, seed, victim_index, when):
        machines = _counters(3)
        system = DistributedSystem.with_fusion_backups(machines, f=1, byzantine=True)
        workload = WorkloadGenerator((0, 1, 2), seed=seed).uniform(20)
        victim = machines[victim_index].name
        plan = FaultInjector(system.server_names(), seed=seed).byzantine_plan([victim], after_event=when)
        report = system.run(workload, fault_plan=plan)
        assert report.consistent

    @RELAXED
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    def test_replication_matches_fusion_consistency(self, data, seed):
        machines = _counters(3)
        workload = WorkloadGenerator((0, 1, 2), seed=seed).uniform(20)
        fusion_system = DistributedSystem.with_fusion_backups(machines, f=1)
        replication_system = DistributedSystem.with_replication(machines, f=1)
        victim = data.draw(st.sampled_from([m.name for m in machines]))
        when = data.draw(st.integers(min_value=0, max_value=len(workload)))
        for system in (fusion_system, replication_system):
            plan = FaultInjector(system.server_names(), seed=seed).crash_plan([victim], after_event=when)
            report = system.run(workload, fault_plan=plan)
            assert report.consistent, system.backup_scheme
