"""Unit tests for the DistributedSystem orchestration and the coordinators."""

from __future__ import annotations

import itertools

import pytest

from repro import SimulationError, generate_fusion
from repro.machines import fig1_counter_a, fig1_counter_b, mesi, mod_counter
from repro.simulation import (
    DistributedSystem,
    FaultEvent,
    FaultInjector,
    FaultKind,
    ServerStatus,
    WorkloadGenerator,
)

from ..machine_sets import MACHINE_SETS


@pytest.fixture
def counters():
    return [fig1_counter_a(), fig1_counter_b()]


@pytest.fixture
def fusion_system(counters):
    return DistributedSystem.with_fusion_backups(counters, f=1)


class TestConstruction:
    def test_fusion_factory(self, fusion_system):
        assert fusion_system.backup_scheme == "fusion"
        assert len(fusion_system.backups) == 1
        assert len(fusion_system.server_names()) == 3

    def test_replication_factory(self, counters):
        system = DistributedSystem.with_replication(counters, f=1)
        assert system.backup_scheme == "replication"
        assert len(system.backups) == 2

    def test_unprotected_factory(self, counters):
        system = DistributedSystem.unprotected(counters)
        assert system.backup_scheme == "none"
        with pytest.raises(SimulationError):
            system.recover()

    def test_prebuilt_fusion_reused(self, counters):
        fusion = generate_fusion(counters, f=1)
        system = DistributedSystem.with_fusion_backups(counters, f=1, fusion=fusion)
        assert system.backups == fusion.backups

    def test_duplicate_names_rejected(self):
        machine = mesi()
        with pytest.raises(SimulationError):
            DistributedSystem.unprotected([machine, machine.renamed("MESI")])

    def test_empty_machine_list_rejected(self):
        with pytest.raises(SimulationError):
            DistributedSystem.unprotected([])

    def test_unknown_server_lookup(self, fusion_system):
        with pytest.raises(SimulationError):
            fusion_system.server("ghost")


class TestFaultFreeRuns:
    def test_states_track_workload(self, fusion_system, counters):
        workload = [0, 1, 0, 0]
        report = fusion_system.run(workload)
        assert report.consistent
        assert report.faults_injected == 0
        assert report.recoveries == 0
        states = fusion_system.states()
        for machine in counters:
            assert states[machine.name] == machine.run(workload)

    def test_trace_records_every_event(self, fusion_system):
        report = fusion_system.run([0, 1, 1])
        assert report.trace.events_applied() == [0, 1, 1]


class TestCrashRecovery:
    def test_single_crash_recovered(self, fusion_system, counters):
        workload = WorkloadGenerator([0, 1], seed=0).uniform(30)
        injector = FaultInjector(fusion_system.server_names(), seed=1)
        plan = injector.crash_plan([counters[0].name], after_event=10)
        report = fusion_system.run(workload, fault_plan=plan)
        assert report.consistent
        assert report.faults_injected == 1
        assert report.recoveries == 1
        assert counters[0].name in report.recovered_servers

    def test_crash_of_backup_machine_recovered(self, fusion_system):
        backup_name = fusion_system.backups[0].name
        plan = FaultInjector(fusion_system.server_names(), seed=2).crash_plan(
            [backup_name], after_event=3
        )
        report = fusion_system.run([0, 1, 0, 1, 1], fault_plan=plan)
        assert report.consistent
        assert backup_name in report.recovered_servers

    def test_two_crashes_with_f2_system(self, counters):
        system = DistributedSystem.with_fusion_backups(counters, f=2)
        names = [m.name for m in counters]
        plan = FaultInjector(system.server_names(), seed=3).crash_plan(names, after_event=5)
        report = system.run([0, 1] * 10, fault_plan=plan)
        assert report.consistent
        assert report.faults_injected == 2

    def test_deferred_recovery_at_end_of_run(self, fusion_system, counters):
        plan = FaultInjector(fusion_system.server_names(), seed=4).crash_plan(
            [counters[1].name], after_event=2
        )
        report = fusion_system.run([0, 1, 0, 1], fault_plan=plan, recover_immediately=False)
        assert report.consistent
        assert report.recoveries == 1

    def test_fault_at_time_zero(self, fusion_system, counters):
        plan = FaultInjector(fusion_system.server_names(), seed=5).crash_plan(
            [counters[0].name], after_event=0
        )
        report = fusion_system.run([0, 0, 1], fault_plan=plan)
        assert report.consistent

    def test_replication_recovers_too(self, counters):
        system = DistributedSystem.with_replication(counters, f=1)
        plan = FaultInjector(system.server_names(), seed=6).crash_plan(
            [counters[0].name], after_event=4
        )
        report = system.run([0, 1, 1, 0, 0, 1], fault_plan=plan)
        assert report.consistent
        assert report.backup_state_space == 9


class TestByzantineRecovery:
    def test_byzantine_fault_detected_and_fixed(self, counters):
        system = DistributedSystem.with_fusion_backups(counters, f=1, byzantine=True)
        victim = counters[0].name
        plan = FaultInjector(system.server_names(), seed=7).byzantine_plan([victim], after_event=6)
        report = system.run([0, 1] * 8, fault_plan=plan)
        assert report.consistent
        recovery = report.trace.recoveries()[0]
        assert victim in recovery.payload["suspected_byzantine"]

    def test_byzantine_replication_majority(self, counters):
        system = DistributedSystem.with_replication(counters, f=1, byzantine=True)
        victim = counters[1].name
        plan = FaultInjector(system.server_names(), seed=8).byzantine_plan([victim], after_event=2)
        report = system.run([1, 0, 1, 1], fault_plan=plan)
        assert report.consistent

    def test_explicit_corruption_target(self, counters):
        system = DistributedSystem.with_fusion_backups(counters, f=1, byzantine=True)
        victim = counters[0].name
        plan = FaultInjector(system.server_names(), seed=9).explicit_plan(
            [FaultEvent(victim, FaultKind.BYZANTINE, 1, corrupt_to="c2")]
        )
        report = system.run([0, 0, 0], fault_plan=plan)
        assert report.consistent


class TestManualDriving:
    def test_inject_and_recover_manually(self, fusion_system, counters):
        fusion_system.apply_event(0)
        fusion_system.apply_event(1)
        victim = counters[0].name
        fusion_system.inject_fault(FaultEvent(victim, FaultKind.CRASH, 2))
        assert fusion_system.server(victim).status is ServerStatus.CRASHED
        outcome = fusion_system.recover()
        assert victim in outcome.restored
        assert fusion_system.is_consistent()

    def test_shared_alphabet_sensor_scenario(self):
        sensors = [
            mod_counter(3, count_event=e, events=(0, 1, 2), name="sensor-%d" % e)
            for e in (0, 1, 2)
        ]
        system = DistributedSystem.with_fusion_backups(sensors, f=1)
        assert len(system.backups) == 1
        plan = FaultInjector(system.server_names(), seed=11).crash_plan(["sensor-1"], after_event=9)
        workload = WorkloadGenerator([0, 1, 2], seed=12).uniform(25)
        report = system.run(workload, fault_plan=plan)
        assert report.consistent


def _catalog_run(fusion, byzantine, plan_for, seed):
    """Run one fresh system over a seeded workload under ``plan_for``'s
    fault plan; return the report and the workload."""
    machines = fusion.originals
    system = DistributedSystem.with_fusion_backups(
        machines, f=fusion.f, byzantine=byzantine, fusion=fusion
    )
    events = list(fusion.product.machine.events)
    workload = WorkloadGenerator(events, seed=seed).uniform(20)
    injector = FaultInjector(system.server_names(), seed=seed)
    report = system.run(workload, fault_plan=plan_for(injector))
    assert report.consistent
    states = system.states()
    for machine in machines:
        assert states[machine.name] == machine.run(workload)
    return report


class TestCatalogSystems:
    @pytest.mark.parametrize("label", list(MACHINE_SETS))
    def test_each_server_crash_recovered(self, label):
        fusion = generate_fusion(MACHINE_SETS[label](), f=1)
        names = [m.name for m in fusion.all_machines]
        for seed, name in enumerate(names):
            report = _catalog_run(
                fusion, False, lambda inj: inj.crash_plan([name], after_event=7), seed
            )
            assert report.recoveries == 1
            assert name in report.recovered_servers

    @pytest.mark.parametrize("label", list(MACHINE_SETS))
    def test_every_crash_pair_recovered_at_f2(self, label):
        fusion = generate_fusion(MACHINE_SETS[label](), f=2)
        names = [m.name for m in fusion.all_machines]
        for seed, pair in enumerate(itertools.combinations(names, 2)):
            report = _catalog_run(
                fusion, False, lambda inj: inj.crash_plan(list(pair), after_event=5), seed
            )
            assert report.faults_injected == 2
            assert set(pair) <= set(report.recovered_servers)

    @pytest.mark.parametrize("label", list(MACHINE_SETS))
    def test_each_server_lie_corrected(self, label):
        fusion = generate_fusion(MACHINE_SETS[label](), f=1, byzantine=True)
        names = [m.name for m in fusion.all_machines]
        for seed, name in enumerate(names):
            report = _catalog_run(
                fusion, True, lambda inj: inj.byzantine_plan([name], after_event=9), seed
            )
            suspected = [
                suspect
                for recovery in report.trace.recoveries()
                for suspect in recovery.payload["suspected_byzantine"]
            ]
            assert suspected == [name]
