"""End-to-end integration tests: full pipelines from machine sets to recovery,
paper-table rows, sensor-network scenario, serialisation round trips."""

from __future__ import annotations

import pytest

from repro import (
    BatchRecovery,
    CrossProduct,
    generate_byzantine_fusion,
    generate_fusion,
    is_fusion,
    replication_state_space,
)
from repro.analysis import compare_fusion_to_replication, table1_configuration
from repro.io import dumps_machine, loads_machine
from repro.machines import (
    mesi,
    mod_counter,
    random_counter_family,
    tcp,
    toggle_switch,
)
from repro.simulation import DistributedSystem, FaultInjector, WorkloadGenerator
from repro.utils import validate_fusion_result


class TestTableRowPipelines:
    """Smaller results-table rows run end to end (the full set runs in benchmarks)."""

    def test_row3_pipeline(self):
        config = table1_configuration(3)
        row = config.run()
        assert row.replication_space == config.paper.replication_space
        assert row.fusion_space < row.replication_space
        assert row.final_dmin > config.f

    def test_row3_recovery_round_trip(self):
        config = table1_configuration(3)
        fusion = generate_fusion(list(config.machines), config.f)
        validate_fusion_result(fusion)
        engine = BatchRecovery(fusion.product, fusion.backups)
        workload = WorkloadGenerator((0, 1), seed=5).uniform(40)
        observations = {m.name: m.run(workload) for m in fusion.all_machines}
        victims = [config.machines[0].name, config.machines[3].name]
        truths = {v: observations[v] for v in victims}
        for victim in victims:
            observations[victim] = None
        outcome = engine.recover(observations)
        for victim in victims:
            assert outcome.machine_states[victim] == truths[victim]

    def test_mesi_tcp_system_single_fault(self):
        machines = [mesi(), tcp()]
        fusion = generate_fusion(machines, f=1)
        assert is_fusion(machines, fusion.backups, 1)
        assert fusion.fusion_state_space <= replication_state_space(machines, 1)


class TestSensorNetworkScenario:
    """The paper's motivating example: many sensors, one small backup."""

    def test_distinct_sensors_need_a_single_three_state_backup(self):
        # Five sensors, each counting a different environmental event: one
        # 3-state fusion machine (the mod-3 sum counter) protects them all,
        # whereas replication would add five more sensors.
        sensors = [
            mod_counter(3, count_event=e, events=tuple(range(5)), name="sensor-%d" % e)
            for e in range(5)
        ]
        fusion = generate_fusion(sensors, f=1)
        assert fusion.num_backups == 1
        assert fusion.backups[0].num_states == 3
        assert fusion.top_size == 3**5

    def test_hundred_sensors_with_shared_phenomena_are_already_redundant(self):
        # 100 sensors drawn from 4 phenomenon classes: duplicates make the
        # system inherently fault tolerant, so Algorithm 2 adds nothing.
        sensors = random_counter_family(100, modulus=3, num_events=4, rng=0)
        fusion = generate_fusion(sensors, f=1)
        assert len(sensors) == 100
        assert fusion.initial_dmin > 1
        assert fusion.num_backups == 0

    def test_sensor_crash_recovery_end_to_end(self):
        sensors = [
            mod_counter(3, count_event=e, events=(0, 1, 2), name="sensor-%d" % e)
            for e in range(3)
        ]
        system = DistributedSystem.with_fusion_backups(sensors, f=1)
        workload = WorkloadGenerator((0, 1, 2), seed=2).uniform(60)
        victim = sensors[1].name
        plan = FaultInjector(system.server_names(), seed=3).crash_plan([victim], after_event=30)
        report = system.run(workload, fault_plan=plan)
        assert report.consistent
        assert victim in report.recovered_servers
        assert report.num_backups == 1


class TestByzantinePipelines:
    def test_byzantine_fusion_detects_liar(self):
        machines = [
            mod_counter(3, count_event=e, events=(0, 1), name="ctr-%d" % e) for e in (0, 1)
        ]
        fusion = generate_byzantine_fusion(machines, 1)
        engine = BatchRecovery(fusion.product, fusion.backups)
        workload = WorkloadGenerator((0, 1), seed=4).uniform(25)
        observations = {m.name: m.run(workload) for m in fusion.all_machines}
        truth = observations["ctr-0"]
        # ctr-0 lies about its state.
        wrong = {"c0", "c1", "c2"} - {truth}
        observations["ctr-0"] = sorted(wrong)[0]
        outcome = engine.recover_from_byzantine(observations)
        assert outcome.machine_states["ctr-0"] == truth
        assert "ctr-0" in outcome.suspected_byzantine

    def test_fusion_vs_replication_simulation_consistency(self):
        machines = [
            mod_counter(3, count_event=e, events=(0, 1, 2), name="node-%d" % e) for e in (0, 1, 2)
        ]
        workload = WorkloadGenerator((0, 1, 2), seed=6).uniform(50)
        for scheme_factory in (
            lambda: DistributedSystem.with_fusion_backups(machines, f=1),
            lambda: DistributedSystem.with_replication(machines, f=1),
        ):
            system = scheme_factory()
            plan = FaultInjector(system.server_names(), seed=7).crash_plan(
                ["node-2"], after_event=25
            )
            report = system.run(workload, fault_plan=plan)
            assert report.consistent, system.backup_scheme


class TestSerialisationPipelines:
    def test_fusion_backups_survive_json_round_trip(self):
        machines = [mesi(), toggle_switch(toggle_event="evict", events=mesi().events)]
        fusion = generate_fusion(machines, f=1)
        restored = [loads_machine(dumps_machine(b)) for b in fusion.backups]
        # The restored machines are still a valid fusion of the originals.
        assert is_fusion(machines, restored, 1)

    def test_comparison_row_consistency_with_direct_computation(self):
        machines = [mesi(), tcp()]
        row = compare_fusion_to_replication(machines, 1)
        assert row.replication_space == replication_state_space(machines, 1)
        assert row.top_size == CrossProduct(machines).num_states
