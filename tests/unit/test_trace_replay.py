"""Unit tests for trace sequence numbers, delivery records and replay.

A trace is the run's flight recorder: every record carries a monotonic
sequence number, network deliveries are logged attempt by attempt, and
replaying the trace against fresh servers reproduces the run's final
visible states exactly — faults, recoveries and all.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import SimulationError
from repro.machines import fig1_counter_a, fig1_counter_b
from repro.simulation import DistributedSystem, FaultInjector
from repro.simulation.fabric import NetworkChaosSpec
from repro.simulation.trace import ExecutionTrace, TraceRecordKind

WORKLOAD = [0, 1, 0, 0, 1, 0, 1, 1] * 3


def _machines():
    return [fig1_counter_a(), fig1_counter_b()]


def _system(**kwargs):
    return DistributedSystem.with_fusion_backups(_machines(), f=2, **kwargs)


def _all_machines(system):
    return list(system.originals) + list(system.backups)


class TestSequenceNumbers:
    def test_seq_is_monotonic_and_dense(self):
        system = _system()
        injector = FaultInjector(system.server_names(), seed=3)
        plan = injector.crash_plan([system.server_names()[0]], after_event=5)
        system.run(WORKLOAD, fault_plan=plan)
        seqs = [record.seq for record in system.trace.records]
        assert seqs == list(range(len(seqs)))

    def test_seq_orders_records_within_one_step(self):
        trace = ExecutionTrace()
        trace.record_fault(1, "s", "crash")
        trace.record_event(1, "e")
        trace.record_recovery(1, {"s": "q0"})
        kinds = [(r.seq, r.kind) for r in trace.records]
        assert kinds == [
            (0, TraceRecordKind.FAULT),
            (1, TraceRecordKind.EVENT),
            (2, TraceRecordKind.RECOVERY),
        ]


class TestDeliveryRecords:
    def test_fabric_runs_log_deliveries(self):
        system = _system(
            network=NetworkChaosSpec.parse("drop=0.3,duplicate=0.2,seed=5")
        )
        report = system.run(WORKLOAD)
        deliveries = system.trace.deliveries()
        assert deliveries, "fabric runs must log delivery attempts"
        outcomes = system.trace.delivery_summary()
        # Every message eventually got through, exactly once per server.
        assert outcomes["delivered"] == len(WORKLOAD) * len(system.server_names())
        assert outcomes.get("dropped", 0) > 0
        assert report.delivery == outcomes

    def test_fabric_free_runs_have_no_deliveries(self):
        system = _system()
        report = system.run(WORKLOAD)
        assert system.trace.deliveries() == []
        assert system.trace.delivery_summary() == {}
        assert report.delivery is None


class TestReplay:
    def test_replay_reproduces_crash_and_recovery(self):
        system = _system()
        injector = FaultInjector(system.server_names(), seed=3)
        plan = injector.crash_plan(list(system.server_names())[:2], after_event=7)
        report = system.run(WORKLOAD, fault_plan=plan)
        assert report.consistent
        assert system.trace.replay(_all_machines(system)) == system.states()

    def test_replay_reproduces_byzantine_corruption(self):
        system = _system()
        injector = FaultInjector(system.server_names(), seed=3)
        plan = injector.byzantine_plan([system.server_names()[1]], after_event=4)
        report = system.run(WORKLOAD, fault_plan=plan)
        assert report.consistent
        assert system.trace.replay(_all_machines(system)) == system.states()

    def test_replay_reproduces_network_chaos_run(self):
        system = _system(
            network=NetworkChaosSpec.parse(
                "drop=0.25,duplicate=0.15,reorder=0.1,delay=0.15,seed=11"
            ),
            supervised=True,
        )
        injector = FaultInjector(system.server_names(), seed=9)
        plan = injector.crash_plan([system.server_names()[2]], after_event=10)
        report = system.run(WORKLOAD, fault_plan=plan)
        assert report.status == "healthy"
        assert system.trace.replay(_all_machines(system)) == system.states()

    def test_replay_reproduces_unrecovered_crash(self):
        # No recovery pass: the crashed server must replay to None.
        system = DistributedSystem.unprotected(_machines())
        victim = system.server_names()[0]
        system.apply_event(0)
        system.server(victim).crash()
        system.trace.record_fault(1, victim, "crash")
        system.apply_event(1)
        states = system.trace.replay(list(system.originals))
        assert states[victim] is None
        assert states == system.states()

    def test_replay_requires_matching_machines(self):
        trace = ExecutionTrace()
        trace.record_fault(0, "ghost", "crash")
        with pytest.raises(SimulationError, match="unknown server"):
            trace.replay(_machines())

    def test_replay_rejects_duplicate_machine_names(self):
        trace = ExecutionTrace()
        machine = fig1_counter_a()
        with pytest.raises(SimulationError, match="unique names"):
            trace.replay([machine, machine])

    def test_replay_needs_byzantine_target(self):
        trace = ExecutionTrace()
        machines = _machines()
        trace.record_fault(0, machines[0].name, "byzantine", detail="legacy record")
        with pytest.raises(SimulationError, match="no corruption target"):
            trace.replay(machines)
