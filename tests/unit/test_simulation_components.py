"""Unit tests for the simulator building blocks: workloads, servers, faults,
clients, traces."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

from repro import SimulationError
from repro.machines import fig1_counter_a, mesi
from repro.simulation import (
    Client,
    Environment,
    ExecutionTrace,
    FaultEvent,
    FaultInjector,
    FaultKind,
    FaultPlan,
    Server,
    ServerStatus,
    TraceRecordKind,
    WorkloadGenerator,
    merge_workloads,
    protocol_workload,
    round_robin_workload,
)


class TestWorkloads:
    def test_uniform_length_and_alphabet(self):
        generator = WorkloadGenerator([0, 1], seed=1)
        workload = generator.uniform(100)
        assert len(workload) == 100
        assert set(workload) <= {0, 1}

    def test_seed_determinism(self):
        a = WorkloadGenerator([0, 1, 2], seed=5).uniform(50)
        b = WorkloadGenerator([0, 1, 2], seed=5).uniform(50)
        assert a == b

    def test_weighted_generation(self):
        generator = WorkloadGenerator(["rare", "common"], seed=2, weights=[0.0, 1.0])
        assert set(generator.uniform(20)) == {"common"}

    def test_bursty_runs(self):
        workload = WorkloadGenerator([0, 1], seed=3).bursty(40, burst_length=5)
        assert len(workload) == 40

    def test_markov_stickiness_bounds(self):
        generator = WorkloadGenerator([0, 1], seed=4)
        assert len(generator.markov(30, stickiness=0.9)) == 30
        with pytest.raises(SimulationError):
            generator.markov(10, stickiness=1.5)

    def test_stream_is_endless(self):
        generator = WorkloadGenerator([0, 1], seed=6)
        assert len(list(itertools.islice(generator.stream(), 17))) == 17

    def test_invalid_parameters(self):
        with pytest.raises(SimulationError):
            WorkloadGenerator([])
        with pytest.raises(SimulationError):
            WorkloadGenerator([0, 1], weights=[1.0])
        with pytest.raises(SimulationError):
            WorkloadGenerator([0, 1], seed=1).uniform(-1)

    def test_round_robin(self):
        assert round_robin_workload(["a", "b"], 5) == ["a", "b", "a", "b", "a"]
        with pytest.raises(SimulationError):
            round_robin_workload([], 3)

    def test_protocol_workload(self):
        workload = protocol_workload([("open", 1), ("send", 3)])
        assert workload == ["open", "send", "send", "send"]
        with pytest.raises(SimulationError):
            protocol_workload([("open", -1)])

    def test_merge_preserves_per_client_order(self):
        merged = merge_workloads([["a1", "a2", "a3"], ["b1", "b2"]], seed=0)
        assert len(merged) == 5
        assert [e for e in merged if e.startswith("a")] == ["a1", "a2", "a3"]
        assert [e for e in merged if e.startswith("b")] == ["b1", "b2"]


class TestServer:
    def test_normal_execution(self):
        server = Server(fig1_counter_a())
        server.apply_sequence([0, 0, 1])
        assert server.report_state() == "c2"
        assert server.status is ServerStatus.HEALTHY
        assert server.is_consistent()
        assert server.events_applied == 3

    def test_crash_loses_state_but_truth_continues(self):
        server = Server(fig1_counter_a())
        server.apply(0)
        server.crash()
        assert server.report_state() is None
        server.apply(0)
        assert server.true_state == "c2"
        assert server.status is ServerStatus.CRASHED

    def test_restore_after_crash(self):
        server = Server(fig1_counter_a())
        server.apply(0)
        server.crash()
        server.apply(0)
        server.restore("c2")
        assert server.status is ServerStatus.HEALTHY
        assert server.is_consistent()

    def test_restore_rejects_unknown_state(self):
        server = Server(fig1_counter_a())
        with pytest.raises(SimulationError):
            server.restore("zz")

    def test_byzantine_corruption_changes_state(self):
        server = Server(mesi())
        target = server.corrupt(rng=np.random.default_rng(0))
        assert server.status is ServerStatus.BYZANTINE
        assert server.report_state() == target
        assert not server.is_consistent()

    def test_corrupt_with_explicit_target(self):
        server = Server(mesi())
        server.corrupt(target="M")
        assert server.report_state() == "M"

    def test_corrupt_rejects_current_state(self):
        server = Server(mesi())
        with pytest.raises(SimulationError):
            server.corrupt(target="I")

    def test_cannot_corrupt_crashed_server(self):
        server = Server(mesi())
        server.crash()
        with pytest.raises(SimulationError):
            server.corrupt()


class TestFaultPlans:
    def test_plan_counts(self):
        plan = FaultPlan(
            (
                FaultEvent("a", FaultKind.CRASH, 3),
                FaultEvent("b", FaultKind.BYZANTINE, 5),
            )
        )
        assert plan.crash_count == 1
        assert plan.byzantine_count == 1
        assert len(plan) == 2
        assert plan.faults_after(3)[0].server == "a"
        assert plan.faults_after(4) == []

    def test_duplicate_server_rejected(self):
        with pytest.raises(SimulationError):
            FaultPlan(
                (
                    FaultEvent("a", FaultKind.CRASH, 1),
                    FaultEvent("a", FaultKind.CRASH, 2),
                )
            )

    def test_injector_explicit_plan_validates_names(self):
        injector = FaultInjector(["a", "b"], seed=0)
        with pytest.raises(SimulationError):
            injector.crash_plan(["ghost"], after_event=0)

    def test_injector_duplicate_names_rejected(self):
        with pytest.raises(SimulationError):
            FaultInjector(["a", "a"])

    def test_random_plan_respects_budget(self):
        injector = FaultInjector(["a", "b", "c", "d"], seed=1)
        plan = injector.random_plan(num_crash=2, num_byzantine=1, workload_length=10)
        assert plan.crash_count == 2
        assert plan.byzantine_count == 1
        assert len(set(plan.servers)) == 3
        assert all(0 <= event.after_event <= 10 for event in plan.events)

    def test_random_plan_over_budget_rejected(self):
        injector = FaultInjector(["a", "b"], seed=1)
        with pytest.raises(SimulationError):
            injector.random_plan(num_crash=2, num_byzantine=1, workload_length=5)

    def test_random_plan_eligible_subset(self):
        injector = FaultInjector(["a", "b", "c"], seed=2)
        plan = injector.random_plan(1, 0, 5, eligible=["c"])
        assert plan.servers == ("c",)

    def test_random_plan_same_seed_identical(self):
        servers = ["a", "b", "c", "d", "e"]
        plans = [
            FaultInjector(servers, seed=17).random_plan(
                num_crash=2, num_byzantine=2, workload_length=20
            )
            for _ in range(2)
        ]
        assert plans[0].events == plans[1].events

    def test_random_plan_counts_and_bounds_hold_across_seeds(self):
        servers = ["s%d" % i for i in range(6)]
        for seed in range(8):
            plan = FaultInjector(servers, seed=seed).random_plan(
                num_crash=2, num_byzantine=3, workload_length=12
            )
            assert plan.crash_count == 2
            assert plan.byzantine_count == 3
            assert len(set(plan.servers)) == 5
            assert all(0 <= event.after_event <= 12 for event in plan.events)

    def test_faults_after_partitions_the_plan(self):
        plan = FaultInjector(["a", "b", "c"], seed=4).random_plan(
            num_crash=2, num_byzantine=1, workload_length=6
        )
        recovered = []
        for index in range(0, 7):
            batch = plan.faults_after(index)
            assert all(event.after_event == index for event in batch)
            recovered.extend(batch)
        assert sorted(recovered, key=lambda e: e.server) == sorted(
            plan.events, key=lambda e: e.server
        )

    def test_engine_faults_rejected_in_server_plans(self):
        with pytest.raises(SimulationError, match="engine_chaos"):
            FaultPlan((FaultEvent("a", FaultKind.WORKER_KILL, 0),))

    def test_engine_chaos_builder_matches_chaos_spec(self):
        from repro.core.resilience import ChaosSpec

        injector = FaultInjector(["a", "b"], seed=0)
        spec = injector.engine_chaos(
            seed=7, worker_kill=1.0, stages=["runtime_step"], max_faults=1
        )
        assert isinstance(spec, ChaosSpec)
        assert spec.active
        assert FaultKind.WORKER_KILL.targets_engine
        assert FaultKind.KILL_DURING_WRITE.targets_engine
        assert FaultKind.KILL_BETWEEN_LEVELS.targets_engine
        assert not FaultKind.CRASH.targets_engine
        # Same seed as the env-spec path, same deterministic draws.
        reference = ChaosSpec.parse("worker_kill=1.0,stages=runtime_step,max=1,seed=7")
        assert spec.draw("runtime_step") == reference.draw("runtime_step")
        assert spec.draw("runtime_step") is None and reference.draw("runtime_step") is None


class TestClientsAndEnvironment:
    def test_client_sequence(self):
        client = Client("c1", ["x", "y"])
        assert client.remaining == 2
        assert client.next_event() == "x"
        assert not client.exhausted()
        assert client.next_event() == "y"
        assert client.exhausted()
        with pytest.raises(SimulationError):
            client.next_event()

    def test_environment_merges_and_delivers(self):
        env = Environment([Client("c1", ["a", "b"]), Client("c2", ["c"])], seed=0)
        assert env.pending() == 3
        delivered = list(env)
        assert len(delivered) == 3
        assert env.pending() == 0

    def test_environment_pause_resume(self):
        env = Environment([Client("c1", ["a", "b"])], seed=0)
        env.pause()
        assert env.paused
        with pytest.raises(SimulationError):
            env.next_event()
        env.resume()
        assert env.next_event() == "a"

    def test_environment_requires_clients(self):
        with pytest.raises(SimulationError):
            Environment([])

    def test_environment_exhaustion(self):
        env = Environment([Client("c1", ["a"])], seed=0)
        env.next_event()
        with pytest.raises(SimulationError):
            env.next_event()


class TestTrace:
    def test_records_accumulate(self):
        trace = ExecutionTrace()
        trace.record_event(1, "x")
        trace.record_fault(1, "server", "crash")
        trace.record_recovery(1, {"server": "s0"}, ("liar",))
        trace.record_verification(1, True, "ok")
        trace.record_note(1, "note")
        assert len(trace) == 5
        assert trace.events_applied() == ["x"]
        assert len(trace.faults()) == 1
        assert len(trace.recoveries()) == 1
        assert trace.verifications()[0].payload["consistent"] is True
        assert trace.summary() == {
            "event": 1,
            "fault": 1,
            "recovery": 1,
            "verification": 1,
            "note": 1,
        }

    def test_records_are_immutable_tuples(self):
        trace = ExecutionTrace()
        trace.record_event(1, "x")
        record = trace.records[0]
        assert record.kind is TraceRecordKind.EVENT
        assert record.step == 1
