"""Property-based tests for the paper's theorems: fusion generation, recovery,
the subset theorem, the existence theorem and the coding analogy."""

from __future__ import annotations

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from repro import (
    BatchRecovery,
    CrossProduct,
    FaultGraph,
    ReplicatedSystem,
    fusion_exists,
    generate_fusion,
    is_fusion,
    minimum_backups_required,
    partition_from_machine,
    replicate,
    required_dmin,
)
from repro.coding import machine_code
from repro.utils import validate_fusion_result

from .strategies import event_sequence_strategy, machine_set_strategy

RELAXED = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


class TestAlgorithm2Properties:
    @RELAXED
    @given(machines=machine_set_strategy(), f=st.integers(min_value=0, max_value=3))
    def test_generated_backups_form_a_fusion(self, machines, f):
        result = generate_fusion(machines, f)
        assert result.final_dmin > f
        assert is_fusion(machines, result.backups, f, product=result.product)
        validate_fusion_result(result)

    @RELAXED
    @given(machines=machine_set_strategy(), f=st.integers(min_value=0, max_value=3))
    def test_backup_count_is_theoretical_minimum(self, machines, f):
        result = generate_fusion(machines, f)
        assert result.num_backups == max(0, required_dmin(f) - result.initial_dmin)
        assert result.num_backups == minimum_backups_required(machines, f)

    @RELAXED
    @given(machines=machine_set_strategy(), f=st.integers(min_value=0, max_value=2))
    def test_backups_never_exceed_top_size(self, machines, f):
        result = generate_fusion(machines, f)
        for backup in result.backups:
            assert backup.num_states <= result.top_size

    @RELAXED
    @given(machines=machine_set_strategy(), f=st.integers(min_value=0, max_value=2))
    def test_subset_theorem_for_generated_fusions(self, machines, f):
        # Theorem 3: dropping the last backup leaves an (f-1, m-1)-fusion.
        result = generate_fusion(machines, f)
        if result.num_backups >= 1 and f >= 1:
            assert is_fusion(machines, result.backups[:-1], f - 1, product=result.product)

    @RELAXED
    @given(machines=machine_set_strategy(), f=st.integers(min_value=0, max_value=3))
    def test_existence_theorem(self, machines, f):
        # Theorem 4: an (f, m)-fusion exists iff m + dmin(A) > f; the number
        # of backups Algorithm 2 adds is consistent with it.
        result = generate_fusion(machines, f)
        m = result.num_backups
        assert fusion_exists(machines, f, m)
        if m > 0:
            assert not fusion_exists(machines, f, m - 1)

    @RELAXED
    @given(machines=machine_set_strategy(), f=st.integers(min_value=1, max_value=2))
    def test_replication_is_always_a_valid_fusion(self, machines, f):
        replicas = replicate(machines, f)
        assert is_fusion(machines, replicas, f)


class TestRecoveryProperties:
    @RELAXED
    @given(
        machines=machine_set_strategy(),
        events=event_sequence_strategy(max_length=25),
        f=st.integers(min_value=1, max_value=2),
        data=st.data(),
    )
    def test_crash_recovery_restores_ground_truth(self, machines, events, f, data):
        result = generate_fusion(machines, f)
        engine = BatchRecovery(result.product, result.backups)
        observations = {m.name: m.run(events) for m in result.all_machines}
        truth = dict(observations)
        all_names = list(observations)
        victims = data.draw(
            st.lists(st.sampled_from(all_names), min_size=0, max_size=f, unique=True)
        )
        for victim in victims:
            observations[victim] = None
        outcome = engine.recover(observations)
        for name in all_names:
            assert outcome.machine_states[name] == truth[name]

    @RELAXED
    @given(
        machines=machine_set_strategy(),
        events=event_sequence_strategy(max_length=25),
        data=st.data(),
    )
    def test_byzantine_recovery_restores_ground_truth(self, machines, events, data):
        f = 1
        result = generate_fusion(machines, f, byzantine=True)
        engine = BatchRecovery(result.product, result.backups)
        observations = {m.name: m.run(events) for m in result.all_machines}
        truth = dict(observations)
        machines_by_name = {m.name: m for m in result.all_machines}
        # One machine (with more than one state) may lie arbitrarily.
        candidates = [n for n, m in machines_by_name.items() if m.num_states > 1]
        if candidates:
            liar = data.draw(st.sampled_from(candidates))
            wrong_states = [s for s in machines_by_name[liar].states if s != truth[liar]]
            observations[liar] = data.draw(st.sampled_from(wrong_states))
        outcome = engine.recover_from_byzantine(observations)
        for name in observations:
            assert outcome.machine_states[name] == truth[name]

    @RELAXED
    @given(
        machines=machine_set_strategy(max_machines=2),
        events=event_sequence_strategy(max_length=20),
        data=st.data(),
    )
    def test_replication_crash_recovery_matches_fusion_semantics(self, machines, events, data):
        system = ReplicatedSystem(machines, f=1)
        observations = {}
        for machine in machines:
            final = machine.run(events)
            observations[machine.name] = final
            observations[machine.name + "/copy1"] = final
        truth = {m.name: m.run(events) for m in machines}
        victim = data.draw(st.sampled_from([m.name for m in machines]))
        observations[victim] = None
        outcome = system.recover(observations)
        assert outcome.machine_states == truth


class TestCodingAnalogy:
    @RELAXED
    @given(machines=machine_set_strategy(), f=st.integers(min_value=0, max_value=2))
    def test_code_distance_equals_fault_graph_dmin(self, machines, f):
        result = generate_fusion(machines, f)
        # A single-state top yields a one-word code, whose minimum distance
        # is conventionally 0 while the fault graph reports the machine
        # count; the analogy is only meaningful with at least two states.
        assume(result.top_size > 1)
        code = machine_code(machines, backups=result.backups, product=result.product)
        assert code.minimum_distance() == result.final_dmin
        assert code.correctable_erasures() >= f

    @RELAXED
    @given(machines=machine_set_strategy())
    def test_code_words_are_in_bijection_with_top_states(self, machines):
        product = CrossProduct(machines)
        code = machine_code(machines, product=product)
        assert code.size == product.num_states

    @RELAXED
    @given(
        machines=machine_set_strategy(),
        events=event_sequence_strategy(max_length=20),
        data=st.data(),
    )
    def test_erasure_decoding_agrees_with_vote_recovery(self, machines, events, data):
        result = generate_fusion(machines, 1)
        code = machine_code(machines, backups=result.backups, product=result.product)
        partitions = [
            partition_from_machine(result.product.machine, m) for m in result.all_machines
        ]
        top_index = result.product.machine.state_index(result.product.machine.run(events))
        word = tuple(int(p.labels[top_index]) for p in partitions)
        erased_position = data.draw(st.integers(min_value=0, max_value=len(word) - 1))
        received = list(word)
        received[erased_position] = None
        assert code.decode_erasures(received) == word
