"""Unit tests for Algorithm 3 (crash and Byzantine recovery)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    BatchRecovery,
    CrossProduct,
    FaultToleranceExceededError,
    RecoveryError,
    generate_fusion,
    machine_from_partition,
    recover_top_state,
    vote_counts,
)
from repro.machines import fig3_partition


def _machine(name, product):
    return machine_from_partition(product.machine, fig3_partition(name, product), name=name)


@pytest.fixture
def paper_system(fig2_machines_pair, fig2_product):
    """The system {A, B, M1, M2} used in the paper's recovery examples."""
    backups = [_machine("M1", fig2_product), _machine("M2", fig2_product)]
    engine = BatchRecovery(fig2_product, backups)
    return fig2_machines_pair, backups, engine, fig2_product


class TestVoteCounting:
    def test_vote_counts(self):
        counts = vote_counts([[0, 3], [3], [3]], 4)
        assert counts.tolist() == [1, 0, 0, 3]

    def test_recover_top_state_majority(self):
        index, counts = recover_top_state([[0, 3], [3], [3]], 4)
        assert index == 3
        assert counts[3] == 3

    def test_tie_raises_in_strict_mode(self):
        with pytest.raises(RecoveryError):
            recover_top_state([[0], [1]], 2, strict=True)

    def test_tie_resolved_in_lenient_mode(self):
        index, _ = recover_top_state([[0], [1]], 2, strict=False)
        assert index == 0

    def test_no_observations_raises(self):
        with pytest.raises(RecoveryError):
            recover_top_state([], 4)

    def test_bad_num_states_raises(self):
        with pytest.raises(RecoveryError):
            recover_top_state([[0]], 0)


class TestPaperCrashExample:
    def test_crash_of_b_and_m1(self, paper_system):
        # Section 5.2: B and M1 crash; A reports {t0,t3} and M2 reports {t3};
        # the algorithm recovers t3.
        machines, backups, engine, product = paper_system
        t3 = ("a0", "b2")
        observations = {
            "A": "a0",       # A's block {t0, t3}
            "B": None,        # crashed
            "M1": None,       # crashed
            "M2": frozenset({t3}),
        }
        outcome = engine.recover(observations)
        assert outcome.top_state == t3
        assert set(outcome.crashed) == {"B", "M1"}
        assert outcome.machine_states["B"] == "b2"
        assert outcome.machine_states["M1"] == frozenset({("a0", "b0"), ("a2", "b2")}) or outcome.machine_states["M1"] == frozenset({t3})

    def test_counts_match_paper(self, paper_system):
        machines, backups, engine, product = paper_system
        t3 = ("a0", "b2")
        observations = {"A": "a0", "B": None, "M1": None, "M2": frozenset({t3})}
        outcome = engine.recover(observations)
        t3_index = product.index_of(t3)
        t0_index = product.index_of(("a0", "b0"))
        assert outcome.counts[t3_index] == 2
        assert outcome.counts[t0_index] == 1

    def test_missing_observation_counts_as_crash(self, paper_system):
        machines, backups, engine, product = paper_system
        outcome = engine.recover({"A": "a0", "M2": frozenset({("a0", "b2")})})
        assert set(outcome.crashed) == {"B", "M1"}

    def test_too_many_crashes_detected(self, paper_system):
        machines, backups, engine, product = paper_system
        with pytest.raises(FaultToleranceExceededError):
            engine.recover(
                {"M2": frozenset({("a0", "b2")})},
                expected_max_faults=2,
            )

    def test_all_crashed_raises(self, paper_system):
        _, _, engine, _ = paper_system
        with pytest.raises(RecoveryError):
            engine.recover({})


class TestPaperByzantineExample:
    def test_single_liar_is_outvoted(self, paper_system):
        # Section 5.2: A, B, M2 report blocks containing t0; M1 lies with an
        # incorrect state; the algorithm still recovers t0.
        machines, backups, engine, product = paper_system
        t0 = ("a0", "b0")
        observations = {
            "A": "a0",
            "B": "b0",
            "M1": frozenset({("a1", "b1")}),
            "M2": frozenset({t0}),
        }
        outcome = engine.recover_from_byzantine(observations)
        assert outcome.top_state == t0
        assert outcome.suspected_byzantine == ("M1",)

    def test_byzantine_requires_all_reports(self, paper_system):
        _, _, engine, _ = paper_system
        with pytest.raises(RecoveryError):
            engine.recover_from_byzantine({"A": "a0", "B": "b0", "M1": None, "M2": None})


class TestBatchRecoveryApi:
    def test_observation_for_unknown_state_rejected(self, paper_system):
        _, _, engine, _ = paper_system
        with pytest.raises(RecoveryError):
            engine.recover({"A": "not-a-state", "B": "b0"})

    def test_observation_for_unknown_machine_rejected(self, paper_system):
        _, _, engine, _ = paper_system
        with pytest.raises(RecoveryError):
            engine.recover({"ghost": "x", "A": "a0"})

    def test_machine_names_order(self, paper_system):
        machines, backups, engine, _ = paper_system
        assert engine.machine_names[:2] == ("A", "B")
        assert engine.num_machines == 4

    def test_duplicate_machine_names_get_suffixes(self, fig1_counters):
        product = CrossProduct(fig1_counters)
        duplicate = fig1_counters[0]
        engine = BatchRecovery(product, [duplicate])
        assert len(engine.machine_names) == 3
        assert len(set(engine.machine_names)) == 3

    def test_recover_from_crashes_wrapper(self, fig1_counters):
        result = generate_fusion(fig1_counters, f=1)
        engine = BatchRecovery(result.product, result.backups)
        sequence = [0, 1, 1, 0, 0]
        observations = {m.name: m.run(sequence) for m in result.all_machines}
        observations[fig1_counters[0].name] = None
        outcome = engine.recover_from_crashes(observations, f=1)
        assert outcome.machine_states[fig1_counters[0].name] == fig1_counters[0].run(sequence)


class TestEndToEndRecoveryAcrossWorkloads:
    @pytest.mark.parametrize("crash_target", [0, 1])
    def test_single_crash_recovery_for_any_victim(self, fig1_counters, crash_target):
        result = generate_fusion(fig1_counters, f=1)
        engine = BatchRecovery(result.product, result.backups)
        rng = np.random.default_rng(crash_target)
        workload = [int(e) for e in rng.integers(0, 2, size=60)]
        observations = {m.name: m.run(workload) for m in result.all_machines}
        victim = fig1_counters[crash_target].name
        truth = observations[victim]
        observations[victim] = None
        outcome = engine.recover(observations)
        assert outcome.machine_states[victim] == truth
