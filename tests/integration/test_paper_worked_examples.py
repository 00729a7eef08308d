"""Integration tests reproducing the paper's worked examples end to end.

Each test class corresponds to one figure or in-text example; together
they check that the library reproduces every concrete number the paper
states for its running examples (Figures 1–5 and the Section 3–5
walk-throughs).
"""

from __future__ import annotations

import pytest

from repro import (
    BatchRecovery,
    ClosedPartitionLattice,
    CrossProduct,
    FaultGraph,
    Partition,
    can_tolerate_byzantine_faults,
    can_tolerate_crash_faults,
    generate_fusion,
    inherent_fault_tolerance,
    is_fusion,
    machine_from_partition,
    partition_from_machine,
    set_representation,
)
from repro.machines import (
    FIG3_BLOCKS,
    fig1_machines,
    fig2_cross_product,
    fig2_machines,
    fig3_partition,
)


class TestFigure1:
    """Mod-3 counters, their cross product and the hand-built fusions."""

    def test_cross_product_has_nine_states(self):
        A, B, _, _ = fig1_machines()
        assert CrossProduct([A, B]).num_states == 9

    def test_f1_and_f2_are_small_fusions(self):
        A, B, F1, F2 = fig1_machines()
        assert F1.num_states == 3 and F2.num_states == 3
        assert is_fusion([A, B], [F1], 1)
        assert is_fusion([A, B], [F2], 1)

    def test_f1_recovers_a_after_crash(self):
        # The paper's narrative: if A (n0 mod 3) fails, B and F1 determine it.
        A, B, F1, _ = fig1_machines()
        product = CrossProduct([A, B])
        engine = BatchRecovery(product, [F1])
        events = [0, 1, 0, 0, 1, 1, 0, 0]
        observations = {
            A.name: None,
            B.name: B.run(events),
            F1.name: F1.run(events),
        }
        outcome = engine.recover(observations)
        assert outcome.machine_states[A.name] == A.run(events)

    def test_a_b_f1_f2_tolerate_one_byzantine_fault(self):
        # Stated in the paper's introduction (question 3).
        A, B, F1, F2 = fig1_machines()
        assert can_tolerate_byzantine_faults([A, B], 1, backups=[F1, F2])
        assert can_tolerate_crash_faults([A, B], 2, backups=[F1, F2])

    def test_algorithm2_matches_hand_built_fusion_size(self):
        A, B, F1, _ = fig1_machines()
        generated = generate_fusion([A, B], f=1)
        assert generated.backup_sizes == (F1.num_states,)

    def test_generated_backup_is_one_of_the_hand_built_fusions(self):
        # The generated 3-state backup induces the same partition of the
        # cross product as one of the paper's hand-built fusions — the
        # (n0 + n1) mod 3 counter F1 or the (n0 - n1) mod 3 counter F2.
        A, B, F1, F2 = fig1_machines()
        result = generate_fusion([A, B], f=1)
        top = result.product.machine
        generated = partition_from_machine(top, result.backups[0])
        hand_built = {partition_from_machine(top, F1), partition_from_machine(top, F2)}
        assert generated in hand_built


class TestFigure2And3:
    """Machines A, B, their 4-state cross product and the 10-element lattice."""

    def test_reachable_cross_product_matches_fig2(self):
        product = fig2_cross_product()
        assert product.num_states == 4
        assert set(product.state_tuples()) == {
            ("a0", "b0"),
            ("a1", "b1"),
            ("a2", "b2"),
            ("a0", "b2"),
        }

    def test_lattice_structure_matches_fig3(self):
        product = fig2_cross_product()
        lattice = ClosedPartitionLattice(product.machine)
        assert lattice.size == len(FIG3_BLOCKS) == 10
        for name in FIG3_BLOCKS:
            assert fig3_partition(name, product) in lattice

    def test_machine_partitions_sit_in_the_lattice(self):
        product = fig2_cross_product()
        A, B = fig2_machines()
        top = product.machine
        assert partition_from_machine(top, A) == fig3_partition("A", product)
        assert partition_from_machine(top, B) == fig3_partition("B", product)

    def test_order_relations_shown_in_fig3(self):
        product = fig2_cross_product()
        top_p = fig3_partition("top", product)
        bottom = fig3_partition("bottom", product)
        for name in ("A", "B", "M1", "M2", "M3", "M4", "M5", "M6"):
            partition = fig3_partition(name, product)
            assert bottom <= partition <= top_p
        # M1 <= top and M3 <= A <= top, as drawn.
        assert fig3_partition("M3", product) <= fig3_partition("A", product)
        assert fig3_partition("M4", product) <= fig3_partition("A", product)
        assert fig3_partition("M6", product) <= fig3_partition("M1", product)
        # Basis members are pairwise incomparable.
        basis_names = ("A", "B", "M1", "M2")
        for first in basis_names:
            for second in basis_names:
                if first != second:
                    assert not (
                        fig3_partition(first, product) <= fig3_partition(second, product)
                    )

    def test_m1_quotient_machine_has_three_states(self):
        product = fig2_cross_product()
        m1 = machine_from_partition(product.machine, fig3_partition("M1", product), name="M1")
        assert m1.num_states == 3


class TestSection3Examples:
    """The dmin statements and the Byzantine counter-example of Section 3."""

    def test_dmin_values_quoted_in_text(self):
        product = fig2_cross_product()
        A, B = fig2_machines()
        graph = FaultGraph.from_cross_product(product)
        assert graph.dmin() == 1
        with_m1 = graph.with_partition(fig3_partition("M1", product))
        assert with_m1.dmin() == 2
        with_m1_m2 = with_m1.with_partition(fig3_partition("M2", product))
        assert with_m1_m2.dmin() == 3

    def test_a_b_m1_tolerates_one_fault_without_backups(self):
        product = fig2_cross_product()
        A, B = fig2_machines()
        m1 = machine_from_partition(product.machine, fig3_partition("M1", product), name="M1")
        profile = inherent_fault_tolerance([A, B, m1])
        assert profile.dmin == 2
        assert profile.crash_faults == 1

    def test_basis_set_tolerates_two_crash_one_byzantine(self):
        product = fig2_cross_product()
        A, B = fig2_machines()
        backups = [
            machine_from_partition(product.machine, fig3_partition(name, product), name=name)
            for name in ("M1", "M2")
        ]
        assert can_tolerate_crash_faults([A, B], 2, backups=backups)
        assert can_tolerate_byzantine_faults([A, B], 1, backups=backups)
        assert not can_tolerate_byzantine_faults([A, B], 2, backups=backups)

    def test_byzantine_counterexample_with_two_liars(self):
        # Section 3: with top in t3 and both B and M1 lying, the majority
        # vote lands on t0 — demonstrating that two Byzantine faults are
        # NOT tolerated by {A, B, M1, M2}.
        product = fig2_cross_product()
        A, B = fig2_machines()
        backups = [
            machine_from_partition(product.machine, fig3_partition(name, product), name=name)
            for name in ("M1", "M2")
        ]
        engine = BatchRecovery(product, backups)
        t0, t3 = ("a0", "b0"), ("a0", "b2")
        m1_lie = frozenset({t0, ("a2", "b2")})  # M1's block {t0, t2}
        m2_truth = frozenset({t3})
        observations = {
            "A": "a0",          # truthful: block {t0, t3}
            "B": "b0",          # lying: block {t0}
            "M1": m1_lie,        # lying
            "M2": m2_truth,      # truthful
        }
        outcome = engine.recover(observations, strict=False)
        assert outcome.top_state == t0  # the wrong state, as the paper explains


class TestSection4Examples:
    """(f, m)-fusion existence, subsets and the M1/M6 converse example."""

    def test_m1_and_m6_are_each_1_1_fusions_but_not_a_2_2_fusion(self):
        product = fig2_cross_product()
        A, B = fig2_machines()
        m1 = machine_from_partition(product.machine, fig3_partition("M1", product), name="M1")
        m6 = machine_from_partition(product.machine, fig3_partition("M6", product), name="M6")
        assert is_fusion([A, B], [m1], 1)
        assert is_fusion([A, B], [m6], 1)
        assert not is_fusion([A, B], [m1, m6], 2)

    def test_m3_to_m6_form_a_2_4_fusion(self):
        product = fig2_cross_product()
        A, B = fig2_machines()
        backups = [
            machine_from_partition(product.machine, fig3_partition(name, product), name=name)
            for name in ("M3", "M4", "M5", "M6")
        ]
        assert is_fusion([A, B], backups, 2)

    def test_replication_is_a_2_4_fusion(self):
        A, B = fig2_machines()
        copies = [A.renamed("A'"), A.renamed("A''"), B.renamed("B'"), B.renamed("B''")]
        assert is_fusion([A, B], copies, 2)


class TestAlgorithm2WalkThrough:
    """Section 5.1's narration of the algorithm on A = {A, B}, f = 2."""

    def test_first_descent_reaches_m6_via_m1(self):
        product = fig2_cross_product()
        A, B = fig2_machines()
        result = generate_fusion([A, B], f=2, product=product)
        # The first machine the paper's walk-through adds is M6 (reached by
        # descending top -> M1 -> M6).
        assert result.partitions[0] == fig3_partition("M6", product)
        # The overall result tolerates two crash faults.
        assert result.final_dmin == 3
        assert is_fusion([A, B], result.backups, 2)

    def test_backup_count_is_minimum_possible(self):
        A, B = fig2_machines()
        result = generate_fusion([A, B], f=2)
        assert result.num_backups == 2  # f + 1 - dmin(A) = 2 + 1 - 1


class TestFigure5:
    """Set representation produced by Algorithm 1."""

    def test_set_representation_of_a(self):
        product = fig2_cross_product()
        A, _ = fig2_machines()
        representation = set_representation(product.machine, A)
        assert representation["a0"] == frozenset({("a0", "b0"), ("a0", "b2")})
        assert representation["a1"] == frozenset({("a1", "b1")})
        assert representation["a2"] == frozenset({("a2", "b2")})

    def test_top_states_are_singletons(self):
        product = fig2_cross_product()
        top = product.machine
        representation = set_representation(top, top)
        assert all(len(block) == 1 for block in representation.values())
        assert len(representation) == 4
