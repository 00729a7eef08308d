"""Unit tests for partitions, closure, set representation (Algorithm 1)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import (
    NotComparableError,
    Partition,
    PartitionError,
    closed_coarsening,
    is_closed_partition,
    machine_from_partition,
    partition_from_machine,
    set_representation,
)
from repro.core.partition import merge_blocks_and_close, quotient_table
from repro.machines import fig2_machine_a, fig2_machine_b, fig3_partition, mesi


class TestPartitionBasics:
    def test_canonical_labels(self):
        assert Partition([5, 5, 7, 5]).labels.tolist() == [0, 0, 1, 0]

    def test_identity_and_single_block(self):
        assert Partition.identity(4).num_blocks == 4
        assert Partition.single_block(4).num_blocks == 1

    def test_from_blocks(self):
        partition = Partition.from_blocks([[0, 2], [1], [3]], 4)
        assert partition.num_blocks == 3
        assert partition.same_block(0, 2)
        assert not partition.same_block(0, 1)

    def test_from_blocks_requires_disjoint_cover(self):
        with pytest.raises(PartitionError):
            Partition.from_blocks([[0, 1], [1, 2]], 3)
        with pytest.raises(PartitionError):
            Partition.from_blocks([[0, 1]], 3)
        with pytest.raises(PartitionError):
            Partition.from_blocks([[0, 5]], 3)

    def test_blocks_roundtrip(self):
        partition = Partition.from_blocks([[0, 3], [1, 2]], 4)
        blocks = partition.blocks()
        assert frozenset({0, 3}) in blocks
        assert frozenset({1, 2}) in blocks
        assert partition.block_members(partition.block_of(1)) == frozenset({1, 2})

    def test_empty_partition_rejected(self):
        with pytest.raises(PartitionError):
            Partition([])

    def test_equality_and_hash(self):
        assert Partition([0, 0, 1]) == Partition([7, 7, 2])
        assert hash(Partition([0, 0, 1])) == hash(Partition([1, 1, 0]))
        assert Partition([0, 0, 1]) != Partition([0, 1, 1])

    def test_merge_elements(self):
        partition = Partition.identity(3).merge_elements(0, 2)
        assert partition.same_block(0, 2)
        assert partition.num_blocks == 2
        assert partition.merge_elements(0, 2) == partition


class TestPartitionOrder:
    def test_paper_order_direction(self):
        finer = Partition.identity(4)
        coarser = Partition.single_block(4)
        # coarser <= finer in the paper's order (bottom <= top).
        assert coarser <= finer
        assert not finer <= coarser
        assert coarser < finer
        assert finer > coarser

    def test_refines(self):
        fine = Partition.from_blocks([[0], [1], [2, 3]], 4)
        coarse = Partition.from_blocks([[0, 1], [2, 3]], 4)
        assert fine.refines(coarse)
        assert not coarse.refines(fine)
        assert coarse.is_coarsening_of(fine)

    def test_incomparable(self):
        p = Partition.from_blocks([[0, 1], [2], [3]], 4)
        q = Partition.from_blocks([[0], [1], [2, 3]], 4)
        assert not p <= q
        assert not q <= p
        assert not p.is_comparable_to(q)

    def test_mismatched_sizes_raise(self):
        with pytest.raises(PartitionError):
            Partition.identity(3).refines(Partition.identity(4))

    def test_join_is_common_refinement(self):
        p = Partition.from_blocks([[0, 1], [2, 3]], 4)
        q = Partition.from_blocks([[0, 2], [1, 3]], 4)
        join = p.join(q)
        assert join == Partition.identity(4)
        # Join is an upper bound of both.
        assert p <= join and q <= join

    def test_meet_is_transitive_union(self):
        p = Partition.from_blocks([[0, 1], [2], [3]], 4)
        q = Partition.from_blocks([[0], [1, 2], [3]], 4)
        meet = p.meet(q)
        assert meet == Partition.from_blocks([[0, 1, 2], [3]], 4)
        assert meet <= p and meet <= q

    def test_join_meet_with_extremes(self):
        p = Partition.from_blocks([[0, 1], [2, 3]], 4)
        top = Partition.identity(4)
        bottom = Partition.single_block(4)
        assert p.join(top) == top
        assert p.meet(bottom) == bottom
        assert p.join(bottom) == p
        assert p.meet(top) == p


class TestClosure:
    def test_component_partitions_are_closed(self, fig2_product):
        top = fig2_product.machine
        for component in range(2):
            partition = Partition(fig2_product.projection(component))
            assert is_closed_partition(top, partition)

    def test_non_closed_partition_detected(self, fig2_top):
        # Putting t1 (=(a1,b1)) and the initial state together is not closed.
        idx = {fig2_top.state_index(s) for s in [("a0", "b0"), ("a1", "b1")]}
        partition = Partition.from_blocks(
            [list(idx)] + [[i] for i in range(4) if i not in idx], 4
        )
        assert not is_closed_partition(fig2_top, partition)

    def test_closed_coarsening_returns_closed(self, fig2_top):
        merged = Partition.identity(4).merge_elements(0, 1)
        closed = closed_coarsening(fig2_top, merged)
        assert is_closed_partition(fig2_top, closed)
        assert closed <= merged

    def test_closed_coarsening_of_closed_partition_is_identity_operation(self, fig2_top, fig2_product):
        partition = Partition(fig2_product.projection(0))
        assert closed_coarsening(fig2_top, partition) == partition

    def test_closure_reaches_bottom_when_forced(self, fig2_top):
        # Merging t1 with t3 (=(a0,b2)) forces everything together except t0.
        i_t1 = fig2_top.state_index(("a1", "b1"))
        i_t3 = fig2_top.state_index(("a0", "b2"))
        closed = closed_coarsening(fig2_top, Partition.identity(4).merge_elements(i_t1, i_t3))
        assert is_closed_partition(fig2_top, closed)
        assert closed.num_blocks < 4

    def test_size_mismatch_raises(self, fig2_top):
        with pytest.raises(PartitionError):
            closed_coarsening(fig2_top, Partition.identity(7))
        with pytest.raises(PartitionError):
            is_closed_partition(fig2_top, Partition.identity(7))

    def test_quotient_table_shape_and_consistency(self, fig2_top):
        partition = fig3_partition("M1")
        table = quotient_table(fig2_top, partition)
        assert table.shape == (partition.num_blocks, fig2_top.num_events)
        # Quotient transitions agree with the original machine.
        labels = partition.labels
        for state in range(fig2_top.num_states):
            for ei in range(fig2_top.num_events):
                successor = int(fig2_top.transition_table[state, ei])
                assert table[labels[state], ei] == labels[successor]

    def test_merge_blocks_and_close_matches_closed_coarsening(self, fig2_top):
        partition = Partition.identity(4)
        quotient = quotient_table(fig2_top, partition)
        for a in range(4):
            for b in range(a + 1, 4):
                fast = Partition(merge_blocks_and_close(quotient, a, b)[partition.labels])
                slow = closed_coarsening(fig2_top, partition.merge_elements(a, b))
                assert fast == slow


class TestAlgorithm1:
    def test_set_representation_of_a_matches_fig5(self, fig2_top, machine_a):
        representation = set_representation(fig2_top, machine_a)
        assert representation["a0"] == frozenset({("a0", "b0"), ("a0", "b2")})
        assert representation["a1"] == frozenset({("a1", "b1")})
        assert representation["a2"] == frozenset({("a2", "b2")})

    def test_set_representation_of_b(self, fig2_top, machine_b):
        representation = set_representation(fig2_top, machine_b)
        assert representation["b0"] == frozenset({("a0", "b0")})
        assert representation["b2"] == frozenset({("a2", "b2"), ("a0", "b2")})

    def test_partition_from_machine_is_closed(self, fig2_top, machine_a):
        partition = partition_from_machine(fig2_top, machine_a)
        assert is_closed_partition(fig2_top, partition)
        assert partition.num_blocks == machine_a.num_states

    def test_unrelated_machine_raises(self, fig2_top):
        # A parity counter of event 0 disagrees with the top's structure:
        # the lockstep walk maps top state (a0, b2) to both parity values.
        from repro.machines import parity_checker

        with pytest.raises(NotComparableError):
            partition_from_machine(fig2_top, parity_checker(0, events=(0, 1)))

    def test_set_representation_of_unrelated_machine_raises(self, fig2_top):
        from repro.machines import parity_checker

        with pytest.raises(NotComparableError):
            set_representation(fig2_top, parity_checker(0, events=(0, 1)))

    def test_machine_ignoring_all_top_events_collapses_to_one_block(self, fig2_top):
        # MESI shares no events with the top, so under the top's alphabet it
        # never moves: it induces the single-block (bottom) partition.
        partition = partition_from_machine(fig2_top, mesi())
        assert partition.num_blocks == 1

    def test_top_relative_to_itself_is_identity(self, fig2_top):
        partition = partition_from_machine(fig2_top, fig2_top)
        assert partition == Partition.identity(fig2_top.num_states)


class TestQuotientMachine:
    def test_machine_from_partition_roundtrip(self, fig2_top, machine_a):
        partition = partition_from_machine(fig2_top, machine_a)
        quotient = machine_from_partition(fig2_top, partition, name="A-quotient")
        assert quotient.num_states == machine_a.num_states
        # The quotient behaves exactly like A on every input sequence.
        for sequence in ([0, 1, 0], [1, 1, 1, 0], [0] * 5):
            block = quotient.run(sequence)
            assert machine_a.run(sequence) in {s[0] for s in block}

    def test_non_closed_partition_rejected(self, fig2_top):
        bad = Partition.from_blocks([[0, 1], [2], [3]], 4)
        if not is_closed_partition(fig2_top, bad):
            with pytest.raises(PartitionError):
                machine_from_partition(fig2_top, bad)

    def test_single_block_partition_gives_one_state_machine(self, fig2_top):
        quotient = machine_from_partition(fig2_top, Partition.single_block(4))
        assert quotient.num_states == 1
