"""Unit tests for fault graphs, distance and dmin (Section 3, Fig. 4)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import FaultGraph, Partition, PartitionError, build_fault_graph, dmin_of_machines, separation_matrix
from repro.machines import fig3_partition


def _p(name, product):
    return fig3_partition(name, product)


class TestSeparationMatrix:
    def test_identity_partition_separates_everything(self):
        matrix = separation_matrix(Partition.identity(3))
        assert matrix.sum() == 6  # all off-diagonal entries
        assert not matrix.diagonal().any()

    def test_single_block_separates_nothing(self):
        assert separation_matrix(Partition.single_block(3)).sum() == 0


class TestFig4Graphs:
    def test_graph_of_a_alone(self, fig2_product):
        # Fig. 4(i): edge (t0, t3) has weight 0, all other edges weight 1.
        graph = FaultGraph(4, [_p("A", fig2_product)], state_labels=fig2_product.machine.states)
        assert graph.distance(("a0", "b0"), ("a0", "b2")) == 0
        assert graph.distance(("a0", "b0"), ("a1", "b1")) == 1
        assert graph.distance(("a2", "b2"), ("a0", "b2")) == 1
        assert graph.dmin() == 0

    def test_graph_of_a_and_b(self, fig2_fault_graph):
        # Fig. 4(ii): dmin = 1; the (t0,t1) edge has weight 2.
        assert fig2_fault_graph.dmin() == 1
        assert fig2_fault_graph.distance(("a0", "b0"), ("a1", "b1")) == 2
        assert fig2_fault_graph.distance(("a0", "b0"), ("a0", "b2")) == 1
        assert fig2_fault_graph.distance(("a2", "b2"), ("a0", "b2")) == 1

    def test_graph_of_basis_has_dmin_three(self, fig2_product):
        # Fig. 4(iii): G({A, B, M1, M2}) has smallest distance 3.
        graph = FaultGraph(
            4,
            [_p(n, fig2_product) for n in ("A", "B", "M1", "M2")],
            state_labels=fig2_product.machine.states,
        )
        assert graph.dmin() == 3

    def test_graph_with_top_machine(self, fig2_product):
        # Fig. 4(iv): G({A, B, M1, top}) also has dmin 3.
        graph = FaultGraph(
            4,
            [_p(n, fig2_product) for n in ("A", "B", "M1", "top")],
            state_labels=fig2_product.machine.states,
        )
        assert graph.dmin() == 3

    def test_graph_with_m6_and_top(self, fig2_product):
        # Fig. 4(v): G({A, B, M6, top}).
        graph = FaultGraph(
            4,
            [_p(n, fig2_product) for n in ("A", "B", "M6", "top")],
            state_labels=fig2_product.machine.states,
        )
        assert graph.dmin() == 3

    def test_m1_m6_is_not_enough_for_two_faults(self, fig2_product):
        # dmin({A, B, M1, M6}) = 2 (Section 4's converse example).
        graph = FaultGraph(
            4,
            [_p(n, fig2_product) for n in ("A", "B", "M1", "M6")],
            state_labels=fig2_product.machine.states,
        )
        assert graph.dmin() == 2


class TestFaultGraphApi:
    def test_from_machines_equals_from_cross_product(self, fig2_machines_pair, fig2_product):
        by_machines = FaultGraph.from_machines(fig2_product.machine, fig2_machines_pair)
        by_product = FaultGraph.from_cross_product(fig2_product)
        assert np.array_equal(by_machines.weight_matrix, by_product.weight_matrix)

    def test_weight_matrix_symmetric_zero_diagonal(self, fig2_fault_graph):
        weights = fig2_fault_graph.weight_matrix
        assert np.array_equal(weights, weights.T)
        assert not weights.diagonal().any()

    def test_weight_matrix_read_only(self, fig2_fault_graph):
        with pytest.raises(ValueError):
            fig2_fault_graph.weight_matrix[0, 0] = 99

    def test_weakest_edges(self, fig2_fault_graph, fig2_top):
        weakest = fig2_fault_graph.weakest_edges()
        labels = fig2_top.states
        as_labels = {frozenset({labels[i], labels[j]}) for i, j in weakest}
        assert as_labels == {
            frozenset({("a0", "b0"), ("a0", "b2")}),
            frozenset({("a2", "b2"), ("a0", "b2")}),
        }

    def test_edges_below(self, fig2_fault_graph):
        assert set(fig2_fault_graph.edges_below(2)) == set(fig2_fault_graph.weakest_edges())
        assert len(fig2_fault_graph.edges_below(100)) == 6

    def test_with_partition_is_incremental(self, fig2_fault_graph, fig2_product):
        extended = fig2_fault_graph.with_partition(_p("M1", fig2_product), name="M1")
        assert extended.num_machines == 3
        assert extended.dmin() == 2
        # The original graph is untouched (immutability).
        assert fig2_fault_graph.num_machines == 2

    def test_dmin_with_matches_with_partition(self, fig2_fault_graph, fig2_product):
        candidate = _p("M1", fig2_product)
        assert fig2_fault_graph.dmin_with(candidate) == fig2_fault_graph.with_partition(candidate).dmin()

    def test_covers(self, fig2_fault_graph, fig2_product):
        weakest = fig2_fault_graph.weakest_edges()
        assert fig2_fault_graph.covers(_p("M1", fig2_product), weakest)
        assert not fig2_fault_graph.covers(_p("M3", fig2_product), weakest)

    def test_distance_by_index(self, fig2_fault_graph):
        assert fig2_fault_graph.distance(0, 1) == fig2_fault_graph.weight(0, 1)

    def test_unknown_label_raises(self, fig2_fault_graph):
        with pytest.raises(PartitionError):
            fig2_fault_graph.distance(("zz", "zz"), ("a0", "b0"))

    def test_single_state_graph_conventions(self):
        graph = FaultGraph(1, [Partition.identity(1), Partition.identity(1)])
        assert graph.dmin() == 2
        assert graph.weakest_edges() == []

    def test_partition_size_mismatch_rejected(self):
        with pytest.raises(PartitionError):
            FaultGraph(4, [Partition.identity(3)])

    def test_machine_names_mismatch_rejected(self):
        with pytest.raises(PartitionError):
            FaultGraph(3, [Partition.identity(3)], machine_names=["a", "b"])

    def test_edges_listing(self, fig2_fault_graph):
        edges = fig2_fault_graph.edges()
        assert len(edges) == 6
        assert all(i < j for i, j, _ in edges)

    def test_as_label_dict(self, fig2_fault_graph):
        weights = fig2_fault_graph.as_label_dict()
        assert weights[(("a0", "b0"), ("a1", "b1"))] == 2

    def test_to_networkx(self, fig2_fault_graph):
        graph = fig2_fault_graph.to_networkx()
        assert graph.number_of_nodes() == 4
        assert graph.number_of_edges() == 6

    def test_module_level_helpers(self, fig2_machines_pair, fig2_top):
        assert dmin_of_machines(fig2_top, fig2_machines_pair) == 1
        assert build_fault_graph(fig2_top, fig2_machines_pair).dmin() == 1

    def test_condensed_weights_match_dense_matrix(self, fig2_fault_graph):
        rows, cols = np.triu_indices(fig2_fault_graph.num_states, k=1)
        assert np.array_equal(
            fig2_fault_graph.condensed_weights,
            fig2_fault_graph.weight_matrix[rows, cols],
        )

    def test_weakest_edge_arrays_match_list(self, fig2_fault_graph):
        rows, cols = fig2_fault_graph.weakest_edge_arrays()
        assert list(zip(rows.tolist(), cols.tolist())) == fig2_fault_graph.weakest_edges()


class TestResolveAmbiguity:
    """Regression tests: integer state labels must win over raw indices.

    Previously an integer that was a valid index but *not* a label was
    silently resolved as an index even on graphs whose labels are
    integers, so e.g. ``distance(1, ...)`` on a graph labelled
    ``(5, 7, 9)`` quietly addressed the state labelled 7.
    """

    def _graph(self, labels):
        return FaultGraph(3, [Partition.identity(3)], state_labels=labels)

    def test_integer_label_resolves_as_label_not_index(self):
        # Labels are a permutation of indices: label lookup must win.
        graph = self._graph((2, 0, 1))
        assert graph._resolve(2) == 0
        assert graph._resolve(0) == 1
        assert graph._resolve(1) == 2

    def test_non_label_integer_on_integer_labelled_graph_raises(self):
        graph = self._graph((5, 7, 9))
        assert graph.distance(5, 7) == 1  # labels resolve fine
        with pytest.raises(PartitionError):
            graph.distance(0, 5)  # 0 is a valid index but not a label

    def test_index_addressing_still_works_without_integer_labels(self):
        graph = self._graph(("x", "y", "z"))
        assert graph.distance(0, 1) == graph.distance("x", "y")

    def test_out_of_range_index_raises(self):
        graph = self._graph(("x", "y", "z"))
        with pytest.raises(PartitionError):
            graph.distance(0, 3)

    def test_unhashable_state_raises_cleanly(self):
        graph = self._graph(("x", "y", "z"))
        with pytest.raises(PartitionError):
            graph.distance(["x"], "y")

    def test_integer_labels_still_shadow_indices_down_a_chain(self):
        child = self._graph((5, 7, 9)).with_partition(Partition([0, 0, 1]))
        assert child.distance(5, 7) == 1
        with pytest.raises(PartitionError):
            child.distance(0, 5)

    def test_label_index_is_built_once_per_chain(self):
        graph = self._graph(("x", "y", "z"))
        child = graph.with_partition(Partition([0, 0, 1]))
        grandchild = child.with_partition(Partition([0, 1, 1]))
        assert graph._label_index is child._label_index is grandchild._label_index
        assert graph._label_index._index is None  # nothing built before a lookup
        assert grandchild.distance("x", "z") == 3
        built = graph._label_index._index
        assert built is not None
        assert graph.distance("x", "y") == 1
        assert graph._label_index._index is built
