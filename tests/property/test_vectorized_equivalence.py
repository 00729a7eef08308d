"""Property tests: the vectorised fast paths agree with reference code.

The performance core (vectorised SP closure, ``refines``/``meet``,
condensed fault-graph ``dmin``/``weakest_edges``, the doomed-pair pruning
filter) re-implements operations that have short, obviously-correct
formulations.  These tests pit each fast path against such a reference on
random machines and partitions, so any future optimisation that drifts
semantically fails here first.

The sparse engine extends the same harness naturally: the dense
condensed engine — itself validated against the references above — is
the reference for the sparse ledger graph, the sparse pruning fixpoint,
the vectorised product exploration and the sparse lattice descent
(``TestSparseEngineEquivalence``), on the full random-machine corpus.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.core.fault_graph as fault_graph_module
import repro.core.fusion as fusion_module
from repro import CrossProduct, FaultGraph, Partition, generate_fusion
from repro.core.fault_graph import condensed_indices, separation_matrix
from repro.core.fusion import _doomed_pairs
from repro.core.partition import (
    closed_coarsening,
    closure_of_labels,
    is_closed_partition,
    quotient_table,
)
from repro.core.sparse import (
    PairLedger,
    coblock_pair_arrays,
    doomed_pair_keys,
    iter_pair_chunks,
    low_weight_pairs,
)

from .strategies import dfsm_strategy, machine_set_strategy, partition_strategy
from .test_closure_oracle import is_closed_oracle, pair_closure_oracle, seed_pairs_of


# ----------------------------------------------------------------------
# Reference implementations (straightforward, unvectorised)
# ----------------------------------------------------------------------
def ref_refines(fine: Partition, coarse: Partition) -> bool:
    seen = {}
    for mine, theirs in zip(fine.labels.tolist(), coarse.labels.tolist()):
        if mine in seen and seen[mine] != theirs:
            return False
        seen[mine] = theirs
    return True


def ref_meet(first: Partition, second: Partition) -> Partition:
    parent = list(range(first.num_elements))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for partition in (first, second):
        firsts = {}
        for element, label in enumerate(partition.labels.tolist()):
            if label in firsts:
                parent[find(element)] = find(firsts[label])
            else:
                firsts[label] = element
    return Partition([find(i) for i in range(first.num_elements)])


def ref_dmin(graph: FaultGraph) -> int:
    if graph.num_states == 1:
        return graph.num_machines
    weights = np.zeros((graph.num_states, graph.num_states), dtype=np.int64)
    for partition in graph.partitions:
        weights += separation_matrix(partition)
    return int(weights[~np.eye(graph.num_states, dtype=bool)].min())


def ref_weakest_edges(graph: FaultGraph):
    if graph.num_states == 1:
        return []
    d = ref_dmin(graph)
    dense = graph.weight_matrix
    out = []
    for i in range(graph.num_states):
        for j in range(i + 1, graph.num_states):
            if dense[i, j] == d:
                out.append((i, j))
    return out


# ----------------------------------------------------------------------
# Strategies
# ----------------------------------------------------------------------
def machine_and_partition(draw, max_states=6, num_events=2):
    machine = draw(dfsm_strategy(max_states=max_states, num_events=num_events))
    partition = draw(partition_strategy(machine.num_states))
    return machine, partition


@st.composite
def machine_partition_strategy(draw):
    return machine_and_partition(draw)


@st.composite
def graph_strategy(draw, max_states=5, max_machines=3):
    n = draw(st.integers(min_value=1, max_value=max_states))
    count = draw(st.integers(min_value=1, max_value=max_machines))
    partitions = [draw(partition_strategy(n)) for _ in range(count)]
    return FaultGraph(n, partitions)


# ----------------------------------------------------------------------
# Partition lattice operations
# ----------------------------------------------------------------------
class TestPartitionOperations:
    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda n: st.tuples(partition_strategy(n), partition_strategy(n))
        )
    )
    def test_refines_matches_reference(self, pair):
        fine, coarse = pair
        assert fine.refines(coarse) == ref_refines(fine, coarse)
        assert coarse.refines(fine) == ref_refines(coarse, fine)

    @given(
        st.integers(min_value=1, max_value=7).flatmap(
            lambda n: st.tuples(partition_strategy(n), partition_strategy(n))
        )
    )
    def test_meet_matches_reference(self, pair):
        first, second = pair
        meet = first.meet(second)
        assert meet == ref_meet(first, second)
        # Definitional sanity: the meet is below both operands.
        assert meet <= first and meet <= second

    def test_meet_of_a_deep_chain_matches_reference(self):
        """Blocks {0,1},{2,3},.. against {1,2},{3,4},..: one component,
        reached only through a chain of n overlaps."""
        n = 2001
        first = Partition(np.arange(n) // 2)
        second = Partition((np.arange(n) + 1) // 2)
        meet = first.meet(second)
        assert meet == Partition.single_block(n)
        assert meet == ref_meet(first, second)
        shifted = Partition(np.arange(n) // 3)
        assert first.meet(shifted) == ref_meet(first, shifted)

    @given(machine_partition_strategy())
    def test_closure_matches_scalar_reference(self, pair):
        machine, partition = pair
        table = machine.transition_table
        reference = pair_closure_oracle(table, seed_pairs_of(partition), machine.num_states)
        fast = Partition(closure_of_labels(table, partition.labels))
        assert fast == reference
        assert fast == closed_coarsening(machine, partition)
        assert is_closed_partition(machine, fast)
        assert is_closed_oracle(table, fast.labels)


# ----------------------------------------------------------------------
# Fault graph caches
# ----------------------------------------------------------------------
class TestFaultGraphCaches:
    @given(graph_strategy())
    def test_dmin_matches_dense_reference(self, graph):
        assert graph.dmin() == ref_dmin(graph)

    @given(graph_strategy())
    def test_weakest_edges_match_dense_reference(self, graph):
        assert graph.weakest_edges() == ref_weakest_edges(graph)

    @given(graph_strategy(), st.data())
    def test_with_partition_matches_fresh_build(self, graph, data):
        extra = data.draw(partition_strategy(graph.num_states))
        incremental = graph.with_partition(extra)
        fresh = FaultGraph(graph.num_states, list(graph.partitions) + [extra])
        assert np.array_equal(incremental.condensed_weights, fresh.condensed_weights)
        assert incremental.dmin() == fresh.dmin() == graph.dmin_with(extra)

    @given(graph_strategy())
    def test_condensed_layout_matches_matrix(self, graph):
        rows, cols = condensed_indices(graph.num_states)
        assert np.array_equal(
            graph.condensed_weights, graph.weight_matrix[rows, cols]
        )


# ----------------------------------------------------------------------
# Descent pruning filter
# ----------------------------------------------------------------------
class TestDoomedPairsSoundness:
    @settings(max_examples=60)
    @given(dfsm_strategy(max_states=6, num_events=2), st.data())
    def test_doomed_pairs_never_prune_a_qualifying_candidate(self, machine, data):
        """Soundness: a pair marked doomed must really fail the weakest check."""
        n = machine.num_states
        if n < 2:
            return
        partition = Partition.identity(n)
        quotient = quotient_table(machine, partition)
        # Random "weakest edges" among distinct state pairs.
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(
            st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs))
        )
        weak_a = np.asarray([p[0] for p in chosen], dtype=np.int64)
        weak_b = np.asarray([p[1] for p in chosen], dtype=np.int64)
        doomed, _stats = _doomed_pairs(quotient, weak_a, weak_b, n)
        for a in range(n):
            for b in range(a + 1, n):
                seed = np.arange(n, dtype=np.int64)
                seed[b] = a
                closed = closure_of_labels(quotient, seed)
                separates = bool((closed[weak_a] != closed[weak_b]).all())
                if doomed[a, b]:
                    assert not separates, (
                        "pair (%d, %d) was pruned but separates all weakest edges" % (a, b)
                    )


# ----------------------------------------------------------------------
# Sparse engine vs the dense engine
# ----------------------------------------------------------------------
def _wide_key_partitions():
    """22 partitions of 8 blocks over 64 states: a 2^66 label-key space.

    State ``8g + k`` carries label ``g`` in every partition except the
    last ``k``, where it carries ``g + 1``; so states of one group ``g``
    lie at distance ``|k - k'|`` and the last partition, which no int64
    key covers, separates the closest of them.
    """
    groups, members = np.divmod(np.arange(64), 8)
    return [
        Partition(np.where(members > 21 - c, (groups + 1) % 8, groups))
        for c in range(22)
    ]


class TestSparsePrimitives:
    @given(
        st.integers(min_value=1, max_value=9).flatmap(
            lambda n: partition_strategy(n)
        )
    )
    def test_coblock_pairs_match_brute_force(self, partition):
        labels = partition.labels
        rows, cols = coblock_pair_arrays(labels)
        expected = [
            (i, j)
            for i in range(labels.size)
            for j in range(i + 1, labels.size)
            if labels[i] == labels[j]
        ]
        # Grouped by block, not in condensed order: callers sort.
        assert sorted(zip(rows.tolist(), cols.tolist())) == expected
        assert (rows < cols).all()

    @given(st.integers(min_value=0, max_value=40), st.integers(min_value=1, max_value=7))
    def test_pair_chunks_cover_condensed_order(self, n, chunk):
        chunks = list(iter_pair_chunks(n, chunk_size=chunk))
        rows = np.concatenate([r for r, _ in chunks]) if chunks else np.empty(0, int)
        cols = np.concatenate([c for _, c in chunks]) if chunks else np.empty(0, int)
        if n >= 2:
            ref_rows, ref_cols = condensed_indices(n)
            assert np.array_equal(rows, ref_rows)
            assert np.array_equal(cols, ref_cols)
        else:
            assert rows.size == 0

    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(partition_strategy(n), min_size=1, max_size=5),
                st.integers(min_value=1, max_value=5),
            )
        )
    )
    # Repeated label tuples: states 0/1 and 2/3 are weight-0 pairs.
    @example((6, [Partition([0, 0, 1, 1, 0, 2]), Partition([0, 0, 1, 1, 1, 0])], 2))
    @example((64, _wide_key_partitions(), 3))
    def test_low_weight_pairs_match_brute_force(self, payload):
        n, partitions, cap = payload
        cap = min(cap, len(partitions))
        rows, cols, weights = low_weight_pairs(partitions, n, cap)
        got = {
            (i, j): w
            for i, j, w in zip(rows.tolist(), cols.tolist(), weights.tolist())
        }
        expected = {}
        for i in range(n):
            for j in range(i + 1, n):
                w = sum(1 for p in partitions if p.labels[i] != p.labels[j])
                if w < cap:
                    expected[(i, j)] = w
        assert got == expected

    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(partition_strategy(n), min_size=1, max_size=4),
                partition_strategy(n),
            )
        )
    )
    def test_ledger_fold_matches_rebuild(self, payload):
        n, partitions, extra = payload
        ledger = PairLedger.from_partitions(partitions, n, cap=len(partitions))
        folded = ledger.fold(extra.labels)
        rebuilt = PairLedger.from_partitions(
            partitions + [extra], n, cap=ledger.cap
        )
        assert folded.cap == rebuilt.cap
        assert np.array_equal(folded.rows, rebuilt.rows)
        assert np.array_equal(folded.cols, rebuilt.cols)
        assert np.array_equal(folded.weights, rebuilt.weights)
        assert folded.min_weight() == rebuilt.min_weight()

    @settings(max_examples=60)
    @given(dfsm_strategy(max_states=6, num_events=2), st.data())
    def test_sparse_doomed_keys_equal_dense_fixpoint(self, machine, data):
        """The sparse backward fixpoint finds the same doomed set."""
        n = machine.num_states
        if n < 2:
            return
        quotient = quotient_table(machine, Partition.identity(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(
            st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs))
        )
        weak_a = np.asarray([p[0] for p in chosen], dtype=np.int64)
        weak_b = np.asarray([p[1] for p in chosen], dtype=np.int64)
        dense, _stats = _doomed_pairs(quotient, weak_a, weak_b, n)
        dense_keys = sorted(
            i * n + j for i in range(n) for j in range(i + 1, n) if dense[i, j]
        )
        sparse_keys = doomed_pair_keys(quotient, weak_a, weak_b, n)
        assert sparse_keys.tolist() == dense_keys


class TestSparseGraphEquivalence:
    @given(graph_strategy(max_states=6, max_machines=4), st.data())
    def test_sparse_graph_matches_dense(self, dense, data):
        sparse = FaultGraph(
            dense.num_states,
            dense.partitions,
            mode="sparse",
            weight_cap=data.draw(st.integers(min_value=1, max_value=4)),
        )
        assert sparse.dmin() == dense.dmin()
        assert sparse.weakest_edges() == dense.weakest_edges()
        for threshold in range(0, dense.num_machines + 2):
            assert sparse.edges_below(threshold) == dense.edges_below(threshold)
        for i in range(dense.num_states):
            for j in range(dense.num_states):
                assert sparse.distance(i, j) == dense.distance(i, j)
        extra = data.draw(partition_strategy(dense.num_states))
        assert sparse.dmin_with(extra) == dense.dmin_with(extra)
        sparse_child = sparse.with_partition(extra)
        dense_child = dense.with_partition(extra)
        assert sparse_child.is_sparse
        assert sparse_child.dmin() == dense_child.dmin()
        assert sparse_child.weakest_edges() == dense_child.weakest_edges()
        # Small sparse graphs may materialise the dense export on demand.
        assert np.array_equal(sparse.condensed_weights, dense.condensed_weights)


class TestSparseEngineEquivalence:
    """End-to-end: sparse descent + ledger graph == dense engine."""

    @settings(max_examples=40, deadline=None)
    @given(machine_set_strategy(max_machines=3, max_states=3), st.integers(0, 2))
    def test_generate_fusion_sparse_equals_dense(self, machines, f):
        dense_result = generate_fusion(machines, f=f)
        saved = (
            fault_graph_module.SPARSE_STATE_CUTOFF,
            fusion_module.DESCENT_SPARSE_CUTOFF,
        )
        fault_graph_module.SPARSE_STATE_CUTOFF = 1
        fusion_module.DESCENT_SPARSE_CUTOFF = 1
        try:
            sparse_result = generate_fusion(machines, f=f)
        finally:
            (
                fault_graph_module.SPARSE_STATE_CUTOFF,
                fusion_module.DESCENT_SPARSE_CUTOFF,
            ) = saved
        assert sparse_result.graph.is_sparse or sparse_result.top_size == 1
        assert sparse_result.summary() == dense_result.summary()
        assert [tuple(p.labels) for p in sparse_result.partitions] == [
            tuple(p.labels) for p in dense_result.partitions
        ]
        for ours, theirs in zip(sparse_result.backups, dense_result.backups):
            assert np.array_equal(ours.transition_table, theirs.transition_table)

    @settings(max_examples=30, deadline=None)
    @given(machine_set_strategy(max_machines=3, max_states=3))
    def test_product_vectorized_equals_scalar(self, machines):
        vectorized = CrossProduct(machines)

        class ScalarOnly(CrossProduct):
            def _explore(self, initial, event_columns, num_events):
                return self._explore_scalar(initial, event_columns, num_events)

        scalar = ScalarOnly(machines)
        assert vectorized.state_tuples() == scalar.state_tuples()
        assert np.array_equal(
            vectorized.machine.transition_table, scalar.machine.transition_table
        )
        assert np.array_equal(vectorized.projections(), scalar.projections())
