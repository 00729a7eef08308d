"""Property tests for the incremental doomed-pair engine.

Four invariants from the engine contract
(:class:`repro.core.sparse.DoomedPairEngine`):

* a budget- or round-truncated doomed set is a *subset* of the full
  fixpoint (early stops are sound, they only prune less), and the
  truncation is reported instead of silently swallowed;
* the descent result of ``generate_fusion`` is byte-identical whether
  the prune was truncated or ran to convergence (survivors always get
  the exact closure check);
* the incremental cross-level seeding equals a fresh fixpoint at every
  level of a coarsening chain;
* the density-adaptive forward direction is byte-identical to the
  backward fixpoint, and each round of either direction — and the
  fixpoint itself — equals a pair-by-pair reference.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fault_graph as fault_graph_module
import repro.core.fusion as fusion_module
import repro.core.sparse as sparse_module
from repro.core.fault_graph import FaultGraph
from repro.core.fusion import generate_fusion
from repro.core.partition import (
    Partition,
    WeakPairs,
    closure_of_labels,
    quotient_table,
)
from repro.core.product import CrossProduct
from repro.core.sparse import DoomedPairEngine, ImplicationIndex, doomed_pair_keys
from repro.core.types import narrow_key_dtype
from repro.machines import mesi, mod_counter, shift_register

from .strategies import dfsm_strategy


def _counters(size: int):
    return [
        mod_counter(3, count_event=e, events=tuple(range(size)), name="c%d" % e)
        for e in range(size)
    ]


def _protocol_mix():
    return [
        mesi(),
        mod_counter(3, "local_read", events=mesi().events, name="rd-ctr"),
        shift_register(
            3, bit_events=("local_read", "local_write"), events=mesi().events, name="sr"
        ),
    ]


def _level_zero(machines):
    """(quotient, weak_rows, weak_cols, num_states) of the identity level."""
    product = CrossProduct(machines)
    top = product.machine
    graph = FaultGraph.from_cross_product(product, weight_cap=3)
    weak_rows, weak_cols = graph.weakest_edge_arrays()
    n = top.num_states
    return quotient_table(top, Partition.identity(n)), weak_rows, weak_cols, n


class TestTruncationSoundness:
    @settings(max_examples=60, deadline=None)
    @given(
        dfsm_strategy(max_states=6, num_events=2),
        st.data(),
        st.integers(min_value=0, max_value=20),
    )
    def test_budget_truncated_set_is_subset_of_full_fixpoint(
        self, machine, data, budget
    ):
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
        full_engine = DoomedPairEngine()
        full = full_engine.prune(quotient, weak_a, weak_b, n)
        assert not full_engine.last_stats.truncated
        assert full_engine.last_stats.keys == full.size
        cut_engine = DoomedPairEngine(budget=budget)
        cut = cut_engine.prune(quotient, weak_a, weak_b, n)
        assert np.isin(cut, full).all()  # sound: truncated ⊆ full
        if not np.array_equal(cut, full):
            assert cut_engine.last_stats.truncated

    @settings(max_examples=40, deadline=None)
    @given(
        dfsm_strategy(max_states=6, num_events=2),
        st.data(),
        st.integers(min_value=1, max_value=3),
    )
    def test_round_truncated_set_is_subset_of_full_fixpoint(
        self, machine, data, max_rounds
    ):
        n = machine.num_states
        if n < 2:
            return
        quotient = quotient_table(machine, Partition.identity(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
        weak_a = np.asarray([p[0] for p in chosen], dtype=np.int64)
        weak_b = np.asarray([p[1] for p in chosen], dtype=np.int64)
        full = doomed_pair_keys(quotient, weak_a, weak_b, n)
        cut = doomed_pair_keys(quotient, weak_a, weak_b, n, max_rounds=max_rounds)
        assert np.isin(cut, full).all()

    def test_descent_byte_identical_under_truncation(self, monkeypatch):
        """A truncated prune only sends more candidates through the exact
        closure check — the generated fusion must not change at all."""
        monkeypatch.setattr(fault_graph_module, "SPARSE_STATE_CUTOFF", 1)
        monkeypatch.setattr(fusion_module, "DESCENT_SPARSE_CUTOFF", 1)
        machines = _protocol_mix()
        reference = generate_fusion(machines, f=1)
        monkeypatch.setattr(fusion_module, "_PRUNE_BUDGET", 7)
        truncated = generate_fusion(machines, f=1)
        assert truncated.summary() == reference.summary()
        assert [tuple(p.labels) for p in truncated.partitions] == [
            tuple(p.labels) for p in reference.partitions
        ]


class TestDeduplicatedWeakPairs:
    @settings(max_examples=50, deadline=None)
    @given(dfsm_strategy(max_states=6, num_events=2), st.data())
    def test_prune_of_deduplicated_pairs_is_unchanged(self, machine, data):
        """The descent feeds the prune one ``(min, max)`` key per block
        pair (:class:`WeakPairs`); keys and stats match the raw,
        repeated, either-way-round projection."""
        n = machine.num_states
        if n < 2:
            return
        state = st.integers(0, n - 1)
        raw = data.draw(
            st.lists(st.tuples(state, state).filter(lambda p: p[0] != p[1]), min_size=1, max_size=12)
        )
        raw_a = np.asarray([p[0] for p in raw], dtype=np.int64)
        raw_b = np.asarray([p[1] for p in raw], dtype=np.int64)
        weak = WeakPairs(raw_a, raw_b, n)
        assert len(set(zip(weak.lo.tolist(), weak.hi.tolist()))) == weak.lo.size
        assert set(zip(weak.lo.tolist(), weak.hi.tolist())) == {
            (min(a, b), max(a, b)) for a, b in raw
        }
        quotient = quotient_table(machine, Partition.identity(n))
        raw_engine, dedup_engine = DoomedPairEngine(), DoomedPairEngine()
        assert np.array_equal(
            raw_engine.prune(quotient, raw_a, raw_b, n),
            dedup_engine.prune(quotient, weak.lo, weak.hi, n),
        )
        assert raw_engine.last_stats == dedup_engine.last_stats


class TestIncrementalSeeding:
    @settings(max_examples=50, deadline=None)
    @given(dfsm_strategy(max_states=6, num_events=2), st.data())
    def test_seeded_levels_equal_fresh_fixpoints(self, machine, data):
        """Walking an engine down a coarsening chain gives, at every
        level, the same keys as a stateless fixpoint at that level."""
        n = machine.num_states
        if n < 3:
            return
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=3))
        weak_rows = np.asarray([p[0] for p in chosen], dtype=np.int64)
        weak_cols = np.asarray([p[1] for p in chosen], dtype=np.int64)
        engine = DoomedPairEngine()
        labels = Partition.identity(n).labels
        for _level in range(3):
            partition = Partition(labels)
            quotient = quotient_table(machine, partition)
            num_blocks = partition.num_blocks
            weak_a = labels[weak_rows]
            weak_b = labels[weak_cols]
            if (weak_a == weak_b).any():
                break  # the merge glued a weakest pair: chain over
            seeded = engine.prune(
                quotient, weak_a, weak_b, num_blocks, base_labels=labels
            )
            fresh = doomed_pair_keys(quotient, weak_a, weak_b, num_blocks)
            assert np.array_equal(seeded, fresh)
            if num_blocks < 2:
                break
            # Coarsen: SP-close the merge of a drawn block pair.
            a, b = sorted(
                data.draw(
                    st.tuples(
                        st.integers(0, num_blocks - 1), st.integers(0, num_blocks - 1)
                    ).filter(lambda t: t[0] != t[1])
                )
            )
            merge_seed = np.arange(num_blocks, dtype=np.int64)
            merge_seed[b] = a
            closed = closure_of_labels(quotient, merge_seed)
            labels = closed[labels]

    def test_non_coarsening_labels_reset_the_cache(self):
        """A base_labels vector that does not coarsen the remembered level
        must fall back to a fresh (unseeded) fixpoint, not mis-seed."""
        machines = _counters(3)
        quotient, weak_rows, weak_cols, n = _level_zero(machines)
        engine = DoomedPairEngine()
        labels = Partition.identity(n).labels
        engine.prune(quotient, weak_rows, weak_cols, n, base_labels=labels)
        assert engine.seedable
        # An unrelated, non-coarsening partition of a different machine.
        other = CrossProduct(_protocol_mix())
        other_top = other.machine
        other_labels = Partition.identity(other_top.num_states).labels
        other_quotient = quotient_table(
            other_top, Partition(other_labels)
        )
        other_graph = FaultGraph.from_cross_product(other, weight_cap=3)
        ow_r, ow_c = other_graph.weakest_edge_arrays()
        seeded = engine.prune(
            other_quotient, ow_r, ow_c, other_top.num_states, base_labels=other_labels
        )
        assert engine.last_stats.seeded == 0
        fresh = doomed_pair_keys(other_quotient, ow_r, ow_c, other_top.num_states)
        assert np.array_equal(seeded, fresh)


class TestPruneDirections:
    def test_forward_direction_byte_identical(self, monkeypatch):
        """Forcing every round forward finds the same fixpoint."""
        quotient, weak_rows, weak_cols, n = _level_zero(_protocol_mix())
        backward = doomed_pair_keys(quotient, weak_rows, weak_cols, n)
        monkeypatch.setattr(sparse_module, "_FORWARD_SWITCH_FACTOR", 0)
        forward = doomed_pair_keys(quotient, weak_rows, weak_cols, n)
        assert np.array_equal(backward, forward)

    @settings(max_examples=40, deadline=None)
    @given(dfsm_strategy(max_states=6, num_events=2), st.data())
    def test_forward_matches_backward_on_random_machines(self, machine, data):
        n = machine.num_states
        if n < 2:
            return
        quotient = quotient_table(machine, Partition.identity(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
        weak_a = np.asarray([p[0] for p in chosen], dtype=np.int64)
        weak_b = np.asarray([p[1] for p in chosen], dtype=np.int64)
        backward = doomed_pair_keys(quotient, weak_a, weak_b, n)
        original = sparse_module._FORWARD_SWITCH_FACTOR
        sparse_module._FORWARD_SWITCH_FACTOR = 0
        try:
            forward = doomed_pair_keys(quotient, weak_a, weak_b, n)
        finally:
            sparse_module._FORWARD_SWITCH_FACTOR = original
        assert np.array_equal(backward, forward)


def _brute_force_fresh(quotient, doomed, pairs):
    """The pairs (of ``pairs``) outside ``doomed`` that some event maps
    onto a doomed pair — one forward round, spelled out."""
    fresh = set()
    for a, b in pairs:
        if (a, b) in doomed:
            continue
        for event in range(quotient.shape[1]):
            image = tuple(sorted((int(quotient[a, event]), int(quotient[b, event]))))
            if image in doomed:
                fresh.add((a, b))
                break
    return fresh


def _keys_of(pairs, n):
    return sorted(a * n + b for a, b in pairs)


class TestRoundReferences:
    """Each fixpoint step against a pair-by-pair reference."""

    @settings(max_examples=40, deadline=None)
    @given(dfsm_strategy(max_states=7, num_events=3), st.data())
    def test_forward_sweep_matches_brute_force(self, machine, data):
        n = machine.num_states
        if n < 2:
            return
        quotient = quotient_table(machine, Partition.identity(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        doomed = set(data.draw(st.lists(st.sampled_from(pairs), max_size=len(pairs))))
        keys = np.asarray(_keys_of(doomed, n), dtype=narrow_key_dtype(n))
        fresh = sparse_module._forward_sweep(ImplicationIndex(quotient, n), keys)
        assert fresh.dtype == keys.dtype
        assert fresh.tolist() == _keys_of(_brute_force_fresh(quotient, doomed, pairs), n)

    @settings(max_examples=40, deadline=None)
    @given(dfsm_strategy(max_states=7, num_events=3), st.data())
    def test_backward_round_matches_brute_force(self, machine, data):
        n = machine.num_states
        if n < 2:
            return
        quotient = quotient_table(machine, Partition.identity(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        doomed = set(data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=len(pairs))))
        frontier = sorted(data.draw(st.sets(st.sampled_from(sorted(doomed)), min_size=1)))
        events = data.draw(
            st.lists(st.integers(0, quotient.shape[1] - 1), min_size=1, unique=True)
        )
        keys = np.asarray(_keys_of(doomed, n), dtype=narrow_key_dtype(n))
        upper = np.asarray([a for a, _ in frontier], dtype=np.int64)
        lower = np.asarray([b for _, b in frontier], dtype=np.int64)
        fresh = sparse_module._backward_round(
            ImplicationIndex(quotient, n), keys, upper, lower, events
        )
        expected = {
            (a, b)
            for a, b in pairs
            if (a, b) not in doomed
            and any(
                tuple(sorted((int(quotient[a, e]), int(quotient[b, e])))) in frontier
                for e in events
            )
        }
        assert fresh.dtype == keys.dtype
        assert fresh.tolist() == _keys_of(expected, n)

    @settings(max_examples=40, deadline=None)
    @given(dfsm_strategy(max_states=6, num_events=2), st.data())
    def test_fixpoint_matches_brute_force_closure(self, machine, data):
        n = machine.num_states
        if n < 2:
            return
        quotient = quotient_table(machine, Partition.identity(n))
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
        doomed = set(chosen)
        while True:
            fresh = _brute_force_fresh(quotient, doomed, pairs)
            if not fresh:
                break
            doomed |= fresh
        weak_a = np.asarray([p[0] for p in chosen], dtype=np.int64)
        weak_b = np.asarray([p[1] for p in chosen], dtype=np.int64)
        keys = doomed_pair_keys(quotient, weak_a, weak_b, n)
        assert keys.tolist() == _keys_of(doomed, n)


class TestImplicationIndex:
    def test_index_arrays_match_reference(self):
        quotient = np.array([[1, 2], [2, 0], [2, 1]])
        index = ImplicationIndex(quotient)
        assert index.num_blocks == 3 and index.num_events == 2
        for event in range(2):
            image = quotient[:, event]
            assert np.array_equal(index.images[event], image)
            assert np.array_equal(
                index.order[event], np.argsort(image, kind="stable")
            )
            assert np.array_equal(
                index.counts[event], np.bincount(image, minlength=3)
            )
            assert np.array_equal(
                index.indptr[event],
                np.concatenate(([0], np.cumsum(np.bincount(image, minlength=3)))),
            )

    def test_reused_index_equals_rebuilt(self):
        quotient, weak_rows, weak_cols, n = _level_zero(_counters(3))
        index = ImplicationIndex(quotient, n)
        direct = doomed_pair_keys(quotient, weak_rows, weak_cols, n)
        reused = doomed_pair_keys(quotient, weak_rows, weak_cols, n, index=index)
        again = doomed_pair_keys(quotient, weak_rows, weak_cols, n, index=index)
        assert np.array_equal(direct, reused)
        assert np.array_equal(direct, again)
