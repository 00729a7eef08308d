"""Property tests for the incremental ledger maintenance.

Maintaining the ledger incrementally — the cached base ledger plus one
fold per backup, which is what ``FaultGraph`` does on cap escalation —
must equal a from-scratch ledger over all machines, on random machines;
and :class:`repro.core.sparse.LedgerBuilder` must serve each cap from
one Hamming ball that equals :func:`repro.core.sparse.low_weight_pairs`.
The merge of overlapping packed parts — in memory or spilled through
the resource governor's external merge — must equal the plain set
union.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.budget import ResourceGovernor, activate
from repro.core.fault_graph import FaultGraph
from repro.core.product import CrossProduct
from repro.core.resilience import ChaosSpec
from repro.core.sparse import (
    LedgerBuilder,
    PairLedger,
    _merge_packed_parts,
    _packed_dtype,
    _weight_bits,
    low_weight_pairs,
)
from repro.machines import mesi, mod_counter, shift_register

from .strategies import partition_strategy


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


MACHINE_SETS = {
    "counters-6": lambda: _counters(6),
    "mesi-mix": _protocol_mix,
}


class TestLedgerBuilder:
    @pytest.mark.parametrize("case", sorted(MACHINE_SETS))
    def test_builder_matches_low_weight_pairs_and_caches(self, case):
        """Each cap is built once and equals the one-shot entry point."""
        product = CrossProduct(MACHINE_SETS[case]())
        partitions = product.component_partitions()
        builder = LedgerBuilder(partitions, product.num_states)
        for cap in sorted({1, 2, min(3, len(partitions))}):
            rows, cols, weights = low_weight_pairs(partitions, product.num_states, cap)
            built = builder.base(cap)
            assert builder.base(cap) is built  # cached, not rebuilt
            assert built.cap == cap
            assert built.rows.dtype == rows.dtype
            assert np.array_equal(built.rows, rows)
            assert np.array_equal(built.cols, cols)
            assert np.array_equal(built.weights, weights)


class TestIncrementalLedgerMaintenance:
    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(partition_strategy(n), min_size=1, max_size=4),
                st.lists(partition_strategy(n), min_size=0, max_size=3),
                st.integers(min_value=1, max_value=4),
            )
        )
    )
    def test_base_plus_folds_equals_from_scratch(self, payload):
        """LedgerBuilder.ledger(cap, extras) == one ledger over everything,
        also at caps above the base machine count."""
        n, base, extras, cap = payload
        cap = min(cap, len(base) + len(extras))
        builder = LedgerBuilder(base, n)
        incremental = builder.ledger(cap, extras)
        rebuilt = PairLedger.from_partitions(list(base) + list(extras), n, cap)
        assert incremental.cap == rebuilt.cap
        assert np.array_equal(incremental.rows, rebuilt.rows)
        assert np.array_equal(incremental.cols, rebuilt.cols)
        assert np.array_equal(incremental.weights, rebuilt.weights)

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=7).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(partition_strategy(n), min_size=1, max_size=3),
                st.lists(partition_strategy(n), min_size=1, max_size=3),
            )
        )
    )
    def test_graph_escalation_matches_fresh_graph(self, payload):
        """A with_partition chain that escalates its cap equals a fresh
        build over all partitions — the per-backup update never rebuilds."""
        n, base, extras = payload
        graph = FaultGraph(n, base, mode="sparse", weight_cap=1)
        graph.dmin()  # materialise the cap-1 ledger before the folds
        for extra in extras:
            graph = graph.with_partition(extra)
        fresh = FaultGraph(n, list(base) + list(extras), mode="sparse")
        dense = FaultGraph(n, list(base) + list(extras), mode="dense")
        assert graph.dmin() == fresh.dmin() == dense.dmin()
        assert graph.weakest_edges() == dense.weakest_edges()
        for threshold in range(0, graph.num_machines + 2):
            assert graph.edges_below(threshold) == dense.edges_below(threshold)

    def test_escalation_reuses_cached_base_ledgers(self, monkeypatch):
        """Cap escalation on a descendant graph consults the shared
        builder's cache and runs the ball over the base machines only,
        never over the grown machine list."""
        import repro.core.sparse as sparse_module

        product = CrossProduct(_counters(4))
        partitions = product.component_partitions()
        graph = FaultGraph(
            product.num_states, partitions, mode="sparse", weight_cap=2
        )
        graph.dmin()
        child = graph.with_partition(partitions[0])

        calls = []
        original = sparse_module._ball_parts

        def counting_ball(label_rows, num_states, cap, budget):
            calls.append((len(label_rows), cap))
            return original(label_rows, num_states, cap, budget)

        monkeypatch.setattr(sparse_module, "_ball_parts", counting_ball)
        # Force an escalation past the folded ledger's cap: one ball over
        # the 4 base machines at the new cap, then a cache hit.
        child.edges_below(4)
        assert calls == [(4, 4)]
        graph.with_partition(partitions[1]).edges_below(4)
        assert calls == [(4, 4)]


#: State counts whose packed ledger entries ride int32 / int64 at cap 3.
PACKED_STATES = {"int32": 300, "int64": 50000}


class TestPackedPartMerge:
    """Overlapping packed parts fold into the sorted union of their pairs."""

    @pytest.mark.parametrize("packed", sorted(PACKED_STATES))
    @pytest.mark.parametrize("route", ["memory", "spill"])
    @pytest.mark.parametrize("num_parts", [3, 5, 9])
    def test_fold_matches_reference_union(self, num_parts, route, packed, tmp_path):
        num_states, cap = PACKED_STATES[packed], 3
        dtype = _packed_dtype(num_states, cap)
        assert np.dtype(dtype).name == packed
        bits = _weight_bits(cap)
        rng = np.random.default_rng(num_parts * 10 + len(route))
        parts = []
        for _ in range(num_parts):
            size = int(rng.integers(0, 800))
            rows = rng.integers(0, num_states - 1, size=size)
            cols = rows + 1 + rng.integers(0, num_states - 1 - rows)
            # A pair always carries the same weight, whichever part
            # rediscovers it — the invariant the packed dedup relies on.
            weights = (rows + cols) % cap
            keys = (rows * num_states + cols) << bits | weights
            parts.append(keys.astype(dtype))
        union = np.unique(np.concatenate(parts).astype(np.int64))
        ref_rows = (union >> bits) // num_states
        ref_cols = (union >> bits) % num_states
        ref_weights = union & ((1 << bits) - 1)

        in_memory = _merge_packed_parts(parts, num_states, cap)
        if route == "spill":
            governor = ResourceGovernor(
                budget={"memory": 1}, chaos=ChaosSpec({}), spill_dir=str(tmp_path)
            )
            with activate(governor):
                merged = _merge_packed_parts(parts, num_states, cap)
            assert governor.stats.spills == 1
        else:
            merged = in_memory
        rows, cols, weights = merged
        assert np.array_equal(rows, ref_rows)
        assert np.array_equal(cols, ref_cols)
        assert np.array_equal(weights, ref_weights)
        for ours, theirs in zip(merged, in_memory):
            assert ours.dtype == theirs.dtype
            assert ours.tobytes() == theirs.tobytes()
