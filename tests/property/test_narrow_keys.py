"""Property tests for the narrow-key (int32/int64) pair-key path.

The sparse pair ledger packs its pair keys in int32 whenever the state
count is below the ``repro.core.types.narrow_key_dtype`` threshold
(46341) and int64 above it.  The dtype must never change *results* —
only bytes moved — so these tests pin:

* the threshold rule itself (46340 blocks -> int32, 46341 -> int64);
* value-identical ledgers and full fusion descents across
  the dtype boundary, by patching the module-level threshold down to 1
  so the int64 branch runs on machines small enough to test (the
  exact trick ``tests`` uses for every other engine cutoff);
* that the narrow path actually engages (dtype assertions), so the
  equivalence isn't vacuously comparing int64 against itself.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fault_graph as fault_graph_module
import repro.core.fusion as fusion_module
import repro.core.types as types_module
from repro.core.fusion import generate_fusion
from repro.core.product import CrossProduct
from repro.core.sparse import PairLedger, low_weight_pairs
from repro.core.types import narrow_key_dtype
from repro.machines import mesi, mod_counter, shift_register

from .strategies import partition_strategy


def _protocol_mix():
    return [
        mesi(),
        mod_counter(3, "local_read", events=mesi().events, name="rd-ctr"),
        shift_register(
            3, bit_events=("local_read", "local_write"), events=mesi().events, name="sr"
        ),
    ]


@pytest.fixture
def force_int64_keys(monkeypatch):
    """Push the int32/int64 boundary to 1 so every level takes int64."""
    monkeypatch.setattr(types_module, "_KEY_INT32_BLOCK_LIMIT", 1)


class TestThresholdRule:
    def test_threshold_boundary(self):
        assert narrow_key_dtype(46340) is np.int32
        assert narrow_key_dtype(46341) is np.int64
        # The largest int32-eligible pair key really fits, and the first
        # ineligible block count really does not.
        assert 46340 * 46340 - 1 <= np.iinfo(np.int32).max
        assert 46341 * 46341 - 1 > np.iinfo(np.int32).max

    def test_threshold_is_patchable(self, force_int64_keys):
        assert narrow_key_dtype(2) is np.int64


class TestLedgerDtypeEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=2, max_value=8).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.lists(partition_strategy(n), min_size=1, max_size=4),
                st.integers(min_value=1, max_value=4),
            )
        )
    )
    def test_low_weight_pairs_values_match_across_dtypes(self, payload):
        n, partitions, cap = payload
        cap = min(cap, len(partitions))
        narrow = low_weight_pairs(partitions, n, cap)
        original = types_module._KEY_INT32_BLOCK_LIMIT
        try:
            types_module._KEY_INT32_BLOCK_LIMIT = 1
            wide = low_weight_pairs(partitions, n, cap)
        finally:
            types_module._KEY_INT32_BLOCK_LIMIT = original
        for ours, theirs in zip(narrow, wide):
            assert np.array_equal(ours, theirs)

    def test_ledger_narrow_path_engages(self):
        product = CrossProduct(_protocol_mix())
        ledger = PairLedger.from_partitions(
            product.component_partitions(), product.num_states, 2
        )
        assert ledger.rows.dtype == np.int32
        assert ledger.nnz > 0

    def test_ledger_int64_branch_engages(self, force_int64_keys):
        product = CrossProduct(_protocol_mix())
        partitions = product.component_partitions()
        wide = PairLedger.from_partitions(partitions, product.num_states, 2)
        types_module._KEY_INT32_BLOCK_LIMIT = 46341  # fixture restores on teardown
        narrow = PairLedger.from_partitions(partitions, product.num_states, 2)
        types_module._KEY_INT32_BLOCK_LIMIT = 1
        assert np.array_equal(wide.rows, narrow.rows)
        assert np.array_equal(wide.cols, narrow.cols)
        assert np.array_equal(wide.weights, narrow.weights)


class TestDescentDtypeEquivalence:
    def test_generate_fusion_identical_across_dtypes(self, monkeypatch):
        """A forced-sparse protocol-mix fusion is value-identical on both
        key paths — ledger build, prune, descent and weakest edges."""
        monkeypatch.setattr(fault_graph_module, "SPARSE_STATE_CUTOFF", 8)
        monkeypatch.setattr(fusion_module, "DENSE_PRUNE_CUTOFF", 8)
        machines = _protocol_mix()
        narrow = generate_fusion(machines, f=1)
        monkeypatch.setattr(types_module, "_KEY_INT32_BLOCK_LIMIT", 1)
        wide = generate_fusion(machines, f=1)
        assert narrow.summary() == wide.summary()
        assert [tuple(p.labels) for p in narrow.partitions] == [
            tuple(p.labels) for p in wide.partitions
        ]
        for ours, theirs in zip(narrow.backups, wide.backups):
            assert np.array_equal(ours.transition_table, theirs.transition_table)
