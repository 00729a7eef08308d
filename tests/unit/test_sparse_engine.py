"""Unit tests for the sparse engine: ledger, cutoffs, and worker counts.

The property suite (``tests/property/test_vectorized_equivalence.py``)
establishes sparse-vs-dense equivalence statistically; these tests pin
down the discrete behaviours — cap clamping and escalation, the refusal
to materialise dense exports on large sparse graphs, worker-count
resolution, and that fusion generation never starts a worker process.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.fault_graph as fault_graph_module
import repro.core.fusion as fusion_module
from repro.core.exceptions import PartitionError
from repro.core.fault_graph import FaultGraph
from repro.core.fusion import generate_fusion, resolve_workers
from repro.core.partition import Partition
from repro.core.sparse import (
    CandidateBudgetError,
    DoomedPairEngine,
    PairLedger,
    doomed_pair_keys,
    iter_pair_chunks,
    low_weight_pairs,
)
from repro.machines import mesi, mod_counter


@pytest.fixture
def forced_sparse(monkeypatch):
    """Force the sparse graph and descent paths regardless of size."""
    monkeypatch.setattr(fault_graph_module, "SPARSE_STATE_CUTOFF", 1)
    monkeypatch.setattr(fusion_module, "DESCENT_SPARSE_CUTOFF", 1)


def counters(size: int):
    return [
        mod_counter(3, count_event=e, events=tuple(range(size)), name="c%d" % e)
        for e in range(size)
    ]


# ----------------------------------------------------------------------
# PairLedger
# ----------------------------------------------------------------------
class TestPairLedger:
    def test_cap_is_clamped_to_machine_count(self):
        parts = [Partition([0, 0, 1]), Partition([0, 1, 1])]
        ledger = PairLedger.from_partitions(parts, 3, cap=10)
        assert ledger.cap == 2

    def test_unlisted_pairs_are_at_least_cap(self):
        parts = [Partition([0, 1, 2]), Partition([0, 1, 2])]  # all pairs weight 2
        ledger = PairLedger.from_partitions(parts, 3, cap=2)
        assert ledger.nnz == 0 and ledger.min_weight() is None

    def test_fold_drops_pairs_reaching_cap(self):
        parts = [Partition([0, 0, 1])]  # pair (0,1) weight 0
        ledger = PairLedger.from_partitions(parts, 3, cap=1)
        assert ledger.nnz == 1 and ledger.min_weight() == 0
        folded = ledger.fold(Partition([0, 1, 1]).labels)  # now weight 1 == cap
        assert folded.nnz == 0 and folded.min_weight() is None

    def test_low_weight_pairs_rejects_bad_cap(self):
        parts = [Partition([0, 0, 1])]
        with pytest.raises(PartitionError):
            low_weight_pairs(parts, 3, cap=0)
        with pytest.raises(PartitionError):
            low_weight_pairs(parts, 3, cap=2)

    def test_budget_refusal(self):
        parts = [Partition(np.zeros(64, dtype=np.int64))]  # one 64-state block
        with pytest.raises(CandidateBudgetError):
            low_weight_pairs(parts, 64, cap=1, budget=10)


# ----------------------------------------------------------------------
# The Hamming ball
# ----------------------------------------------------------------------
class TestHammingBall:
    """Dense-reference checks of the ledger's Hamming-ball search.

    Every (seed, cap) case is compared against brute-force dense
    weights, and the ball's parts must never find one pair twice: the
    lowest shifted coordinate moves upward only, so each pair is found
    from exactly one of its ends.
    """

    @staticmethod
    def _dense_reference(label_list, num_states, cap):
        rows, cols = np.triu_indices(num_states, k=1)
        weights = np.zeros(rows.size, dtype=np.int64)
        for labels in label_list:
            weights += labels[rows] != labels[cols]
        keep = weights < cap
        return rows[keep], cols[keep], weights[keep]

    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cap,num_machines", [(2, 4), (2, 6), (3, 9), (4, 12)])
    def test_ball_matches_dense(self, seed, cap, num_machines):
        rng = np.random.default_rng(seed)
        num_states = 48
        partitions = [
            Partition(rng.integers(0, 3, size=num_states))
            for _ in range(num_machines)
        ]
        rows, cols, weights = low_weight_pairs(
            partitions, num_states, cap, budget=10**9
        )
        r_ref, c_ref, w_ref = self._dense_reference(
            [p.labels for p in partitions], num_states, cap
        )
        assert np.array_equal(np.asarray(rows, dtype=np.int64), r_ref)
        assert np.array_equal(np.asarray(cols, dtype=np.int64), c_ref)
        assert np.array_equal(np.asarray(weights, dtype=np.int64), w_ref)

    def test_ball_emits_each_pair_once(self):
        """No pair key is emitted twice across the ball's parts."""
        import repro.core.sparse as sparse_module

        rng = np.random.default_rng(7)
        num_states, cap = 48, 3
        # Few labels per machine, so equal tuples (weight-0 runs) occur
        # beside the shifted lookups.
        partitions = [
            Partition(rng.integers(0, 2, size=num_states)) for _ in range(5)
        ]
        label_rows = sparse_module._label_matrix_rows([p.labels for p in partitions])
        parts = sparse_module._ball_parts(label_rows, num_states, cap, 10**9)
        packed = np.concatenate([part for part in parts if part.size])
        assert np.unique(packed).size == packed.size
        r_ref, _, _ = self._dense_reference(label_rows, num_states, cap)
        assert packed.size == r_ref.size


    def test_wide_columns_search_coblock_pairs(self):
        """Three 30-state counters whose synchronised product has 900 of
        the 27000 label tuples: at cap 3 the shifted lookups alone count
        about 1.2M candidates, the co-block searches about 45k, so a 100k
        budget is met only when the ball takes the co-block side."""
        from repro.core.product import CrossProduct
        from repro.machines import sum_counter

        product = CrossProduct(
            [mod_counter(30, 0), mod_counter(30, 1), sum_counter(30, (0, 1))]
        )
        partitions = product.component_partitions()
        num_states = product.num_states
        rows, cols, weights = low_weight_pairs(
            partitions, num_states, 3, budget=10**5
        )
        r_ref, c_ref, w_ref = self._dense_reference(
            [p.labels for p in partitions], num_states, 3
        )
        assert np.array_equal(np.asarray(rows, dtype=np.int64), r_ref)
        assert np.array_equal(np.asarray(cols, dtype=np.int64), c_ref)
        assert np.array_equal(np.asarray(weights, dtype=np.int64), w_ref)

    def test_run_expansion_is_charged_to_the_budget(self):
        """A lookup that hits a run of equal tuples yields one pair per
        run member.  The budget counts those pairs too: every one of the
        8 label tuples below is repeated 20 times, the plan counts 1840
        candidates, and the search emits 7920 pairs."""
        tuples = np.repeat(np.arange(8), 20)
        partitions = [Partition(tuples % 4), Partition(tuples // 4)]
        total = low_weight_pairs(partitions, tuples.size, 2, budget=10**9)[0].size
        assert total == 7920
        assert low_weight_pairs(partitions, tuples.size, 2, budget=total)[0].size == total
        with pytest.raises(CandidateBudgetError):
            low_weight_pairs(partitions, tuples.size, 2, budget=total - 1)


# ----------------------------------------------------------------------
# Ledgers above the base machine count
# ----------------------------------------------------------------------
class TestFewOriginals:
    """Fewer original machines than the wanted cap: the ledger adds the
    pairs every original separates without touching the pair space."""

    def test_far_pairs_come_from_backup_blocks(self):
        """Two wide originals (a 40 x 41 product, 1.34M pairs) plus one
        10-block backup at cap 3, under a budget of a fifth of the pair
        space: the base ball at cap 2 plus the backup's co-block pairs."""
        from repro.core.sparse import LedgerBuilder

        states = np.arange(40 * 41)
        first, second = states // 41, states % 41
        base = [Partition(first), Partition(second)]
        backup = Partition((first + second) % 10)
        ledger = LedgerBuilder(base, states.size, budget=250_000).ledger(3, [backup])
        assert ledger.cap == 3
        rows, cols = np.triu_indices(states.size, k=1)
        weights = sum((p.labels[rows] != p.labels[cols]).astype(np.int64) for p in base)
        weights += backup.labels[rows] != backup.labels[cols]
        keep = weights < 3
        assert np.array_equal(np.asarray(ledger.rows, dtype=np.int64), rows[keep])
        assert np.array_equal(np.asarray(ledger.cols, dtype=np.int64), cols[keep])
        assert np.array_equal(ledger.weights, weights[keep])

    def test_two_machine_sparse_fusion_matches_dense(self, monkeypatch):
        """generate_fusion at f=1 on two originals escalates past the
        base count as soon as the first backup is chosen."""
        machines = [mod_counter(5, 0), mod_counter(7, 1)]
        dense = generate_fusion(machines, f=1)
        monkeypatch.setattr(fault_graph_module, "SPARSE_STATE_CUTOFF", 1)
        monkeypatch.setattr(fusion_module, "DESCENT_SPARSE_CUTOFF", 1)
        sparse = generate_fusion(machines, f=1)
        assert sparse.graph.is_sparse and not dense.graph.is_sparse
        assert sparse.summary() == dense.summary()
        assert [p.labels.tolist() for p in sparse.partitions] == [
            p.labels.tolist() for p in dense.partitions
        ]


# ----------------------------------------------------------------------
# DoomedPairEngine truncation reporting
# ----------------------------------------------------------------------
class TestPruneStatsReporting:
    QUOTIENT = np.array([[1], [2], [2]])  # 0 -> 1 -> 2 -> 2 under one event
    WEAK = (np.array([1]), np.array([2]))

    def test_converged_run_reports_rounds_and_keys(self):
        engine = DoomedPairEngine()
        keys = engine.prune(self.QUOTIENT, *self.WEAK, 3)
        assert keys.tolist() == [1, 2, 5]  # (0,1), (0,2) and the seed (1,2)
        stats = engine.last_stats
        assert stats.rounds == 1 and not stats.truncated
        assert stats.keys == 3 and stats.spent == 2

    def test_budget_stop_sets_truncated_flag(self):
        engine = DoomedPairEngine(budget=1)
        keys = engine.prune(self.QUOTIENT, *self.WEAK, 3)
        assert keys.tolist() == [5]  # only the seed: the round was refused
        assert engine.last_stats.truncated
        assert engine.last_stats.spent == 2  # the tripping grand is charged

    def test_round_stop_sets_truncated_flag(self):
        # max_rounds=0 refuses even the first expansion round.
        engine = DoomedPairEngine(max_rounds=0)
        keys = engine.prune(self.QUOTIENT, *self.WEAK, 3)
        assert keys.tolist() == [5]
        assert engine.last_stats.truncated
        assert engine.last_stats.rounds == 0

    def test_refused_forward_round_charges_spent(self, monkeypatch):
        import repro.core.sparse as sparse_module

        # Force the forward direction, with a budget the sweep exceeds:
        # the refused round must be charged (symmetric with backward).
        monkeypatch.setattr(sparse_module, "_FORWARD_SWITCH_FACTOR", 0)
        engine = DoomedPairEngine(budget=0)
        keys = engine.prune(self.QUOTIENT, *self.WEAK, 3)
        assert keys.tolist() == [5]
        assert engine.last_stats.truncated
        assert engine.last_stats.spent == 2  # live pairs (0,1), (0,2) x 1 event

    def test_stopwatch_prune_stage_carries_stats(self, forced_sparse):
        from repro.utils.timing import Stopwatch

        from repro.machines import shift_register

        machines = [
            mesi(),
            mod_counter(3, "local_read", events=mesi().events, name="rd-ctr"),
            shift_register(
                3, bit_events=("local_read", "local_write"), events=mesi().events, name="sr"
            ),
        ]
        watch = Stopwatch()
        generate_fusion(machines, f=1, stopwatch=watch)
        prune = watch.as_dict()["prune"]
        for field in ("rounds", "forward_rounds", "spent", "truncated", "seeded"):
            assert field in prune
        assert prune["rounds"] >= 1
        assert prune["truncated"] == 0


# ----------------------------------------------------------------------
# Sparse FaultGraph behaviours
# ----------------------------------------------------------------------
class TestSparseFaultGraph:
    def test_auto_mode_respects_cutoff(self, monkeypatch):
        parts = [Partition([0, 0, 1, 1])]
        assert not FaultGraph(4, parts).is_sparse
        monkeypatch.setattr(fault_graph_module, "SPARSE_STATE_CUTOFF", 3)
        assert FaultGraph(4, parts).is_sparse

    def test_dense_exports_refused_above_cutoff(self, monkeypatch):
        monkeypatch.setattr(fault_graph_module, "DENSE_EXPORT_LIMIT", 3)
        graph = FaultGraph(5, [Partition([0, 0, 1, 1, 2])], mode="sparse")
        with pytest.raises(PartitionError):
            graph.condensed_weights
        with pytest.raises(PartitionError):
            graph.weight_matrix
        with pytest.raises(PartitionError):
            graph.edges()
        # The sparse queries still work.
        assert graph.dmin() == 0
        assert graph.weakest_edges() == [(0, 1), (2, 3)]

    def test_small_sparse_graph_materialises_dense_exports(self):
        parts = [Partition([0, 0, 1])]
        sparse = FaultGraph(3, parts, mode="sparse")
        dense = FaultGraph(3, parts, mode="dense")
        assert np.array_equal(sparse.condensed_weights, dense.condensed_weights)
        assert np.array_equal(sparse.weight_matrix, dense.weight_matrix)
        assert sparse.edges() == dense.edges()

    def test_cap_escalation_reaches_exact_dmin(self):
        # Every pair separated by both machines: dmin == m == 2, which a
        # cap-1 ledger can only learn by escalating.
        parts = [Partition([0, 1, 2]), Partition([2, 1, 0])]
        graph = FaultGraph(3, parts, mode="sparse", weight_cap=1)
        assert graph.dmin() == 2
        assert len(graph.weakest_edges()) == 3  # uniform graph: all pairs

    def test_zero_machine_sparse_graph(self):
        graph = FaultGraph(3, [], mode="sparse")
        assert graph.dmin() == 0
        assert graph.weakest_edges() == [(0, 1), (0, 2), (1, 2)]

    def test_mode_validation(self):
        with pytest.raises(PartitionError):
            FaultGraph(2, [], mode="dense-ish")
        with pytest.raises(PartitionError):
            FaultGraph(2, [], mode="sparse", weight_cap=0)


# ----------------------------------------------------------------------
# Worker resolution; fusion never forks
# ----------------------------------------------------------------------
def _refuse_workers(monkeypatch):
    """Make any attempt to submit to a pool or start an executor fail."""
    import concurrent.futures

    from repro.core import shm as shm_module

    def refuse(*_args, **_kwargs):
        raise AssertionError("fusion generation tried to start a worker")

    monkeypatch.setattr(shm_module.SharedWorkerPool, "submit", refuse)
    monkeypatch.setattr(shm_module, "ProcessPoolExecutor", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)


class TestWorkerPool:
    def test_resolve_workers_explicit_wins(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(1) == 1
        assert resolve_workers(3) == 3
        assert resolve_workers(10**6) == fusion_module._MAX_WORKERS

    def test_resolve_workers_serial_under_pytest(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSION_WORKERS", raising=False)
        # PYTEST_CURRENT_TEST is set right now, so the default is serial.
        assert resolve_workers(None) == 0

    def test_resolve_workers_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSION_WORKERS", "5")
        assert resolve_workers(None) == 5
        monkeypatch.setenv("REPRO_FUSION_WORKERS", "not-a-number")
        with pytest.raises(fusion_module.FusionError):
            resolve_workers(None)

    def test_iter_pair_chunks_tiny(self):
        assert list(iter_pair_chunks(0)) == []
        assert list(iter_pair_chunks(1)) == []
        ((rows, cols),) = list(iter_pair_chunks(2))
        assert rows.tolist() == [0] and cols.tolist() == [1]

    @pytest.mark.parametrize(
        "build, expected",
        [
            (
                lambda: counters(9),
                {
                    "originals": ["c%d" % e for e in range(9)], "f": 1,
                    "top_size": 19683, "num_backups": 1, "backup_sizes": [3],
                    "fusion_state_space": 3, "initial_dmin": 1, "final_dmin": 2,
                    "byzantine_faults_tolerated": 0,
                },
            ),
            (
                lambda: [mesi()] + counters(8),
                {
                    "originals": ["MESI"] + ["c%d" % e for e in range(8)], "f": 1,
                    "top_size": 26244, "num_backups": 1, "backup_sizes": [12],
                    "fusion_state_space": 12, "initial_dmin": 1, "final_dmin": 2,
                    "byzantine_faults_tolerated": 0,
                },
            ),
        ],
        ids=["counters-9", "mesi+counters-8"],
    )
    @pytest.mark.parametrize("workers", [2, 4, "env"])
    def test_fusion_never_forks(self, monkeypatch, build, expected, workers):
        """Any ``workers=`` count, or ``REPRO_FUSION_WORKERS`` (``env``),
        is accepted, but no stage submits to a pool or starts an
        executor; the summaries are the frozen ones of
        ``benchmarks/bench_perf_regression.py``."""
        _refuse_workers(monkeypatch)
        if workers == "env":
            monkeypatch.setenv("REPRO_FUSION_WORKERS", "2")
            result = generate_fusion(build(), f=1)
        else:
            result = generate_fusion(build(), f=1, workers=workers)
        assert result.summary() == expected

    def test_sparse_serial_matches_dense_engine(self, forced_sparse):
        sparse = generate_fusion(counters(4), f=1)
        assert sparse.graph.is_sparse
        # Recompute with the real cutoffs (dense) in a fresh interpreter
        # state: the frozen expected values from the dense engine.
        assert sparse.summary()["backup_sizes"] == [3]
        assert sparse.summary()["final_dmin"] == 2
