"""From-the-definition oracle for the descent's doomed-pair prune.

Merging blocks ``(a, b)`` forces merging ``(δ(a, e), δ(b, e))`` for
every event ``e``, so a candidate is doomed exactly when some weakest
pair is reachable from it in this pair-implication graph.  The oracle
searches that graph backwards from the weakest pairs, one preimage pair
at a time; :func:`repro.core.fusion._doomed_pairs` must mark the same
pairs, on hypothesis machines and on every level the descents of the
catalog machine sets prune, report a round-truncated stop, and leave
the descent's output unchanged when it stops early.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.fusion as fusion_module
from repro.core.fusion import _doomed_pairs, generate_fusion
from repro.core.partition import Partition, WeakPairs, quotient_table
from repro.machines import mesi, mod_counter, shift_register
from repro.machines.catalog import EXPECTED_SUMMARIES, GENERATION_CASES
from repro.utils.timing import Stopwatch

from ..machine_sets import MACHINE_SETS
from .strategies import dfsm_strategy


def _protocol_mix():
    return [
        mesi(),
        mod_counter(3, "local_read", events=mesi().events, name="rd-ctr"),
        shift_register(
            3, bit_events=("local_read", "local_write"), events=mesi().events, name="sr"
        ),
    ]


def doomed_oracle(quotient, weak_pairs, num_blocks):
    """The pairs ``(a, b)``, ``a < b``, from which a weakest pair is
    reachable in the pair-implication graph: a backward search from the
    weakest pairs through each event's preimages."""
    table = quotient.tolist()
    preimages = [[[] for _ in range(num_blocks)] for _ in range(quotient.shape[1])]
    for block, row in enumerate(table):
        for event, image in enumerate(row):
            preimages[event][image].append(block)
    doomed = {(min(a, b), max(a, b)) for a, b in weak_pairs}
    stack = list(doomed)
    while stack:
        x, y = stack.pop()
        for before in preimages:
            for a in before[x]:
                for b in before[y]:
                    pair = (min(a, b), max(a, b))
                    if a != b and pair not in doomed:
                        doomed.add(pair)
                        stack.append(pair)
    return doomed


def _marked(doomed):
    """The upper-triangle pairs a doomed matrix marks."""
    rows, cols = np.nonzero(np.triu(doomed, 1))
    return set(zip(rows.tolist(), cols.tolist()))


def _draw_level(machine, data, max_weak):
    """An identity-level quotient of ``machine`` and drawn weakest pairs."""
    n = machine.num_states
    quotient = quotient_table(machine, Partition.identity(n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    chosen = data.draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=max_weak))
    weak_a = np.asarray([p[0] for p in chosen], dtype=np.int64)
    weak_b = np.asarray([p[1] for p in chosen], dtype=np.int64)
    return quotient, chosen, weak_a, weak_b


class TestDensePruneOracle:
    @settings(max_examples=40, deadline=None)
    @given(dfsm_strategy(max_states=7, num_events=3), st.data())
    def test_fixpoint_matches_brute_force_closure(self, machine, data):
        n = machine.num_states
        if n < 2:
            return
        quotient, chosen, weak_a, weak_b = _draw_level(machine, data, 4)
        doomed, stats = _doomed_pairs(quotient, weak_a, weak_b, n)
        assert np.array_equal(doomed, doomed.T)
        assert not doomed.diagonal().any()
        expected = doomed_oracle(quotient, chosen, n)
        assert _marked(doomed) == expected
        assert not stats.truncated

    @settings(max_examples=40, deadline=None)
    @given(
        dfsm_strategy(max_states=7, num_events=2),
        st.data(),
        st.integers(min_value=1, max_value=3),
    )
    def test_round_truncated_set_is_subset_of_full_fixpoint(
        self, machine, data, max_rounds
    ):
        """An early stop is sound (it only prunes less) and reported."""
        n = machine.num_states
        if n < 2:
            return
        quotient, _chosen, weak_a, weak_b = _draw_level(machine, data, 3)
        full, _ = _doomed_pairs(quotient, weak_a, weak_b, n)
        original = fusion_module._DOOMED_MAX_ROUNDS
        fusion_module._DOOMED_MAX_ROUNDS = max_rounds
        try:
            cut, stats = _doomed_pairs(quotient, weak_a, weak_b, n)
        finally:
            fusion_module._DOOMED_MAX_ROUNDS = original
        assert not (cut & ~full).any()
        if not np.array_equal(cut, full):
            assert stats.truncated

    def test_descent_byte_identical_under_truncation(self, monkeypatch):
        """A truncated prune only sends more candidates through the exact
        closure check — the generated fusion must not change at all."""
        machines = _protocol_mix()
        reference = generate_fusion(machines, f=1)
        monkeypatch.setattr(fusion_module, "_DOOMED_MAX_ROUNDS", 1)
        watch = Stopwatch()
        truncated = generate_fusion(machines, f=1, stopwatch=watch)
        assert watch.as_dict()["prune"]["truncated"] > 0
        assert truncated.summary() == reference.summary()
        assert [tuple(p.labels) for p in truncated.partitions] == [
            tuple(p.labels) for p in reference.partitions
        ]


def _pruned_levels(machines, f):
    """(quotient, weak a, weak b, blocks) of every level a descent prunes."""
    levels = []

    def recording(quotient, weak_a, weak_b, num_blocks):
        levels.append((quotient.copy(), weak_a.copy(), weak_b.copy(), num_blocks))
        return _doomed_pairs(quotient, weak_a, weak_b, num_blocks)

    with mock.patch.object(fusion_module, "_doomed_pairs", recording):
        generate_fusion(machines, f)
    return levels


#: The catalog machine sets at every f = 1..3 whose descents run a prune
#: (the counter families settle low f without one).
PRUNING_RUNS = [
    ("fig1", 3),
    ("counters-3", 2), ("counters-3", 3),
    ("counters-5", 2), ("counters-5", 3),
    ("mesi+tcp", 1), ("mesi+tcp", 2), ("mesi+tcp", 3),
    ("mesi+counters+shift", 1), ("mesi+counters+shift", 2), ("mesi+counters+shift", 3),
    ("zoo", 1), ("zoo", 2), ("zoo", 3),
]


@pytest.mark.parametrize("name, f", PRUNING_RUNS, ids=["%s-f%d" % run for run in PRUNING_RUNS])
def test_every_pruned_catalog_level_matches_the_oracle(name, f):
    levels = _pruned_levels(MACHINE_SETS[name](), f)
    assert levels, "the descent ran no prune"
    for quotient, weak_a, weak_b, num_blocks in levels:
        doomed, stats = _doomed_pairs(quotient, weak_a, weak_b, num_blocks)
        weak = zip(weak_a.tolist(), weak_b.tolist())
        assert _marked(doomed) == doomed_oracle(quotient, weak, num_blocks)
        assert not stats.truncated


class TestPruneStats:
    QUOTIENT = np.array([[1], [2], [2]])  # 0 -> 1 -> 2 -> 2 under one event
    WEAK = (np.array([1]), np.array([2]))

    def test_converged_run_reports_rounds_and_spent(self):
        doomed, stats = _doomed_pairs(self.QUOTIENT, *self.WEAK, 3)
        assert _marked(doomed) == {(0, 1), (0, 2), (1, 2)}
        # One round grows the set, a second confirms it; each sweeps 3 x 3 cells.
        assert (stats.rounds, stats.spent, stats.truncated) == (2, 18, False)

    def test_round_stop_sets_truncated_flag(self, monkeypatch):
        monkeypatch.setattr(fusion_module, "_DOOMED_MAX_ROUNDS", 1)
        doomed, stats = _doomed_pairs(self.QUOTIENT, *self.WEAK, 3)
        assert _marked(doomed) == {(0, 1), (0, 2), (1, 2)}
        assert (stats.rounds, stats.spent, stats.truncated) == (1, 9, True)


def test_levels_above_the_cutoff_are_not_pruned(monkeypatch):
    """With the cutoff below every level the descent closes every
    candidate, records no prune stage, and chooses the same machines."""
    case = "mesi+counters+shift (top~252)"
    monkeypatch.setattr(fusion_module, "DENSE_PRUNE_CUTOFF", 1)
    watch = Stopwatch()
    result = generate_fusion(GENERATION_CASES[case](), f=1, stopwatch=watch)
    assert "prune" not in watch.as_dict()
    assert "closure" in watch.as_dict()
    assert result.summary() == EXPECTED_SUMMARIES[case]


class TestDeduplicatedWeakPairs:
    @settings(max_examples=50, deadline=None)
    @given(dfsm_strategy(max_states=6, num_events=2), st.data())
    def test_prune_of_deduplicated_pairs_is_unchanged(self, machine, data):
        """The descent feeds the prune one ``(min, max)`` key per block
        pair (:class:`WeakPairs`); the doomed set and stats match the
        raw, repeated, either-way-round projection."""
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
        raw_doomed, raw_stats = _doomed_pairs(quotient, raw_a, raw_b, n)
        dedup_doomed, dedup_stats = _doomed_pairs(quotient, weak.lo, weak.hi, n)
        assert np.array_equal(raw_doomed, dedup_doomed)
        assert raw_stats == dedup_stats
