"""The batched pair-closure kernel against from-the-definition oracles.

Two naive references, written straight from the definitions and sharing
no code with :mod:`repro.core.partition`:

* :func:`pair_closure_oracle` — Hartmanis & Stearns' pair closure on a
  worklist: whenever two states are identified, their successors under
  every event are identified too (a plain union-find);
* :func:`is_closed_oracle` — Section 2.1's closedness, checked event by
  event: under each event, all states of a block step into one block.

Each candidate merge the kernel closes (:func:`close_merges`) must then
agree with the oracles:

* ``ok`` is True exactly when the oracle's closure separates every weak
  pair;
* the canonical labels of every accepted closure are byte-identical to
  the oracle's, and closed;
* neither depends on which other candidates share the batch, on their
  order, or on where the kernel's passes are cut.

The inputs are hypothesis machines and the quotient of every lattice
level Algorithm 2 visits on the zoo and on counters-6 at ``f = 1..3``.
Example counts follow the active hypothesis profile, so
``--hypothesis-profile=oracle`` (registered in ``tests/conftest.py``)
raises them all.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.core.fusion as fusion_module
import repro.core.partition as partition_module
from repro import Partition, closed_coarsening, generate_fusion
from repro.core.partition import WeakPairs, close_merges, closure_of_labels
from ..integration.test_partition_hashes import CASES
from .strategies import dfsm_strategy, partition_strategy

ORACLE = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

#: A level's oracle closures run over up to 729 states, so the level tests
#: draw a tenth of the active profile's examples.
LEVEL_ORACLE = settings(ORACLE, max_examples=max(10, settings.default.max_examples // 10))


# ----------------------------------------------------------------------
# Oracles
# ----------------------------------------------------------------------
def pair_closure_oracle(
    table: np.ndarray, seed_pairs: Iterable[Tuple[int, int]], n: int
) -> Partition:
    """Finest SP partition of ``n`` states that identifies every seed pair."""
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    rows = np.asarray(table).tolist()
    worklist: List[Tuple[int, int]] = [(int(a), int(b)) for a, b in seed_pairs]
    while worklist:
        a, b = worklist.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        worklist.extend(zip(rows[ra], rows[rb]))
    return Partition([find(i) for i in range(n)])


def is_closed_oracle(table: np.ndarray, labels: np.ndarray) -> bool:
    """True iff, under every event, each block steps into a single block."""
    rows = np.asarray(table).tolist()
    labels = np.asarray(labels).tolist()
    num_events = len(rows[0]) if rows else 0
    for event in range(num_events):
        image_of_block = {}
        for state, block in enumerate(labels):
            image = labels[rows[state][event]]
            if image_of_block.setdefault(block, image) != image:
                return False
    return True


def separates(partition: Partition, weak_a, weak_b) -> bool:
    labels = partition.labels
    return all(labels[a] != labels[b] for a, b in zip(weak_a, weak_b))


def seed_pairs_of(partition: Partition) -> List[Tuple[int, int]]:
    """Pairs (first member, member) that rebuild ``partition`` from the identity."""
    first = {}
    pairs = []
    for element, label in enumerate(partition.labels.tolist()):
        pairs.append((first.setdefault(label, element), element))
    return pairs


def assert_kernel_matches_oracle(table, rows, cols, weak_a, weak_b):
    """Every check of the module docstring, for one batch of candidates."""
    n = table.shape[0]
    weak = WeakPairs(np.asarray(weak_a, dtype=np.int64), np.asarray(weak_b, dtype=np.int64), n)
    ok, labels = close_merges(table, rows, cols, weak)
    for index, (a, b) in enumerate(zip(rows.tolist(), cols.tolist())):
        expected = pair_closure_oracle(table, [(a, b)], n)
        assert ok[index] == separates(expected, weak_a, weak_b), (a, b)
        if ok[index]:
            got = Partition(labels[index])
            assert got.labels.tobytes() == expected.labels.tobytes(), (a, b)
            assert is_closed_oracle(table, got.labels)
    # Batch composition: alone, reversed, and cut into one-row passes.
    for index in range(rows.size):
        alone_ok, alone = close_merges(table, rows[index:index + 1], cols[index:index + 1], weak)
        assert alone_ok[0] == ok[index]
        if ok[index]:
            assert np.array_equal(Partition(alone[0]).labels, Partition(labels[index]).labels)
    back_ok, back = close_merges(table, rows[::-1], cols[::-1], weak)
    assert np.array_equal(back_ok[::-1], ok)
    with mock.patch.object(partition_module, "_CLOSURE_CELLS", 1):
        cut_ok, cut = close_merges(table, rows, cols, weak)
    assert np.array_equal(cut_ok, ok)
    for index in np.flatnonzero(ok).tolist():
        reference = Partition(labels[index]).labels
        assert np.array_equal(Partition(back[rows.size - 1 - index]).labels, reference)
        assert np.array_equal(Partition(cut[index]).labels, reference)


# ----------------------------------------------------------------------
# Hypothesis machines
# ----------------------------------------------------------------------
@st.composite
def closure_batches(draw):
    machine = draw(dfsm_strategy(max_states=8, num_events=draw(st.integers(1, 3))))
    n = machine.num_states
    state = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(state, state), min_size=1, max_size=12))
    weak = draw(
        st.lists(st.tuples(state, state).filter(lambda p: p[0] != p[1]), max_size=6)
        if n > 1
        else st.just([])
    )
    table = machine.transition_table
    rows = np.asarray([p[0] for p in pairs], dtype=np.int64)
    cols = np.asarray([p[1] for p in pairs], dtype=np.int64)
    return table, rows, cols, [p[0] for p in weak], [p[1] for p in weak]


class TestHypothesisMachines:
    @ORACLE
    @given(closure_batches())
    def test_batches_match_the_oracle(self, batch):
        assert_kernel_matches_oracle(*batch)

    @ORACLE
    @given(dfsm_strategy(max_states=8, num_events=3).flatmap(
        lambda m: st.tuples(st.just(m), partition_strategy(m.num_states))
    ))
    def test_coarsening_matches_the_oracle(self, pair):
        machine, partition = pair
        table = machine.transition_table
        expected = pair_closure_oracle(table, seed_pairs_of(partition), machine.num_states)
        got = closed_coarsening(machine, partition)
        assert got.labels.tobytes() == expected.labels.tobytes()
        assert is_closed_oracle(table, got.labels)
        assert np.array_equal(closure_of_labels(table, partition.labels), expected.labels)

    @ORACLE
    @given(dfsm_strategy(max_states=8, num_events=2), st.data())
    def test_stop_if_merges_matches_the_oracle(self, machine, data):
        n = machine.num_states
        partition = data.draw(partition_strategy(n))
        state = st.integers(0, n - 1)
        weak = data.draw(st.lists(st.tuples(state, state), min_size=1, max_size=4))
        weak_a = np.asarray([p[0] for p in weak])
        weak_b = np.asarray([p[1] for p in weak])
        table = machine.transition_table
        expected = pair_closure_oracle(table, seed_pairs_of(partition), n)
        got = closure_of_labels(table, partition.labels, stop_if_merges=(weak_a, weak_b))
        if separates(expected, weak_a, weak_b):
            assert np.array_equal(got, expected.labels)
        else:
            assert got is None


# ----------------------------------------------------------------------
# Every lattice level of real descents
# ----------------------------------------------------------------------
def _descent_levels():
    """(label, quotient, weak a, weak b) of every level the descents visit."""
    levels = []
    scan = fusion_module._scan_level

    for name in ("zoo", "counters-6"):
        for f in (1, 2, 3):

            def recording(quotient, base_labels, weak, num_blocks, *args, _tag=(name, f)):
                levels.append(
                    ("%s f=%d B=%d #%d" % (_tag + (num_blocks, len(levels))),
                     quotient.copy(), weak.lo.copy(), weak.hi.copy())
                )
                return scan(quotient, base_labels, weak, num_blocks, *args)

            with mock.patch.object(fusion_module, "_scan_level", recording):
                generate_fusion(CASES[name](), f)
    return levels


LEVELS = _descent_levels()


@pytest.mark.parametrize("level", LEVELS, ids=[level[0] for level in LEVELS])
class TestDescentLevels:
    @LEVEL_ORACLE
    @given(data=st.data())
    def test_level_candidates_match_the_oracle(self, level, data):
        _, quotient, weak_a, weak_b = level
        blocks = quotient.shape[0]
        pair = st.tuples(st.integers(0, blocks - 2), st.integers(1, blocks - 1)).filter(
            lambda p: p[0] < p[1]
        )
        pairs = data.draw(st.lists(pair, min_size=1, max_size=8, unique=True))
        rows = np.asarray([p[0] for p in pairs], dtype=np.int64)
        cols = np.asarray([p[1] for p in pairs], dtype=np.int64)
        assert_kernel_matches_oracle(quotient, rows, cols, weak_a.tolist(), weak_b.tolist())

    def test_first_pairs_match_the_oracle(self, level):
        """The lexicographic head the optimistic scan closes first."""
        _, quotient, weak_a, weak_b = level
        rows, cols = np.triu_indices(quotient.shape[0], k=1)
        assert_kernel_matches_oracle(
            quotient, rows[:12].astype(np.int64), cols[:12].astype(np.int64),
            weak_a.tolist(), weak_b.tolist(),
        )


def test_levels_cover_both_families():
    names = {level[0].split(" ")[0] for level in LEVELS}
    assert names == {"zoo", "counters-6"}
    assert len(LEVELS) >= 12


@pytest.mark.parametrize("case", ["zoo", "counters-6"])
def test_descent_does_not_depend_on_pass_cuts(case):
    """One candidate per kernel pass chooses the same partitions."""
    reference = generate_fusion(CASES[case](), 2).partitions
    with mock.patch.object(partition_module, "_CLOSURE_CELLS", 1):
        cut = generate_fusion(CASES[case](), 2).partitions
    assert [p.labels.tobytes() for p in cut] == [p.labels.tobytes() for p in reference]
