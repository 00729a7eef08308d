"""The fault graph against its definition: Hamming distances of state words.

Section 3 reads the reachable cross product as a code.  A top state's
word is its component-label tuple (:meth:`CrossProduct.state_tuples`)
followed by its block label in each backup; the weight of an edge is the
Hamming distance between the two words
(:func:`repro.coding.hamming.hamming_distance`), and ``dmin`` is the
least weight.  The oracle below computes exactly that, pair by pair, and
shares no code with :mod:`repro.core.fault_graph` or
:mod:`repro.core.sparse`.

Both engines (``mode="dense"`` and ``mode="sparse"``) must agree with it
on hypothesis machine sets and the backups :func:`generate_fusion` adds
to them:

* ``dmin``, ``weakest_edge_arrays`` and ``edges_below`` of the graph of
  the originals plus every prefix of the backups, built the way
  Algorithm 2 builds it (one ``with_partition`` per backup, so the
  sparse ledger is a base ledger plus folds, escalated from a small
  ``weight_cap``);
* ``dmin_with`` of each next backup.

Example counts follow the active hypothesis profile, so
``--hypothesis-profile=oracle`` (registered in ``tests/conftest.py``)
raises them.
"""

from __future__ import annotations

from itertools import combinations
from typing import Dict, List, Sequence, Tuple

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import CrossProduct, FaultGraph, Partition, generate_fusion
from repro.coding.hamming import hamming_distance

from .strategies import machine_set_strategy

ORACLE = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])


# ----------------------------------------------------------------------
# Oracle
# ----------------------------------------------------------------------
def state_words(product: CrossProduct, backups: Sequence[Partition]) -> List[Tuple]:
    """Each top state's component labels followed by its backup blocks."""
    return [
        tuple(state) + tuple(int(backup.labels[index]) for backup in backups)
        for index, state in enumerate(product.state_tuples())
    ]


def edge_weights(words: Sequence[Tuple]) -> Dict[Tuple[int, int], int]:
    """Every edge ``(i, j)``, ``i < j``, in condensed order, with its weight."""
    return {
        (i, j): hamming_distance(words[i], words[j])
        for i, j in combinations(range(len(words)), 2)
    }


def oracle_dmin(words: Sequence[Tuple]) -> int:
    """Least edge weight; a one-state graph reports its machine count."""
    weights = edge_weights(words)
    return min(weights.values()) if weights else len(words[0])


# ----------------------------------------------------------------------
# The graphs under test
# ----------------------------------------------------------------------
@st.composite
def fused_machine_sets(draw):
    """Machines, the backups Algorithm 2 adds for them, and a ledger cap."""
    machines = draw(machine_set_strategy())
    fusion = generate_fusion(machines, f=draw(st.integers(min_value=1, max_value=3)))
    weight_cap = draw(st.integers(min_value=1, max_value=4))
    return machines, fusion.partitions, weight_cap


def graph_chain(machines, backups, mode: str, weight_cap: int):
    """``G(top, originals + backups[:k])`` for every ``k``, by ``with_partition``."""
    product = CrossProduct(machines)
    graph = FaultGraph.from_cross_product(product, mode=mode, weight_cap=weight_cap)
    chain = [graph]
    for backup in backups:
        graph = graph.with_partition(backup)
        chain.append(graph)
    return product, chain


@pytest.mark.parametrize("mode", ["dense", "sparse"])
class TestFaultGraphOracle:
    @ORACLE
    @given(fused_machine_sets())
    def test_weights_match_hamming_distance(self, mode, case):
        machines, backups, weight_cap = case
        product, chain = graph_chain(machines, backups, mode, weight_cap)
        for added, graph in enumerate(chain):
            assert graph.is_sparse == (mode == "sparse")
            words = state_words(product, backups[:added])
            weights = edge_weights(words)
            least = oracle_dmin(words)
            assert graph.dmin() == least

            rows, cols = graph.weakest_edge_arrays()
            weakest = [edge for edge, weight in weights.items() if weight == least]
            assert list(zip(rows.tolist(), cols.tolist())) == weakest

            for threshold in range(graph.num_machines + 2):
                below = [edge for edge, weight in weights.items() if weight < threshold]
                assert graph.edges_below(threshold) == below

    @ORACLE
    @given(fused_machine_sets())
    def test_dmin_with_matches_hamming_distance(self, mode, case):
        machines, backups, weight_cap = case
        product, chain = graph_chain(machines, backups, mode, weight_cap)
        for added, backup in enumerate(backups):
            words = state_words(product, backups[: added + 1])
            assert chain[added].dmin_with(backup) == oracle_dmin(words)
        # A partition Algorithm 2 did not choose: the identity separates
        # every pair, so it adds one to every weight.
        identity = Partition.identity(product.num_states)
        words = [word + (index,) for index, word in enumerate(state_words(product, backups))]
        assert chain[-1].dmin_with(identity) == oracle_dmin(words)
