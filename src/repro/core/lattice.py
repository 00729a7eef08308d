"""The closed partition lattice of a DFSM (Section 2.1 of the paper).

The set of all closed (SP) partitions of a machine's state set forms a
lattice under the paper's order (coarser = smaller).  Fusion generation
(Algorithm 2) only ever needs *lower covers* — the maximal closed
partitions strictly below a given one — so the lattice never has to be
materialised in full.  This module provides:

* :func:`lower_cover` — Definition 2, the work-horse of Algorithm 2;
* :func:`basis` — the lower cover of ``top``;
* :class:`ClosedPartitionLattice` — an explicit enumeration of the whole
  lattice (top, bottom, covering relation, Hasse-diagram edges) for small
  machines; used by the exhaustive-search ablation, the Figure 3
  reproduction and the test-suite, and exportable to ``networkx``.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Set, Tuple

import numpy as np

from .dfsm import DFSM
from .exceptions import PartitionError
from .partition import (
    Partition,
    close_merges,
    is_closed_partition,
    machine_from_partition,
    merge_batch_limit,
    quotient_table,
)
from .types import StateLabel

__all__ = [
    "lower_cover",
    "lower_cover_machines",
    "basis",
    "ClosedPartitionLattice",
]


def _maximal_partitions(candidates: Iterable[Partition]) -> List[Partition]:
    """Filter a collection of partitions down to its maximal elements.

    ``p < q`` requires ``q`` to refine ``p`` strictly, which is impossible
    unless ``q`` has strictly more blocks, so dominance checks are limited
    to candidates with larger block counts — this skips the (vectorised,
    but still O(n)) refinement test for the vast majority of pairs.
    """
    unique: List[Partition] = []
    seen: Set[Partition] = set()
    for p in candidates:
        if p not in seen:
            seen.add(p)
            unique.append(p)
    maximal: List[Partition] = []
    for p in unique:
        dominated = any(
            q.num_blocks > p.num_blocks and p < q for q in unique
        )
        if not dominated:
            maximal.append(p)
    return maximal


def lower_cover(machine: DFSM, partition: Optional[Partition] = None) -> List[Partition]:
    """Lower cover of a closed partition of ``machine`` (Definition 2).

    For every pair of blocks of ``partition``, the two blocks are merged
    and the largest closed partition below the merge is computed (by
    batched :func:`repro.core.partition.close_merges` calls, one per
    full batch of pairs); the maximal elements among the results that
    are strictly below ``partition`` form the lower cover.

    Parameters
    ----------
    machine:
        The machine whose state set is partitioned (usually ``top``).
    partition:
        A closed partition of ``machine``'s states.  Defaults to the
        identity partition, i.e. the lower cover of ``top`` itself, which
        the paper calls the *basis* of the lattice.

    Returns
    -------
    list of Partition
        The maximal closed partitions strictly less than ``partition``.
        Empty exactly when ``partition`` is already the single-block
        bottom element.
    """
    n = machine.num_states
    if partition is None:
        partition = Partition.identity(n)
    if partition.num_elements != n:
        raise PartitionError(
            "partition has %d elements but machine %s has %d states"
            % (partition.num_elements, machine.name, n)
        )
    if partition.num_blocks <= 1:
        return []
    # Work on the quotient machine: merging two blocks of a closed
    # partition and closing is equivalent to merging the corresponding
    # quotient states and closing there, then pulling the result back.
    # Kernel calls close the block pairs a full batch at a time, so the
    # ``(pairs, B)`` label table never outgrows one batch.  Distinct pairs
    # routinely close to the same partition (a closure's smallest-member
    # labels identify it), so candidates are deduplicated in
    # first-appearance order before any pullback is kept.
    quotient = quotient_table(machine, partition)
    rows, cols = np.triu_indices(partition.num_blocks, k=1)
    step = merge_batch_limit(partition.num_blocks)
    base_labels = partition.labels
    candidates: List[Partition] = []
    seen: Set[bytes] = set()
    for start in range(0, rows.size, step):
        _, closed = close_merges(quotient, rows[start:start + step], cols[start:start + step])
        for labels in closed:
            key = labels.tobytes()
            if key not in seen:
                seen.add(key)
                candidates.append(Partition(labels[base_labels]))
    return _maximal_partitions(candidates)


def lower_cover_machines(
    top: DFSM, partition: Optional[Partition] = None, name_prefix: str = "M"
) -> List[DFSM]:
    """Lower cover as quotient :class:`DFSM` objects instead of partitions."""
    covers = lower_cover(top, partition)
    return [
        machine_from_partition(top, p, name="%s%d" % (name_prefix, i))
        for i, p in enumerate(covers)
    ]


def basis(top: DFSM) -> List[Partition]:
    """The basis of the closed partition lattice: the lower cover of ``top``."""
    return lower_cover(top, Partition.identity(top.num_states))


class ClosedPartitionLattice:
    """Explicit enumeration of the closed partition lattice of a machine.

    The lattice is discovered top-down: starting from the identity
    partition (``top``), lower covers are expanded breadth-first until
    the single-block bottom is reached.  The number of closed partitions
    can grow quickly with machine size, so this class is intended for
    small machines (figures, tests, exhaustive ablations); Algorithm 2
    itself never builds it.

    Attributes
    ----------
    top_partition / bottom_partition:
        The identity and single-block partitions.
    """

    def __init__(self, machine: DFSM, max_size: int = 100_000) -> None:
        self._machine = machine
        n = machine.num_states
        top = Partition.identity(n)
        self._partitions: List[Partition] = [top]
        index: Dict[Partition, int] = {top: 0}
        self._cover_edges: List[Tuple[int, int]] = []  # (upper, lower) covering pairs
        frontier: List[int] = [0]
        while frontier:
            next_frontier: List[int] = []
            for pi in frontier:
                for lower in lower_cover(machine, self._partitions[pi]):
                    li = index.get(lower)
                    if li is None:
                        li = len(self._partitions)
                        if li >= max_size:
                            raise PartitionError(
                                "closed partition lattice of %s exceeds max_size=%d"
                                % (machine.name, max_size)
                            )
                        index[lower] = li
                        self._partitions.append(lower)
                        next_frontier.append(li)
                    self._cover_edges.append((pi, li))
            frontier = next_frontier
        self._index = index

    # ------------------------------------------------------------------
    @property
    def machine(self) -> DFSM:
        """The machine whose closed partitions are enumerated."""
        return self._machine

    @property
    def partitions(self) -> Tuple[Partition, ...]:
        """All closed partitions, in discovery (top-down BFS) order."""
        return tuple(self._partitions)

    @property
    def top_partition(self) -> Partition:
        """The identity partition (the machine itself)."""
        return self._partitions[0]

    @property
    def bottom_partition(self) -> Partition:
        """The single-block partition."""
        return Partition.single_block(self._machine.num_states)

    @property
    def size(self) -> int:
        """Number of closed partitions in the lattice."""
        return len(self._partitions)

    def __len__(self) -> int:
        return self.size

    def __contains__(self, partition: Partition) -> bool:
        return partition in self._index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "ClosedPartitionLattice(machine=%r, size=%d)" % (
            self._machine.name,
            self.size,
        )

    # ------------------------------------------------------------------
    def index_of(self, partition: Partition) -> int:
        """Index of a partition within :attr:`partitions`."""
        try:
            return self._index[partition]
        except KeyError:
            raise PartitionError("partition is not a closed partition of %s" % self._machine.name) from None

    def cover_edges(self) -> List[Tuple[int, int]]:
        """Hasse-diagram edges as (upper index, lower index) pairs."""
        return sorted(set(self._cover_edges))

    def basis(self) -> List[Partition]:
        """The lower cover of the top element."""
        return lower_cover(self._machine, self.top_partition)

    def machines(self, name_prefix: str = "L") -> List[DFSM]:
        """Quotient machines for every lattice element, in lattice order."""
        return [
            machine_from_partition(self._machine, p, name="%s%d" % (name_prefix, i))
            for i, p in enumerate(self._partitions)
        ]

    def partitions_with_block_count(self, num_blocks: int) -> List[Partition]:
        """All lattice elements with exactly ``num_blocks`` blocks."""
        return [p for p in self._partitions if p.num_blocks == num_blocks]

    def leq(self, lower: Partition, upper: Partition) -> bool:
        """Order test between two lattice elements (paper's ``<=``)."""
        return lower <= upper

    def to_networkx(self):
        """Export the Hasse diagram as a ``networkx.DiGraph``.

        Nodes are partition indices with a ``blocks`` attribute containing
        the block structure (as tuples of state labels); edges point from
        the covering (upper) element to the covered (lower) element.
        """
        import networkx as nx

        graph = nx.DiGraph()
        for i, partition in enumerate(self._partitions):
            blocks = tuple(
                tuple(sorted((self._machine.state_label(e) for e in block), key=repr))
                for block in partition.blocks()
            )
            graph.add_node(i, blocks=blocks, num_blocks=partition.num_blocks)
        graph.add_edges_from(self.cover_edges())
        return graph

    def find_partition_by_blocks(
        self, blocks: Iterable[Iterable[StateLabel]]
    ) -> Optional[Partition]:
        """Look up a lattice element by its blocks given as state labels.

        Returns ``None`` when the described partition is not closed or not
        in the lattice (the two are equivalent for partitions of this
        machine's full state set).
        """
        index_blocks = [
            [self._machine.state_index(label) for label in block] for block in blocks
        ]
        try:
            partition = Partition.from_blocks(index_blocks, self._machine.num_states)
        except PartitionError:
            return None
        return partition if partition in self._index else None

    def validate(self) -> None:
        """Check that every enumerated partition really is closed (debug aid)."""
        for partition in self._partitions:
            if not is_closed_partition(self._machine, partition):
                raise PartitionError(
                    "lattice of %s contains a non-closed partition" % self._machine.name
                )
