"""Partitions of a DFSM's state set and the closed-partition machinery.

Section 2.1 of the paper: a *partition* of the state set of a machine
``T`` groups the states into disjoint blocks; the partition is *closed*
(a "substitution property" / SP partition) when every event maps each
block into a single block.  Every closed partition of ``T`` corresponds
to a quotient machine that is less than or equal to ``T`` in the order
used throughout the paper, and conversely every machine ``A <= T``
induces a closed partition of ``T``'s states (its *set representation*,
Algorithm 1).

This module provides:

* :class:`Partition` — an immutable partition of ``{0, .., n-1}`` encoded
  as a canonical block-label vector (NumPy), with the lattice operations
  (order test, join, meet) used by :mod:`repro.core.lattice`;
* :func:`closed_coarsening` — the "largest closed partition below a given
  partition" operation that underlies lower covers (Definition 2);
* :func:`set_representation` / :func:`partition_from_machine` —
  Algorithm 1 of the paper;
* :func:`machine_from_partition` — the quotient machine of a closed
  partition, i.e. the inverse direction.
"""

from __future__ import annotations

from collections import deque
from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .dfsm import DFSM
from .exceptions import NotComparableError, PartitionError
from .types import StateLabel

__all__ = [
    "Partition",
    "closed_coarsening",
    "closure_of_labels",
    "quotient_table",
    "merge_blocks_and_close",
    "is_closed_partition",
    "set_representation",
    "machine_assignment",
    "partition_from_machine",
    "machine_from_partition",
    "partition_from_projection",
]


def renumber_by_first_appearance(first: np.ndarray, inverse: np.ndarray) -> np.ndarray:
    """Turn ``np.unique``'s ``(return_index, return_inverse)`` output into
    labels numbered 0..k-1 in order of first appearance (the canonical
    numbering a sequential dict-based pass would produce)."""
    inverse = inverse.ravel()
    remap = np.empty(first.size, dtype=np.int64)
    remap[np.argsort(first, kind="stable")] = np.arange(first.size, dtype=np.int64)
    return remap[inverse]


def _canonicalise(labels: np.ndarray) -> np.ndarray:
    """Relabel blocks as 0..k-1 in order of first appearance (vectorised)."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return renumber_by_first_appearance(first, inverse)


def _first_of_each_block(labels: np.ndarray) -> np.ndarray:
    """Index of the first member of each block of a *canonical* label vector.

    Because canonical labels are ``0..k-1`` in order of first appearance,
    ``np.unique``'s first-occurrence indices line up with the block ids.
    """
    return np.unique(labels, return_index=True)[1]


def _block_members(labels: np.ndarray, num_blocks: int) -> Tuple[np.ndarray, np.ndarray]:
    """Group the elements of a ``0..num_blocks-1`` label vector by block.

    Returns ``(members, bounds)``: one stable ``argsort`` lists the
    elements block by block (ascending within each block) and one
    ``searchsorted`` finds the block starts, so block ``b`` is
    ``members[bounds[b]:bounds[b + 1]]`` and its first member is
    ``members[bounds[b]]``.
    """
    members = np.argsort(labels, kind="stable")
    bounds = np.searchsorted(labels[members], np.arange(num_blocks + 1))
    return members, bounds


class Partition:
    """An immutable partition of the index set ``{0, .., n-1}``.

    The partition is stored as a *block-label vector*: ``labels[i]`` is
    the block identifier of element ``i``, canonicalised so identifiers
    are ``0..k-1`` in order of first appearance.  Two partitions are equal
    iff they group elements identically, regardless of how blocks were
    originally named.

    Ordering follows the paper: ``P1 <= P2`` iff every block of ``P2`` is
    contained in some block of ``P1`` (``P1`` is the coarser partition).
    The identity partition (every element its own block) is therefore the
    maximum and the single-block partition the minimum, matching the
    ``top`` / ``bottom`` elements of the closed partition lattice.
    """

    __slots__ = ("_labels", "_num_blocks", "_hash")

    def __init__(self, labels: Sequence[int]) -> None:
        arr = np.asarray(labels, dtype=np.int64)
        if arr.ndim != 1:
            raise PartitionError("block-label vector must be one-dimensional")
        if arr.size == 0:
            raise PartitionError("cannot build a partition of an empty set")
        arr = _canonicalise(arr)
        arr.setflags(write=False)
        self._labels = arr
        self._num_blocks = int(arr.max()) + 1 if arr.size else 0
        self._hash: Optional[int] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def identity(cls, n: int) -> "Partition":
        """The finest partition of ``n`` elements (each its own block)."""
        return cls(np.arange(n, dtype=np.int64))

    @classmethod
    def single_block(cls, n: int) -> "Partition":
        """The coarsest partition of ``n`` elements (one block)."""
        return cls(np.zeros(n, dtype=np.int64))

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], n: int) -> "Partition":
        """Build a partition from an explicit list of blocks.

        The blocks must be disjoint and cover ``{0, .., n-1}`` exactly.
        """
        labels = np.full(n, -1, dtype=np.int64)
        for b, block in enumerate(blocks):
            for element in block:
                if not 0 <= element < n:
                    raise PartitionError("element %r outside range(0, %d)" % (element, n))
                if labels[element] != -1:
                    raise PartitionError("element %r appears in two blocks" % (element,))
                labels[element] = b
        if (labels == -1).any():
            missing = np.nonzero(labels == -1)[0].tolist()
            raise PartitionError("elements %r are not covered by any block" % (missing,))
        return cls(labels)

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def labels(self) -> np.ndarray:
        """The canonical block-label vector (read-only)."""
        return self._labels

    @property
    def num_elements(self) -> int:
        return int(self._labels.size)

    @property
    def num_blocks(self) -> int:
        return self._num_blocks

    def __len__(self) -> int:
        return self._num_blocks

    def block_of(self, element: int) -> int:
        """Block identifier of ``element``."""
        return int(self._labels[element])

    def blocks(self) -> List[FrozenSet[int]]:
        """The blocks as frozensets of element indices, in label order."""
        out: List[set] = [set() for _ in range(self._num_blocks)]
        for element, label in enumerate(self._labels.tolist()):
            out[label].add(element)
        return [frozenset(b) for b in out]

    def block_members(self, block: int) -> FrozenSet[int]:
        """Members of a single block."""
        if not 0 <= block < self._num_blocks:
            raise PartitionError("block %d out of range" % block)
        return frozenset(np.nonzero(self._labels == block)[0].tolist())

    def same_block(self, a: int, b: int) -> bool:
        """True if elements ``a`` and ``b`` share a block."""
        return bool(self._labels[a] == self._labels[b])

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Partition(blocks=%d, elements=%d)" % (self._num_blocks, self.num_elements)

    # ------------------------------------------------------------------
    # Equality / hashing
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return np.array_equal(self._labels, other._labels)

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self._labels.tobytes())
        return self._hash

    # ------------------------------------------------------------------
    # Order and lattice operations
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "Partition") -> None:
        if self.num_elements != other.num_elements:
            raise PartitionError(
                "partitions are over different ground sets (%d vs %d elements)"
                % (self.num_elements, other.num_elements)
            )

    def refines(self, other: "Partition") -> bool:
        """True if every block of *self* is contained in a block of *other*.

        In the paper's order this means ``other <= self``.
        """
        self._check_compatible(other)
        # self refines other iff elements with equal self-label always
        # have equal other-label, i.e. the map self-label -> other-label
        # is a function.  Compare every element against the first member
        # of its own block, all at once.
        first = _first_of_each_block(self._labels)
        return bool(np.array_equal(other._labels[first][self._labels], other._labels))

    def is_coarsening_of(self, other: "Partition") -> bool:
        """True if *self* is coarser than (or equal to) ``other``."""
        return other.refines(self)

    def __le__(self, other: "Partition") -> bool:
        """Paper order: ``self <= other`` iff ``other`` refines ``self``."""
        if not isinstance(other, Partition):
            return NotImplemented
        return other.refines(self)

    def __ge__(self, other: "Partition") -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self.refines(other)

    def __lt__(self, other: "Partition") -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self <= other and self != other

    def __gt__(self, other: "Partition") -> bool:
        if not isinstance(other, Partition):
            return NotImplemented
        return self >= other and self != other

    def is_comparable_to(self, other: "Partition") -> bool:
        """True unless the two partitions are incomparable in the order."""
        return self <= other or other <= self

    def join(self, other: "Partition") -> "Partition":
        """Least upper bound: the coarsest common refinement.

        Elements share a block in the join iff they share a block in both
        operands.  For closed partitions of the same machine the join is
        again closed (Hartmanis & Stearns), so this is also the lattice
        join of the closed partition lattice.
        """
        self._check_compatible(other)
        paired = self._labels * (other._num_blocks + 1) + other._labels
        return Partition(paired)

    def meet(self, other: "Partition") -> "Partition":
        """Greatest lower bound: finest partition coarser than both.

        Computed as the connected components of the union of the two
        equivalence relations, by alternating group-minimum smoothing:
        every element repeatedly takes the smallest component id seen in
        its block under either operand until a fixpoint.  The fixpoint is
        constant on each block of both operands, hence on every connected
        component, so it equals the classical union-find answer.  Again
        closed for closed operands.

        Minimum ids travel one block-hop per sweep, so chain-structured
        overlaps could need O(n) sweeps; after a bounded number of sweeps
        the remaining components are finished off with scalar union-find,
        keeping the worst case near-linear while the common case stays a
        few vectorised passes.
        """
        self._check_compatible(other)
        n = self.num_elements
        max_sweeps = 16
        component = np.arange(n, dtype=np.int64)
        for _ in range(max_sweeps):
            changed = False
            for partition in (self, other):
                labels = partition._labels
                mins = np.full(partition._num_blocks, n, dtype=np.int64)
                np.minimum.at(mins, labels, component)
                smoothed = mins[labels]
                if not np.array_equal(smoothed, component):
                    component = smoothed
                    changed = True
            if not changed:
                return Partition(component)
        # Deep chain: fall back to scalar union-find (near-linear, exact).
        parent = list(range(n))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for labels in (self._labels, other._labels):
            first_of_block: Dict[int, int] = {}
            for element, label in enumerate(labels.tolist()):
                if label in first_of_block:
                    ra, rb = find(first_of_block[label]), find(element)
                    if ra != rb:
                        parent[rb] = ra
                else:
                    first_of_block[label] = element
        return Partition([find(i) for i in range(n)])

    def merge_elements(self, a: int, b: int) -> "Partition":
        """Return the partition obtained by merging the blocks of ``a`` and ``b``."""
        if self.same_block(a, b):
            return self
        labels = self._labels.copy()
        labels[labels == labels[b]] = labels[a]
        return Partition(labels)


# ----------------------------------------------------------------------
# Closure with respect to a machine
# ----------------------------------------------------------------------
def is_closed_partition(machine: DFSM, partition: Partition) -> bool:
    """True if ``partition`` (of ``machine``'s state indices) is closed.

    A partition is closed when, for every event, all states of a block
    transition into a single block.
    """
    if partition.num_elements != machine.num_states:
        raise PartitionError(
            "partition has %d elements but machine %s has %d states"
            % (partition.num_elements, machine.name, machine.num_states)
        )
    if machine.num_events == 0:
        return True
    labels = partition.labels
    successors = labels[machine.transition_table]  # (n, E)
    # Within each source block all successor labels must agree: compare
    # every state's successors with its block representative's, at once.
    first = _first_of_each_block(labels)
    return bool(np.array_equal(successors[first][labels], successors))


#: Below this many table cells the scalar worklist closure beats the
#: vectorised fixpoint (NumPy per-call overhead dominates tiny inputs).
_SCALAR_CLOSURE_CUTOFF = 96


def _closure_labels_scalar(
    table: np.ndarray, seed_pairs: Iterable[Tuple[int, int]], n: int
) -> np.ndarray:
    """Reference union-find closure (pair propagation on a worklist).

    Implements the classical construction: whenever two states are
    identified, their successors under every event are identified as
    well.  Each union retires one equivalence class, so the total work is
    ``O(n · |events| · alpha)``.  Kept as the small-input fast path and as
    the reference implementation the property tests compare against.
    """
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    num_events = table.shape[1]
    worklist: List[Tuple[int, int]] = list(seed_pairs)
    while worklist:
        a, b = worklist.pop()
        ra, rb = find(a), find(b)
        if ra == rb:
            continue
        parent[rb] = ra
        for ei in range(num_events):
            worklist.append((int(table[ra, ei]), int(table[rb, ei])))
    return np.asarray([find(i) for i in range(n)], dtype=np.int64)


def _merge_label_pairs(labels: np.ndarray, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Merge the blocks named by the pairs ``(u[i], v[i])`` of a canonical
    label vector, returning a new canonical vector."""
    num_blocks = int(labels.max()) + 1
    keys = np.unique(u * num_blocks + v)
    parent = list(range(num_blocks))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for key in keys.tolist():
        ra, rb = find(key // num_blocks), find(key % num_blocks)
        if ra != rb:
            parent[rb] = ra
    roots = np.asarray([find(g) for g in range(num_blocks)], dtype=np.int64)
    return _canonicalise(roots[labels])


def closure_of_labels(
    table: np.ndarray,
    labels: np.ndarray,
    stop_if_merges: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Optional[np.ndarray]:
    """Vectorised SP closure: coarsen ``labels`` until it is closed.

    Repeatedly compares, for every event at once, each state's successor
    block with the successor block of its own block's representative and
    merges every disagreeing pair of blocks, until no event splits a
    block.  Each round is a handful of NumPy operations over the whole
    ``(n, |events|)`` table and every round retires at least one block, so
    the loop terminates after at most ``n`` rounds (in practice after the
    propagation depth of the machine, which is small).

    Returns the canonical label vector of the finest closed partition
    coarser than (i.e. below, in the paper's order) ``labels``.

    ``stop_if_merges`` is an optional pair of parallel index arrays; if at
    any round the evolving partition merges one of those element pairs,
    ``None`` is returned immediately.  Merges only ever accumulate, so
    this is exactly "the finished closure would merge them too" — it lets
    Algorithm 2 abandon doomed merge candidates after the first round
    that glues a weakest edge together instead of closing them fully.
    """
    labels = _canonicalise(np.asarray(labels, dtype=np.int64))
    if stop_if_merges is not None:
        forbid_a, forbid_b = stop_if_merges
        if forbid_a.size and (labels[forbid_a] == labels[forbid_b]).any():
            return None
    if table.size == 0:
        return labels
    while True:
        successors = labels[table]  # (n, E) successor block per state/event
        first = _first_of_each_block(labels)
        reference = successors[first][labels]  # block representative's successors
        disagree = reference != successors
        if not disagree.any():
            return labels
        labels = _merge_label_pairs(labels, successors[disagree], reference[disagree])
        if stop_if_merges is not None and forbid_a.size and (
            labels[forbid_a] == labels[forbid_b]
        ).any():
            return None


def _closure_labels(
    table: np.ndarray, seed_pairs: Iterable[Tuple[int, int]], n: int
) -> np.ndarray:
    """Smallest SP coarsening of the identity forced by ``seed_pairs``.

    Dispatches between the scalar worklist (tiny tables) and the
    vectorised fixpoint (everything else); both compute the identical
    partition, differing only in label numbering, which every caller
    canonicalises away.
    """
    table = np.asarray(table)
    if table.size <= _SCALAR_CLOSURE_CUTOFF:
        return _closure_labels_scalar(table, seed_pairs, n)
    labels = np.arange(n, dtype=np.int64)
    seeds = np.asarray(list(seed_pairs), dtype=np.int64).reshape(-1, 2)
    if seeds.size == 0:
        return labels
    labels = _merge_label_pairs(labels, seeds[:, 0], seeds[:, 1])
    return closure_of_labels(table, labels)


def closed_coarsening(machine: DFSM, partition: Partition) -> Partition:
    """Largest closed partition less than or equal to ``partition``.

    Starting from ``partition``, blocks are repeatedly merged whenever an
    event maps one block into two different blocks, until the result is
    closed.  This is the operation used to enumerate lower covers
    (Definition 2) and follows the classical SP-partition construction of
    Hartmanis & Stearns: the result is the *finest* closed partition that
    is coarser than (i.e. below, in the paper's order) the input.
    """
    if partition.num_elements != machine.num_states:
        raise PartitionError(
            "partition has %d elements but machine %s has %d states"
            % (partition.num_elements, machine.name, machine.num_states)
        )
    # The input grouping is already an equivalence; the vectorised fixpoint
    # coarsens it directly until the substitution property holds.
    return Partition(closure_of_labels(machine.transition_table, partition.labels))


def quotient_table(machine: DFSM, partition: Partition) -> np.ndarray:
    """Transition table of the quotient machine of a *closed* partition.

    Row ``b`` of the result gives, for every event, the block reached from
    block ``b``.  Used by the fusion algorithm to run lattice descents on
    the (small) quotient instead of the full top machine.
    """
    labels = partition.labels
    representatives = _first_of_each_block(labels)
    return labels[machine.transition_table[representatives, :]]


def merge_blocks_and_close(
    quotient: np.ndarray, block_a: int, block_b: int
) -> np.ndarray:
    """Closure of merging two blocks, computed on the quotient table.

    ``quotient`` is the transition table returned by :func:`quotient_table`
    (for a closed partition); the result is a block-label vector over the
    quotient's states describing the finest closed partition in which
    blocks ``block_a`` and ``block_b`` are together.  Pull the result back
    to top states with ``result[partition.labels]``.
    """
    return _closure_labels(quotient, [(block_a, block_b)], quotient.shape[0])


# ----------------------------------------------------------------------
# Algorithm 1: set representation of a machine A <= T
# ----------------------------------------------------------------------
def partition_from_projection(projection: Sequence[int]) -> Partition:
    """Wrap a component projection (from :class:`CrossProduct`) as a partition."""
    return Partition(projection)


def machine_assignment(top: DFSM, machine: DFSM) -> np.ndarray:
    """The raw lockstep assignment: top-state index -> machine-state index.

    This is the un-canonicalised form of :func:`partition_from_machine`:
    entry ``t`` is the index (into ``machine.states``) of the state
    ``machine`` reaches alongside top state ``t``.  The batched recovery
    engine consumes it directly — the machine-state indices *are* the
    information Algorithm 3 votes over, which block canonicalisation
    would discard.  Raises :class:`NotComparableError` exactly when
    ``machine`` is not ≤ ``top``.
    """
    n = top.num_states
    assignment = np.full(n, -1, dtype=np.int64)
    start_top = top.initial_index
    assignment[start_top] = machine.state_index(machine.initial)

    queue: deque[int] = deque([start_top])
    visited = np.zeros(n, dtype=bool)
    visited[start_top] = True
    while queue:
        ti = queue.popleft()
        machine_state = machine.state_label(int(assignment[ti]))
        top_state = top.state_label(ti)
        for event in top.events:
            t_next = top.state_index(top.step(top_state, event))
            m_next = machine.state_index(machine.step(machine_state, event))
            if assignment[t_next] == -1:
                assignment[t_next] = m_next
            elif assignment[t_next] != m_next:
                raise NotComparableError(
                    "machine %s is not <= %s: top state %r maps to both %r and %r"
                    % (
                        machine.name,
                        top.name,
                        top.state_label(t_next),
                        machine.state_label(int(assignment[t_next])),
                        machine.state_label(m_next),
                    )
                )
            if not visited[t_next]:
                visited[t_next] = True
                queue.append(t_next)
    if (assignment < 0).any():
        # Unreachable top states cannot be mapped; the paper assumes the
        # top is a *reachable* cross product so this indicates misuse.
        raise NotComparableError(
            "top machine %s has unreachable states; build it with reachable_cross_product"
            % top.name
        )
    return assignment


def partition_from_machine(top: DFSM, machine: DFSM) -> Partition:
    """Closed partition of ``top``'s states induced by ``machine`` (Algorithm 1).

    Both machines are run in lockstep from their initial states over
    ``top``'s alphabet; top state ``t`` lands in the block identified by
    the ``machine`` state reached alongside it.  If the lockstep walk ever
    maps one top state to two different ``machine`` states, then
    ``machine`` is **not** less than or equal to ``top`` and
    :class:`NotComparableError` is raised.
    """
    return Partition(machine_assignment(top, machine))


def set_representation(top: DFSM, machine: DFSM) -> Dict[StateLabel, FrozenSet[StateLabel]]:
    """Algorithm 1 — express each state of ``machine`` as a set of top states.

    Returns a mapping from each (reachable-in-lockstep) state of
    ``machine`` to the frozenset of top-state labels it represents.  For
    example, for Figure 5 of the paper, state ``a0`` maps to
    ``{t0, t3}``.
    """
    # Validate comparability first (raises NotComparableError otherwise).
    partition_from_machine(top, machine)
    result: Dict[StateLabel, set] = {}
    # Lockstep walk retaining machine-state labels exactly.
    assignment: Dict[int, StateLabel] = {}
    queue: deque[Tuple[int, StateLabel]] = deque([(top.initial_index, machine.initial)])
    assignment[top.initial_index] = machine.initial
    while queue:
        ti, m_state = queue.popleft()
        t_state = top.state_label(ti)
        for event in top.events:
            t_next = top.state_index(top.step(t_state, event))
            m_next = machine.step(m_state, event)
            if t_next not in assignment:
                assignment[t_next] = m_next
                queue.append((t_next, m_next))
    for ti, m_state in assignment.items():
        result.setdefault(m_state, set()).add(top.state_label(ti))
    return {k: frozenset(v) for k, v in result.items()}


# ----------------------------------------------------------------------
# Quotient machine of a closed partition
# ----------------------------------------------------------------------
def machine_from_partition(
    top: DFSM,
    partition: Partition,
    name: Optional[str] = None,
    require_closed: bool = True,
) -> DFSM:
    """Quotient machine of ``top`` under a closed partition.

    Each block becomes one state; the block containing ``top``'s initial
    state becomes the initial state.  State labels are frozensets of the
    member top-state labels, mirroring the paper's set representation
    (e.g. the fusion machine with state ``{t0, t2}``).
    """
    if require_closed and not is_closed_partition(top, partition):
        raise PartitionError("partition is not closed with respect to %s" % top.name)
    labels = partition.labels
    members, bounds = _block_members(labels, partition.num_blocks)
    states = top.states
    member_list = members.tolist()
    block_states: List[FrozenSet[StateLabel]] = [
        frozenset(map(states.__getitem__, member_list[lo:hi]))
        for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist())
    ]
    return DFSM.from_table(
        quotient_table(top, partition),
        int(labels[top.initial_index]),
        top.events,
        block_states,
        name=name or ("%s/quotient" % top.name),
    )
