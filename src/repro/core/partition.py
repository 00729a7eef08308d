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
    "close_merges",
    "closure_of_labels",
    "merge_batch_limit",
    "WeakPairs",
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

        The connected components of the union of the two equivalence
        relations: every element is paired with the first member of its
        block under each operand, and the pairs are unioned by the
        closure kernel's vectorised components pass (min-label hooking
        plus pointer jumping), so chain-shaped overlaps cost a few
        rounds, not one sweep per link.  Again closed for closed
        operands.
        """
        self._check_compatible(other)
        n = self.num_elements
        elements = np.arange(n, dtype=np.int64)
        heads = np.concatenate(
            [_first_of_each_block(p._labels)[p._labels] for p in (self, other)]
        )
        _union_pairs(elements, np.concatenate((elements, elements)), heads)
        return Partition(elements)

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


#: Cells (candidates x blocks) of one kernel pass: the ``(k, B)`` label
#: table is the closure's only per-candidate state, so this bounds its
#: memory (512 KiB of int64) whatever the level size.
_CLOSURE_CELLS = 1 << 16


def merge_batch_limit(num_blocks: int) -> int:
    """Most candidate merges of a ``num_blocks``-row table closed in one pass."""
    return max(1, _CLOSURE_CELLS // max(1, int(num_blocks)))


def _union_pairs(parent: np.ndarray, a: np.ndarray, b: np.ndarray) -> None:
    """Union the pairs ``(a[i], b[i])`` into the forest ``parent``, in place.

    ``parent`` maps every element of ``a`` and ``b`` straight to its
    root, the smallest member of its class.  Vectorised connected
    components: each round hooks the larger root of every still-split
    pair onto the smallest root it is paired with (``np.minimum.at``),
    then pointer jumping repoints the touched elements at their new
    roots.  Roots only move to smaller ids, so hooking never closes a
    cycle and every root stays the minimum of its class.  On return the
    elements of ``a`` and ``b`` (and every hooked root) point at their
    final root; any other member of a hooked class is one jump away.
    """
    nodes = np.concatenate((a, b))
    while True:
        root_a = parent[a]
        root_b = parent[b]
        split = root_a != root_b
        if not split.any():
            return
        a = a[split]
        b = b[split]
        root_a = root_a[split]
        root_b = root_b[split]
        np.minimum.at(parent, np.maximum(root_a, root_b), np.minimum(root_a, root_b))
        up = parent[nodes]
        while True:
            jumped = parent[up]
            if np.array_equal(jumped, up):
                break
            up = jumped
        parent[nodes] = up


class WeakPairs:
    """Element pairs a closure must keep apart, indexed by endpoint.

    Algorithm 2 builds one per lattice level from the weakest edges
    projected into the level's block space.  Many top-state edges
    project onto one block pair, so the pairs are deduplicated into
    unique ``(min, max)`` keys (:attr:`lo` / :attr:`hi`); a CSR over both
    endpoints then lets a closure round check only the pairs incident to
    the elements it moved.  A pair that is already collapsed
    (``a == b``) makes every closure fail.
    """

    __slots__ = ("lo", "hi", "collapsed", "_partners", "_indptr")

    def __init__(self, a: np.ndarray, b: np.ndarray, num_elements: int) -> None:
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        # Sort-based dedup: ``np.unique``'s hash path is far slower on
        # the ~10^6 distinct keys of a large top level.
        keys = np.sort(np.minimum(a, b) * num_elements + np.maximum(a, b))
        distinct = np.ones(keys.size, dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=distinct[1:])
        keys = keys[distinct]
        self.lo = keys // num_elements
        self.hi = keys % num_elements
        self.collapsed = bool((self.lo == self.hi).any())
        # Both orientations of every pair, sorted by endpoint: a plain
        # sort of packed keys beats an argsort of the endpoints.
        both = np.sort(np.concatenate((keys, self.hi * num_elements + self.lo)))
        self._partners = both % num_elements
        self._indptr = np.concatenate(
            ([0], np.cumsum(np.bincount(both // num_elements, minlength=num_elements)))
        )

    def merged_rows(self, flat: np.ndarray, moved: np.ndarray, width: int) -> np.ndarray:
        """Rows of a flattened ``(k, width)`` label table in which a pair
        incident to one of the ``moved`` flat positions shares a label
        (a row may repeat)."""
        local = moved % width
        starts = self._indptr[local]
        counts = self._indptr[local + 1] - starts
        total = int(counts.sum())
        if total == 0:
            return np.empty(0, dtype=np.int64)
        owner = np.repeat(moved, counts)
        offsets = np.arange(total) - np.repeat(np.cumsum(counts) - counts, counts)
        partner = self._partners[np.repeat(starts, counts) + offsets]
        partner += owner - owner % width
        return owner[flat[owner] == flat[partner]] // width


def _close_rows(
    quotient: np.ndarray,
    labels: np.ndarray,
    moved: np.ndarray,
    weak: Optional[WeakPairs],
) -> Tuple[np.ndarray, np.ndarray]:
    """Pair closure of every row of a ``(k, B)`` label table at once.

    ``labels`` names each element by the smallest member of its class;
    ``moved`` lists the flat positions not at their root.  The invariant
    is that ``Q[x, e]`` and ``Q[root(x), e]`` share a class for every
    element ``x`` whose pairs were pushed.  The first round pushes them
    for every moved element; later rounds push only for the roots the
    previous round hooked, because every other member of a hooked class
    already agrees with its old root.  Each round unions its pairs with
    :func:`_union_pairs` and repoints every member with one gather, so
    work follows the merges, not the table.

    With ``weak``, a row drops out the round it merges one of those
    pairs (merges only accumulate, so its finished closure would merge
    it too).  Returns ``(ok, labels)``; the labels of rows that are not
    ``ok`` are partial.
    """
    num_rows, width = labels.shape
    offsets = np.arange(num_rows, dtype=np.int64)[:, None] * width
    flat = (labels + offsets).ravel()
    ok = np.ones(num_rows, dtype=bool)
    if weak is not None and weak.collapsed:
        ok[:] = False
        return ok, labels
    pushers = moved
    while moved.size:
        if weak is not None:
            failed = weak.merged_rows(flat, moved, width)
            if failed.size:
                ok[failed] = False
                pushers = pushers[ok[pushers // width]]
                if not pushers.size:
                    break
        base = (pushers - pushers % width)[:, None]
        pushed_u = (quotient[pushers % width] + base).ravel()
        pushed_v = (quotient[flat[pushers] % width] + base).ravel()
        root_u = flat[pushed_u]
        root_v = flat[pushed_v]
        split = root_u != root_v
        if not split.any():
            break
        parent = flat.copy()
        _union_pairs(parent, root_u[split], root_v[split])
        merged = parent[flat]
        moved = np.flatnonzero(merged != flat)
        pushers = moved[flat[moved] == moved]
        flat = merged
    return ok, flat.reshape(num_rows, width) - offsets


def close_merges(
    quotient: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    weak: Optional[WeakPairs] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Close the candidate merges ``(rows[i], cols[i])`` of one table together.

    This is Hartmanis & Stearns' pair closure: for each candidate, the
    finest substitution-property partition of the table's states in
    which ``rows[i]`` and ``cols[i]`` share a block.  All candidates are
    closed in one batch (at most :func:`merge_batch_limit` per pass), a
    ``(k, B)`` label table holding each block's smallest member as its
    label.

    ``weak`` (optional) names pairs every accepted closure must keep
    apart.  Returns ``(ok, labels)``: ``ok[i]`` is False exactly when
    candidate ``i``'s closure merges a ``weak`` pair, and ``labels[i]``
    is its closed label vector (partial when not ``ok``).  Canonical
    labels follow with :class:`Partition` (or ``labels[i][base]`` first,
    to pull a quotient closure back to the top states).

    >>> import numpy as np
    >>> mod4 = np.array([[1], [2], [3], [0]])  # one event: s -> s + 1 mod 4
    >>> ok, labels = close_merges(mod4, np.array([0, 0]), np.array([1, 2]))
    >>> labels.tolist()
    [[0, 0, 0, 0], [0, 1, 0, 1]]
    >>> close_merges(mod4, np.array([0, 0]), np.array([1, 2]),
    ...              WeakPairs(np.array([0]), np.array([1]), 4))[0].tolist()
    [False, True]
    """
    quotient = np.asarray(quotient, dtype=np.int64)
    width = quotient.shape[0]
    lo = np.minimum(rows, cols).astype(np.int64)
    hi = np.maximum(rows, cols).astype(np.int64)
    ok = np.empty(lo.size, dtype=bool)
    labels = np.empty((lo.size, width), dtype=np.int64)
    step = merge_batch_limit(width)
    for start in range(0, lo.size, step):
        seeds_lo = lo[start:start + step]
        seeds_hi = hi[start:start + step]
        seeded = np.arange(seeds_lo.size, dtype=np.int64)
        table = np.tile(np.arange(width, dtype=np.int64), (seeds_lo.size, 1))
        table[seeded, seeds_hi] = seeds_lo
        moved = (seeded * width + seeds_hi)[seeds_lo != seeds_hi]
        ok[start:start + step], labels[start:start + step] = _close_rows(
            quotient, table, moved, weak
        )
    return ok, labels


def _smallest_member_labels(labels: np.ndarray) -> np.ndarray:
    """Label every element by the smallest member of its block."""
    _, first, inverse = np.unique(labels, return_index=True, return_inverse=True)
    return first[inverse.ravel()].astype(np.int64)


def _canonical_from_smallest(labels: np.ndarray) -> np.ndarray:
    """Canonical (first-appearance) labels of a smallest-member vector.

    A block first appears at its smallest member, so block ``r``'s
    canonical id is the number of roots below ``r``.
    """
    roots = labels == np.arange(labels.size)
    return (np.cumsum(roots) - 1)[labels]


def closure_of_labels(
    table: np.ndarray,
    labels: np.ndarray,
    stop_if_merges: Optional[Tuple[np.ndarray, np.ndarray]] = None,
) -> Optional[np.ndarray]:
    """SP closure: coarsen ``labels`` until it is closed (one kernel row).

    Returns the canonical label vector of the finest closed partition
    coarser than (i.e. below, in the paper's order) ``labels``.

    ``stop_if_merges`` is an optional pair of parallel index arrays; if
    the evolving partition merges one of those element pairs, ``None``
    is returned as soon as the round that merged it ends.  Merges only
    ever accumulate, so this is exactly "the finished closure would
    merge them too".
    """
    table = np.asarray(table, dtype=np.int64)
    smallest = _smallest_member_labels(np.asarray(labels))
    weak = None if stop_if_merges is None else WeakPairs(*stop_if_merges, smallest.size)
    moved = np.flatnonzero(smallest != np.arange(smallest.size))
    ok, closed = _close_rows(table, smallest[None, :], moved, weak)
    return _canonical_from_smallest(closed[0]) if ok[0] else None


def closed_coarsening(machine: DFSM, partition: Partition) -> Partition:
    """Largest closed partition less than or equal to ``partition``.

    Starting from ``partition``, blocks are merged whenever an event maps
    one block into two different blocks, until the result is closed.
    This is the operation used to enumerate lower covers (Definition 2)
    and follows the classical SP-partition construction of Hartmanis &
    Stearns: the result is the *finest* closed partition that is coarser
    than (i.e. below, in the paper's order) the input.
    """
    if partition.num_elements != machine.num_states:
        raise PartitionError(
            "partition has %d elements but machine %s has %d states"
            % (partition.num_elements, machine.name, machine.num_states)
        )
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
    return close_merges(quotient, np.array([block_a]), np.array([block_b]))[1][0]

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
