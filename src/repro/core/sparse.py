"""Sparse pair structures for the fault graph and the lattice descent.

The dense engine of the previous PR stores one integer per unordered
state pair: a condensed upper-triangular vector for the fault-graph
weights, full ``(i, j)`` index arrays for pair enumeration, and a boolean
``(B, B)`` matrix for the doomed-pair pruning fixpoint.  All of those are
``O(B^2)`` and cap ``|top|`` at a few thousand states (``counters-8``,
``|top| = 6561``, already needs ~1.6 GB and half a minute).

This module provides the sparse replacements, hand-rolled on plain NumPy
index/value arrays (CSR/COO style) because the container ships no
``scipy``:

* :func:`condensed_indices` — the shared upper-triangular index arrays of
  the *dense* layout (moved here so every consumer shares one cache);
* :func:`iter_pair_chunks` — lazy enumeration of all pairs ``i < j`` in
  condensed (lexicographic) order, ``O(chunk)`` memory;
* :func:`coblock_pair_arrays` — the co-block pairs of a partition as COO
  index arrays, ``O(nnz)``;
* :func:`low_weight_pairs` — every pair separated by fewer than ``cap``
  machines, found *without* touching the ``O(B^2)`` pair space via a
  *recursive* pigeonhole join over machine groups: each join whose
  co-block pair count is still large is refined by a further pigeonhole
  split of the not-yet-joined machines, so candidate enumeration tracks
  the genuinely low-weight pair structure instead of the first join's
  block sizes;
* :class:`LedgerBuilder` — the shared source of base ledgers for a fixed
  machine list: plans the join into independent leaf tasks, runs them,
  and caches the result per cap so cap-escalation retries and per-backup
  rebuilds never re-run a join they already paid for;
* :class:`PairLedger` — the sparse fault-graph storage built on top of
  :func:`low_weight_pairs`: exact weights for every pair below a cap,
  with vectorised incremental folds;
* :class:`ImplicationIndex` — the per-event implication adjacency of one
  quotient table (preimage CSR for backward expansion, forward image
  rows for the density-adaptive forward pass), built once and reusable
  across fixpoint calls;
* :class:`DoomedPairEngine` — the pair-implication pruning fixpoint of
  the lattice descent: incremental (each level's doomed set is seeded
  from the previous level's keys mapped through the refined quotient)
  and density-adaptive (rounds whose backward preimage product outgrows
  a scan of the live candidates switch to the forward direction);
  :func:`doomed_pair_keys` is its one-shot functional form.

Everything here is exact (never approximate): the ledger records which
weights it knows exactly (``weight < cap``) and callers escalate the cap
when they need more, and the doomed-pair set is a *sound* filter by
construction, so an early (budgeted) stop can only make pruning less
complete, never wrong.  Every stage runs in-process: Algorithm 2 is one
sequential greedy walk, and sharding its stages over a worker pool was
measured slower than serial on every large case on two cores.

Two cross-cutting implementation rules, established by measurement:

* **Narrow keys.**  Every pair-key array (ledger merges, doomed sets,
  frontiers) is built in the per-level dtype of
  :func:`repro.core.types.narrow_key_dtype` — ``int32`` whenever the
  level's block count is below 46341, ``int64`` above — so the sorts,
  merges and membership passes that dominate the large benchmarks move
  half the bytes on every level below the threshold.
* **No ``np.unique``, no boolean fancy indexing on hot paths.**  Key
  arrays are deduplicated with an explicit sort + neighbour-diff mask +
  ``np.compress`` (:func:`_sort_unique`): ``np.unique``'s hash-based
  integer path and large boolean fancy indexing are both dramatically
  slower than sort + compress on the containers this runs on (50x on
  the 90M-key ledger merge of ``mesi+counters-10``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .budget import _dedup_sorted, current_governor
from .exceptions import PartitionError
from .partition import Partition, _canonicalise, _first_of_each_block
from .types import narrow_index_dtype, narrow_key_dtype

__all__ = [
    "CandidateBudgetError",
    "DoomedPairEngine",
    "ImplicationIndex",
    "LedgerBuilder",
    "PairLedger",
    "PruneStats",
    "coblock_pair_arrays",
    "condensed_indices",
    "doomed_pair_keys",
    "iter_pair_chunks",
    "join_labels",
    "low_weight_pairs",
]


class CandidateBudgetError(PartitionError):
    """Raised when a sparse enumeration would exceed its candidate budget.

    The sparse fault graph is designed for machine sets whose low-weight
    pair structure is genuinely sparse; when a requested enumeration
    would materialise close to the full ``O(B^2)`` pair space anyway, it
    refuses instead of silently allocating gigabytes.  Callers either
    lower the weight cap or fall back to the dense engine.
    """


#: Shared upper-triangular index arrays keyed by the number of states.
#: Every dense graph over ``n`` states uses the same two read-only
#: arrays, so repeated fusion calls pay the ``triu_indices`` cost once.
_CONDENSED_CACHE: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
_CONDENSED_CACHE_LIMIT = 32

#: Default ceiling on materialised candidate pairs for one sparse
#: enumeration (:func:`low_weight_pairs`).  ~50M int64 triples is a few
#: hundred MB of transient memory — far below the dense engine's cost at
#: the sizes where the sparse path engages.
DEFAULT_CANDIDATE_BUDGET = 50_000_000


def condensed_indices(num_states: int) -> Tuple[np.ndarray, np.ndarray]:
    """The (cached, read-only) ``i`` and ``j`` arrays of all pairs ``i < j``.

    This is the index layout of the *dense* condensed weight vector; it
    materialises all ``n (n - 1) / 2`` pairs and is therefore only used
    below the sparse cutoffs (or for per-block pair generation, where
    ``n`` is a block size).
    """
    cached = _CONDENSED_CACHE.get(num_states)
    if cached is None:
        rows, cols = np.triu_indices(num_states, k=1)
        rows.setflags(write=False)
        cols.setflags(write=False)
        cached = (rows, cols)
        while len(_CONDENSED_CACHE) >= _CONDENSED_CACHE_LIMIT:
            _CONDENSED_CACHE.pop(next(iter(_CONDENSED_CACHE)))
        _CONDENSED_CACHE[num_states] = cached
    return cached


def _pair_keys(
    lo: np.ndarray, hi: np.ndarray, num_blocks: int, key_dtype: type
) -> np.ndarray:
    """Canonical pair keys ``lo * num_blocks + hi`` built in ``key_dtype``.

    The explicit pre-multiply ``astype`` is the narrow-key path: with
    ``key_dtype == int32`` (every level below the
    :func:`repro.core.types.narrow_key_dtype` threshold) the multiply
    runs — and the result ships — in 4-byte lanes; NumPy's default
    promotion would silently compute int64 everywhere.  Safe by the
    dtype rule: ``lo < hi < num_blocks`` so every key is below
    ``num_blocks**2``, which fits ``key_dtype`` by construction.
    """
    if lo.dtype != key_dtype:
        lo = lo.astype(key_dtype)
    if hi.dtype != key_dtype:
        hi = hi.astype(key_dtype)
    return lo * num_blocks + hi


def _sort_unique(keys: np.ndarray) -> np.ndarray:
    """Sorted unique elements of ``keys`` — the hot-path ``np.unique``.

    One explicit ``np.sort`` plus :func:`_dedup_sorted`: ``np.unique``'s
    hash-based integer path degrades catastrophically on large random
    key sets (measured ~50x slower than sort + compress at 30M keys), so
    nothing in this module calls it on key arrays.
    """
    if keys.size == 0:
        return keys
    return _dedup_sorted(np.sort(keys))


def _governed_sort_unique(parts: Sequence[np.ndarray]) -> Optional[np.ndarray]:
    """The spill hook of the merge paths: external merge, or ``None``.

    Consults the active :class:`~repro.core.budget.ResourceGovernor`
    (when a fusion is running under one) with the merge's projected peak
    bytes — the concatenation plus its sort copy.  Above the memory
    watermark (or under an injected ``mem_pressure`` fault) the parts
    are spilled as sorted runs and k-way merged back through bounded
    windows; the result is byte-identical to the in-memory
    ``_sort_unique`` of the concatenation because the packed keys are
    plain integers and set union is associative.  Returns ``None`` when
    the merge should stay in memory.
    """
    live = [part for part in parts if part.size]
    if len(live) < 2:
        return None
    governor = current_governor()
    if governor is None:
        return None
    peak_bytes = 2 * sum(part.nbytes for part in live)
    if not governor.should_spill(peak_bytes):
        return None
    return governor.spill_merge(live)


def _compress_absent(sorted_ref: np.ndarray, keys: np.ndarray) -> np.ndarray:
    """The elements of ``keys`` not contained in the sorted ``sorted_ref``."""
    if sorted_ref.size == 0 or keys.size == 0:
        return keys
    mask = _sorted_contains(sorted_ref, keys)
    np.logical_not(mask, out=mask)
    return np.compress(mask, keys)


def iter_pair_chunks(
    num_items: int, chunk_size: int = 16384
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield ``(rows, cols)`` chunks of all pairs ``i < j`` in condensed order.

    The condensed (lexicographic) order is the order the dense engine
    scans, so consumers that must stay byte-identical to it simply
    iterate the chunks in sequence.  Peak memory is ``O(chunk_size)``
    instead of the ``O(n^2)`` of :func:`condensed_indices`.  Each chunk
    decodes its linear pair offsets into ``(row, col)`` with one
    ``searchsorted`` against the per-row cumulative pair counts; chunks
    are sized exactly ``chunk_size`` until the final remainder, in the
    narrow index dtype of ``num_items``.
    """
    if num_items < 2:
        return
    counts = np.arange(num_items - 1, 0, -1, dtype=np.int64)
    cums = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(counts)))
    total = int(cums[-1])
    index_dtype = narrow_index_dtype(num_items)
    for start in range(0, total, chunk_size):
        linear = np.arange(start, min(start + chunk_size, total), dtype=np.int64)
        row_idx = np.searchsorted(cums, linear, side="right") - 1
        rows = row_idx.astype(index_dtype)
        cols = (rows + 1 + (linear - cums[row_idx])).astype(index_dtype)
        yield rows, cols


def join_labels(first: np.ndarray, second: np.ndarray) -> np.ndarray:
    """Canonical labels of the join (coarsest common refinement) of two
    block-label vectors: two elements share a joined block iff they share
    a block in both operands."""
    paired = first.astype(np.int64) * (int(second.max()) + 1) + second
    return _canonicalise(paired)


def coblock_pair_arrays(
    labels: np.ndarray, sort: bool = True
) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs ``i < j`` sharing a block of ``labels``, in condensed order.

    Memory and time are ``O(nnz)`` where ``nnz = sum_b C(|block_b|, 2)``;
    nothing proportional to the full pair space is touched.  With
    ``sort=False`` the pairs come back grouped by block instead of in
    condensed order (callers that re-sort anyway skip a full argsort).
    Pairs come back in the narrow index dtype of the state count, so the
    big candidate enumerations of the ledger leaves move 4-byte lanes
    end to end instead of converting 8-byte gathers afterwards.
    """
    labels = np.asarray(labels, dtype=np.int64)
    index_dtype = narrow_index_dtype(labels.size)
    # Narrow the member indices *before* the per-block gathers: every
    # downstream array inherits the 4-byte dtype.
    order = np.argsort(labels, kind="stable").astype(index_dtype)
    sorted_labels = labels[order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [labels.size]))
    rows_parts: List[np.ndarray] = []
    cols_parts: List[np.ndarray] = []
    for start, end in zip(starts.tolist(), ends.tolist()):
        size = end - start
        if size < 2:
            continue
        members = order[start:end]
        local_rows, local_cols = condensed_indices(size)
        rows_parts.append(members[local_rows])
        cols_parts.append(members[local_cols])
    if not rows_parts:
        empty = np.empty(0, dtype=index_dtype)
        return empty, empty
    rows = np.concatenate(rows_parts)
    cols = np.concatenate(cols_parts)
    if not sort:
        return rows, cols
    keys = _pair_keys(rows, cols, labels.size, narrow_key_dtype(labels.size))
    sorter = np.argsort(keys, kind="stable")
    return rows[sorter], cols[sorter]


def _coblock_pair_estimate(labels: np.ndarray) -> int:
    """Number of pairs :func:`coblock_pair_arrays` would return, in O(n)."""
    counts = np.bincount(labels)
    return int((counts * (counts - 1) // 2).sum())


#: Above this many co-block candidate pairs a pigeonhole join is refined
#: by a further split of the not-yet-joined machines instead of being
#: enumerated directly.  Each refinement level multiplies the number of
#: leaf tasks by at most ``cap`` while shrinking every leaf's candidate
#: set, so the constant trades duplicate-candidate overlap (small leaves)
#: against wasted weight passes over doomed candidates (big leaves);
#: ``2^22`` pairs ≈ 50 MB of transient int32 leaf state.
_LEAF_PAIR_TARGET = 1 << 22

#: Leaf index/weight dtypes: pair indices fit ``int32`` whenever the
#: state count does (always, in practice; the shared rule is
#: :func:`repro.core.types.narrow_index_dtype`), and weights are bounded
#: by the machine count.  Both halve the memory traffic of the candidate
#: passes.  Since PR 5 the narrow dtypes flow through to the public
#: arrays too (``low_weight_pairs``/``PairLedger`` rows and cols are
#: ``int32`` below the threshold) — weights stay ``int64`` there.
_LEAF_WEIGHT_DTYPE = np.int16
_index_dtype = narrow_index_dtype

def _plan_leaf_tasks(
    label_list: Sequence[np.ndarray],
    cap: int,
    budget: int,
    leaf_target: Optional[int] = None,
) -> List[Tuple[Tuple[int, ...], Tuple[int, ...], np.ndarray, int, Tuple[Tuple[int, ...], ...]]]:
    """Split the pigeonhole join into independent leaf tasks.

    Each task is ``(context_ids, remaining_ids, joined, estimate,
    excluded_groups)``: candidates are the co-block pairs of ``joined``
    — the join of the *context* machines, computed here while sizing
    the node (the size, ``estimate``, is the leaf's candidate count) —
    and their exact weights come from folding the *remaining* machines.
    A pair separated by fewer than ``cap`` machines agrees with every
    machine of at least one of ``cap`` disjoint groups (pigeonhole);
    while a group join's candidate estimate exceeds ``leaf_target`` and
    at least ``cap`` machines remain unjoined, the same argument splits
    the remainder again — the pair must also agree with one of ``cap``
    subgroups of the remaining machines — so blocks shrink geometrically
    until enumeration is cheap.

    ``excluded_groups`` makes the leaves *disjoint*: at every split, a
    qualifying pair belongs to the first group it fully agrees with, so
    each child carries its earlier siblings as exclusions and drops any
    candidate with zero separations inside one of them (such a pair is
    emitted — exactly once — under that earlier sibling instead).
    Every pair below the cap is still found (pigeonhole gives it *some*
    zero-separation group at every split, and the first one keeps it),
    so the merged output set is exactly the PR 3 behaviour — but the
    merge no longer sees each pair once per group that happens to
    co-block it, which was a ~3x duplication factor (90M -> 31M keys)
    on `mesi+counters-10`'s ledger build.

    Tasks are returned in deterministic (depth-first, round-robin)
    order and are independent: their merged output does not depend on
    the order they run in.

    Raises :class:`CandidateBudgetError` when a leaf that can no longer
    be split (fewer than ``cap`` machines remain) still exceeds
    ``budget``.
    """
    if leaf_target is None:
        # Resolved at call time so tests can patch the module constant
        # down and force deep recursion on small machines.
        leaf_target = _LEAF_PAIR_TARGET
    tasks: List[
        Tuple[Tuple[int, ...], Tuple[int, ...], np.ndarray, int, Tuple[Tuple[int, ...], ...]]
    ] = []

    def expand(
        context_ids: Tuple[int, ...],
        joined: Optional[np.ndarray],
        remaining_ids: Tuple[int, ...],
        excluded: Tuple[Tuple[int, ...], ...],
    ) -> None:
        estimate = _coblock_pair_estimate(joined) if joined is not None else None
        if len(remaining_ids) >= cap and (estimate is None or estimate > leaf_target):
            for group_index in range(cap):
                members = remaining_ids[group_index::cap]  # round-robin split
                others = tuple(
                    mi for k, mi in enumerate(remaining_ids) if k % cap != group_index
                )
                earlier = tuple(
                    remaining_ids[k::cap] for k in range(group_index)
                )
                sub_joined = joined
                for machine_index in members:
                    labels = label_list[machine_index]
                    sub_joined = (
                        labels if sub_joined is None else join_labels(sub_joined, labels)
                    )
                expand(context_ids + members, sub_joined, others, excluded + earlier)
            return
        # A leaf always has a context: the top-level call (joined=None)
        # can split, because cap <= number of machines.
        if estimate > budget:
            raise CandidateBudgetError(
                "sparse enumeration would materialise %d candidate pairs "
                "(budget %d); the machine set is not sparse at cap=%d"
                % (estimate, budget, cap)
            )
        tasks.append((context_ids, remaining_ids, joined, estimate, excluded))

    expand((), None, tuple(range(len(label_list))), ())
    return tasks


def _weight_bits(cap: int) -> int:
    """Bits reserved for a weight ``< cap`` in a packed ledger entry."""
    return (cap - 1).bit_length()


def _packed_dtype(num_states: int, cap: int) -> type:
    """Dtype of packed ledger entries ``key << _weight_bits(cap) | weight``.

    Exact weights ride *inside* the key (``weight < cap``, so the pack
    is reversible), which is what lets the merge deduplicate with one
    plain sort instead of ``np.unique(..., return_index=True)``'s
    argsort: duplicate pairs carry identical weights, so duplicate
    packs are identical values.  The weight field is a *power-of-two*
    slot rather than a ``* cap`` mixed radix so unpacking is shifts and
    masks — integer division by an arbitrary ``cap`` over a
    tens-of-millions-entry merge was the single most expensive pass of
    the big ledger builds.  Narrow (int32) whenever both the key dtype
    rule and the packed bound ``num_states**2 << bits`` allow.
    """
    if (
        narrow_key_dtype(num_states) == np.int32
        and (num_states * num_states << _weight_bits(cap)) - 1
        <= np.iinfo(np.int32).max
    ):
        return np.int32
    return np.int64


def _leaf_pairs(
    label_list: Sequence[np.ndarray],
    num_states: int,
    cap: int,
    context_ids: Sequence[int],
    remaining_ids: Sequence[int],
    joined: np.ndarray,
    excluded: Sequence[Tuple[int, ...]] = (),
) -> np.ndarray:
    """Run one planned leaf: enumerate, weigh, filter.

    Candidates agree with every context machine by construction, so only
    the remaining machines can add weight.  Their separations accumulate
    one vectorised pass at a time, compressing away candidates as soon
    as they reach the cap (weights only ever grow): on sparse workloads
    the candidate set collapses after the first few machines, so later
    passes touch a fraction of it.  Returns the *packed* entries of the
    surviving pairs — ``(row * num_states + col) << bits | weight`` in
    :func:`_packed_dtype` — unsorted but duplicate-free (one join's
    co-block pairs are distinct, and the ``excluded`` sibling groups of
    the plan make even distinct leaves disjoint).

    A pair with zero separations inside an ``excluded`` group belongs to
    that (earlier) group's subtree and is dropped here.  The masks ride
    the same per-machine separation passes the weights use: a machine in
    an excluded group clears the group's zero-separation mask wherever
    it separates the pair, and context members of an excluded group
    never separate (candidates agree with the whole context), so a
    group wholly inside the context excludes every candidate at once.

    ``joined`` is the join of the context machines, which the planner
    computed while sizing the leaf.
    """
    packed_dtype = _packed_dtype(num_states, cap)
    empty = np.empty(0, dtype=packed_dtype)
    context_set = frozenset(context_ids)
    remaining_set = frozenset(remaining_ids)
    # One machine can sit in several excluded groups (an ancestor
    # split's group and a deeper split's subgroup of it), so each
    # machine maps to *all* of its groups — dropping to one group would
    # leave the others' masks uncleared and silently discard pairs.
    groups_of_machine: Dict[int, List[int]] = {}
    num_groups = 0
    for group in excluded:
        if not any(mi in remaining_set for mi in group):
            # Every group member is in the context (candidates agree
            # with all of them), so the whole leaf belongs to the
            # earlier sibling's subtree.
            assert all(mi in context_set for mi in group)
            return empty
        group_index = num_groups
        num_groups += 1
        for mi in group:
            if mi in remaining_set:
                groups_of_machine.setdefault(mi, []).append(group_index)
    rows, cols = coblock_pair_arrays(joined, sort=False)
    if rows.size == 0:
        return empty
    index_dtype = _index_dtype(num_states)
    rows = rows.astype(index_dtype, copy=False)
    cols = cols.astype(index_dtype, copy=False)
    weights = np.zeros(rows.size, dtype=_LEAF_WEIGHT_DTYPE)
    zero_masks = [np.ones(rows.size, dtype=bool) for _ in range(num_groups)]
    seen_machines = 0
    for machine_index in remaining_ids:
        labels = label_list[machine_index]
        separated = labels[rows] != labels[cols]
        weights += separated
        for group_index in groups_of_machine.get(machine_index, ()):
            zero_masks[group_index] &= ~separated
        seen_machines += 1
        if seen_machines >= cap and rows.size:
            keep = weights < cap
            if keep.mean() < 0.75:
                rows = np.compress(keep, rows)
                cols = np.compress(keep, cols)
                weights = np.compress(keep, weights)
                zero_masks = [np.compress(keep, mask) for mask in zero_masks]
    keep = weights < cap
    for mask in zero_masks:
        # Zero separations inside an earlier sibling group: that
        # group's subtree emits the pair, not this leaf.
        keep &= ~mask
    rows = np.compress(keep, rows)
    cols = np.compress(keep, cols)
    weights = np.compress(keep, weights)
    # No overflow in the narrow case: key << bits | weight is bounded
    # by num_states**2 << bits, which _packed_dtype already vetted.
    keys = rows.astype(packed_dtype) * num_states + cols
    bits = _weight_bits(cap)
    if bits:
        keys <<= bits
        keys |= weights.astype(packed_dtype)
    return keys


def _unpack_merged(
    packed: np.ndarray, num_states: int, cap: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted-unique packed entries -> condensed-order COO arrays.

    Shifts, masks and one multiply-subtract instead of divisions where
    possible: the lone unavoidable division is ``keys // num_states``
    (``num_states`` is arbitrary); the column recovery reuses its result.
    """
    bits = _weight_bits(cap)
    if bits:
        keys = packed >> bits
        weights = (packed & ((1 << bits) - 1)).astype(np.int64)
    else:
        keys = packed
        weights = np.zeros(packed.size, dtype=np.int64)
    index_dtype = _index_dtype(num_states)
    rows = (keys // num_states).astype(index_dtype)
    cols = (keys - rows.astype(keys.dtype) * num_states).astype(index_dtype)
    return rows, cols, weights


def _merge_leaf_results(
    parts: Sequence[np.ndarray], num_states: int, cap: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Dedup packed leaf outputs into sorted condensed-order COO arrays.

    Overlapping leaves rediscover the same pair with the same exact
    weight — i.e. the same packed value — so one sort plus a
    neighbour-diff dedup produces a deterministic result regardless of
    which leaf ran where.  (This used to be
    ``np.unique(keys, return_index=True)`` over separate key/weight
    arrays; its argsort was 50+ seconds of the 95 s `mesi+counters-10`
    ledger build.)
    """
    parts = [part for part in parts if part.size]
    if not parts:
        empty_packed = np.empty(0, dtype=_packed_dtype(num_states, cap))
        return _unpack_merged(empty_packed, num_states, cap)
    merged = _governed_sort_unique(parts)
    if merged is not None:
        return _unpack_merged(merged, num_states, cap)
    packed = parts[0] if len(parts) == 1 else np.concatenate(parts)
    return _unpack_merged(_sort_unique(packed), num_states, cap)


def _label_matrix_rows(label_list: Sequence[np.ndarray]) -> List[np.ndarray]:
    """Per-machine label arrays in the narrow leaf dtype, contiguous."""
    if not label_list:
        return []
    dtype = _index_dtype(label_list[0].size)
    return [np.ascontiguousarray(labels, dtype=dtype) for labels in label_list]


def low_weight_pairs(
    partitions: Sequence[Partition],
    num_states: int,
    cap: int,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair whose fault-graph weight is below ``cap``, exactly.

    The weight of a pair is the number of ``partitions`` separating it.
    A pair separated by fewer than ``cap`` machines must, by pigeonhole,
    agree with *every* machine of at least one of ``cap`` disjoint
    machine groups — i.e. lie inside one block of that group's joined
    partition.  Candidates are enumerated from those joins' co-block
    pairs (``O(nnz)``), with joins whose candidate count is still large
    refined recursively by re-splitting the unjoined machines
    (:func:`_plan_leaf_tasks`), then given exact weights with one
    vectorised pass per machine and filtered; the full ``O(B^2)`` pair
    space is never touched.

    Requires ``1 <= cap <= len(partitions)`` (with ``cap > m`` every pair
    would qualify, which is inherently dense).  Raises
    :class:`CandidateBudgetError` when an unsplittable leaf's candidate
    count exceeds ``budget``.

    Returns ``(rows, cols, weights)`` sorted in condensed order.
    :class:`LedgerBuilder` runs the same plan/leaf/merge pipeline and
    caches its result per cap.
    """
    num_machines = len(partitions)
    if not 1 <= cap <= num_machines:
        raise PartitionError(
            "low_weight_pairs needs 1 <= cap <= num_machines, got cap=%d, m=%d"
            % (cap, num_machines)
        )
    label_list = _label_matrix_rows([p.labels for p in partitions])
    return _join_below_cap(label_list, num_states, cap, budget)


def _join_below_cap(
    label_list: Sequence[np.ndarray], num_states: int, cap: int, budget: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Plan the pigeonhole join, run every leaf and merge the parts."""
    tasks = _plan_leaf_tasks(label_list, cap, budget)
    parts = [
        _leaf_pairs(label_list, num_states, cap, context, remaining, joined, excluded)
        for context, remaining, joined, _estimate, excluded in tasks
    ]
    return _merge_leaf_results(parts, num_states, cap)


class LedgerBuilder:
    """Shared, cached source of base ledgers for a fixed machine list.

    The fault graph of a fusion run keeps one builder for the *original*
    machines (the expensive join substrate) and treats backups as cheap
    fold deltas on top (:meth:`ledger`): a cap escalation re-joins only
    the base machines — served from :attr:`_cache` when that cap was
    already built — instead of re-running the full join over originals
    plus backups, and a chosen backup never triggers a join at all.
    """

    __slots__ = ("_partitions", "_num_states", "_budget", "_cache", "_label_rows")

    def __init__(
        self,
        partitions: Sequence[Partition],
        num_states: int,
        budget: int = DEFAULT_CANDIDATE_BUDGET,
        label_rows: Optional[Sequence[np.ndarray]] = None,
    ) -> None:
        self._partitions: Tuple[Partition, ...] = tuple(partitions)
        self._num_states = int(num_states)
        self._budget = int(budget)
        self._cache: Dict[int, "PairLedger"] = {}
        # Pre-converted per-machine label arrays (e.g. the cached
        # CrossProduct.component_label_matrix rows), parallel to
        # ``partitions``; converted lazily from the partitions otherwise.
        self._label_rows: Optional[List[np.ndarray]] = (
            list(label_rows) if label_rows is not None else None
        )

    @property
    def num_machines(self) -> int:
        return len(self._partitions)

    def base(self, cap: int) -> "PairLedger":
        """The ledger of the base machines at ``cap`` (clamped, cached)."""
        cap = min(int(cap), len(self._partitions))
        cached = self._cache.get(cap)
        if cached is None:
            cached = self._build(cap)
            self._cache[cap] = cached
        return cached

    def seed(self, ledger: "PairLedger") -> bool:
        """Adopt a warm base ledger (e.g. loaded from the artifact store).

        The ledger must describe the same state count and a cap within
        the machine count; an already-built cap is never overwritten
        (the cached join is equally exact).  Returns True when adopted.
        """
        if int(ledger.num_states) != self._num_states:
            return False
        cap = int(ledger.cap)
        if not 0 < cap <= len(self._partitions) or cap in self._cache:
            return False
        self._cache[cap] = ledger
        return True

    def built(self) -> Dict[int, "PairLedger"]:
        """Snapshot of the base ledgers built so far, keyed by cap."""
        return dict(self._cache)

    def ledger(self, cap: int, extras: Sequence[Partition] = ()) -> "PairLedger":
        """Base ledger plus one vectorised fold per extra (backup) machine."""
        built = self.base(cap)
        for partition in extras:
            built = built.fold(partition.labels)
        return built

    def _rows(self) -> List[np.ndarray]:
        if self._label_rows is None:
            self._label_rows = _label_matrix_rows(
                [p.labels for p in self._partitions]
            )
        return self._label_rows

    def _build(self, cap: int) -> "PairLedger":
        rows, cols, weights = _join_below_cap(
            self._rows(), self._num_states, cap, self._budget
        )
        return PairLedger(self._num_states, cap, rows, cols, weights)


class PairLedger:
    """Sparse fault-graph weights: exact for every pair below ``cap``.

    Invariant: ``weights[k] < cap`` for every stored pair, entries are
    sorted in condensed order, and every pair *not* stored has weight at
    least ``cap``.  Folding in another machine can only increase weights,
    so the invariant survives :meth:`fold` (entries reaching the cap are
    dropped); learning about *smaller* caps never happens, and larger
    caps require a rebuild from the partition list
    (:meth:`from_partitions`), which the fault graph performs on demand.
    """

    __slots__ = ("num_states", "cap", "rows", "cols", "weights")

    def __init__(
        self,
        num_states: int,
        cap: int,
        rows: np.ndarray,
        cols: np.ndarray,
        weights: np.ndarray,
    ) -> None:
        self.num_states = int(num_states)
        self.cap = int(cap)
        for array in (rows, cols, weights):
            array.setflags(write=False)
        self.rows = rows
        self.cols = cols
        self.weights = weights

    @classmethod
    def from_partitions(
        cls,
        partitions: Sequence[Partition],
        num_states: int,
        cap: int,
        budget: int = DEFAULT_CANDIDATE_BUDGET,
    ) -> "PairLedger":
        cap = min(int(cap), len(partitions))
        rows, cols, weights = low_weight_pairs(
            partitions, num_states, cap, budget=budget
        )
        return cls(num_states, cap, rows, cols, weights)

    @property
    def nnz(self) -> int:
        """Number of stored (known-exactly) pairs."""
        return int(self.rows.size)

    def min_weight(self) -> Optional[int]:
        """The least stored weight, or ``None`` when nothing is below the cap."""
        if self.rows.size == 0:
            return None
        return int(self.weights.min())

    def pairs_with_weight(self, weight: int) -> Tuple[np.ndarray, np.ndarray]:
        """Stored pairs of exactly ``weight``, in condensed order.

        Complete whenever ``weight < cap`` (pairs outside the ledger are
        at least ``cap``).
        """
        mask = self.weights == weight
        return self.rows[mask], self.cols[mask]

    def pairs_below(self, threshold: int) -> Tuple[np.ndarray, np.ndarray]:
        """Stored pairs with weight strictly below ``threshold``.

        Complete whenever ``threshold <= cap``.
        """
        mask = self.weights < threshold
        return self.rows[mask], self.cols[mask]

    def fold(self, labels: np.ndarray) -> "PairLedger":
        """Ledger of the graph with one more machine folded in.

        One vectorised comparison over the stored pairs; entries whose
        weight reaches the cap are dropped (they can never come back
        below it).
        """
        if self.rows.size == 0:
            return PairLedger(self.num_states, self.cap, self.rows, self.cols, self.weights)
        new_weights = self.weights + (labels[self.rows] != labels[self.cols])
        keep = new_weights < self.cap
        return PairLedger(
            self.num_states,
            self.cap,
            self.rows[keep],
            self.cols[keep],
            new_weights[keep],
        )

    def fold_min(self, labels: np.ndarray) -> Optional[int]:
        """``min_weight()`` of the hypothetical :meth:`fold`, allocation-light.

        ``None`` means "at least ``cap``" (exact value unknown without a
        rebuild at a higher cap).
        """
        if self.rows.size == 0:
            return None
        new_weights = self.weights + (labels[self.rows] != labels[self.cols])
        least = int(new_weights.min())
        return least if least < self.cap else None


# ----------------------------------------------------------------------
# The doomed-pair pruning fixpoint
# ----------------------------------------------------------------------
#: Forward/backward cost crossover: a round whose backward preimage
#: product exceeds this many times the cost of one forward sweep over
#: the live candidates (``live_pairs * num_events`` membership checks)
#: runs forward instead.  The two directions add the identical fresh set
#: each round (a forward sweep finds exactly the not-yet-doomed
#: predecessors of the frontier — see :meth:`DoomedPairEngine.prune`),
#: so the crossover changes wall-clock only, never results.
_FORWARD_SWITCH_FACTOR = 4

#: Pair-enumeration chunk of a forward sweep; peak memory per sweep is a
#: few of these, never the ``O(B^2)`` pair space at once.
_FORWARD_CHUNK = 1 << 20

@dataclass
class PruneStats:
    """Outcome of one doomed-pair fixpoint run.

    ``spent`` counts budget units — expanded predecessor pairs of
    backward rounds plus checked live candidates (times events) of
    forward rounds.  ``truncated`` is the flag PR 3's engine silently
    swallowed: when set, the fixpoint stopped on ``budget``/``max_rounds``
    before converging, so the doomed set is a (still sound) subset of the
    full fixpoint and the level under-prunes.  ``seeded`` counts the keys
    inherited from the previous lattice level's doomed set.
    """

    num_blocks: int = 0
    rounds: int = 0
    forward_rounds: int = 0
    spent: int = 0
    truncated: bool = False
    seeded: int = 0
    keys: int = 0


class ImplicationIndex:
    """Per-event implication adjacency of one quotient table, both ways.

    The fixpoint needs, per event ``e``, the *preimage* CSR (which
    blocks step into ``b`` under ``e`` — backward expansion) and the
    forward *image* row (where each block steps — the forward sweep's
    membership checks).  PR 3 rebuilt the ``argsort``/``bincount``/
    ``cumsum`` triple inside every ``doomed_pair_keys`` call; hoisted
    here, the index is built once per quotient and reusable across
    calls.

    Arrays (``E`` events over ``B`` blocks, narrow index dtype):

    * ``order`` — ``(E, B)``: block ids sorted by image under the event;
    * ``indptr`` — ``(E, B + 1)``: CSR row pointers into ``order``;
    * ``counts`` — ``(E, B)``: preimage sizes (kept separately so the
      engine's per-round cost estimates stay one fancy-indexing pass);
    * ``images`` — ``(E, B)``: the forward transition rows (the
      quotient, transposed contiguous).
    """

    __slots__ = ("num_blocks", "num_events", "order", "indptr", "counts", "images")

    def __init__(self, quotient: np.ndarray, num_blocks: Optional[int] = None) -> None:
        quotient = np.asarray(quotient)
        blocks = int(quotient.shape[0] if num_blocks is None else num_blocks)
        events = int(quotient.shape[1]) if quotient.ndim == 2 and quotient.size else 0
        dtype = _index_dtype(blocks + 1)
        self.num_blocks = blocks
        self.num_events = events
        self.order = np.empty((events, blocks), dtype=dtype)
        self.indptr = np.empty((events, blocks + 1), dtype=dtype)
        self.counts = np.empty((events, blocks), dtype=dtype)
        self.images = np.empty((events, blocks), dtype=dtype)
        for event in range(events):
            image = quotient[:, event]
            self.images[event] = image
            self.order[event] = np.argsort(image, kind="stable")
            counts = np.bincount(image, minlength=blocks)
            self.counts[event] = counts
            self.indptr[event, 0] = 0
            self.indptr[event, 1:] = np.cumsum(counts)

def _expand_backward_raw(
    index: ImplicationIndex,
    event: int,
    upper: np.ndarray,
    lower: np.ndarray,
    key_dtype: type,
) -> np.ndarray:
    """Canonical predecessor-pair keys of one frontier slice under one event.

    Unsorted and unfiltered, but — because preimage sets of distinct
    blocks under one event are disjoint, so an unordered predecessor
    pair determines its frontier pair uniquely — duplicate-free apart
    from degenerate diagonal seeds.  Duplicates live entirely *across*
    events (and are dealt with by the callers' membership filters
    before anything gets sorted).  Keys come back in the level's
    ``key_dtype`` (:func:`repro.core.types.narrow_key_dtype`).
    """
    num_blocks = index.num_blocks
    counts = index.counts[event]
    count_u = counts[upper].astype(np.int64)
    count_v = counts[lower].astype(np.int64)
    totals = count_u * count_v
    grand = int(totals.sum())
    if grand == 0:
        return np.empty(0, dtype=key_dtype)
    order = index.order[event]
    indptr = index.indptr[event]
    key_of_out = np.repeat(np.arange(upper.size, dtype=np.int64), totals)
    offsets = np.arange(grand, dtype=np.int64) - np.repeat(
        np.concatenate(([0], np.cumsum(totals)[:-1])), totals
    )
    nv = count_v[key_of_out]
    pre_u = order[indptr[upper[key_of_out]] + offsets // nv]
    pre_v = order[indptr[lower[key_of_out]] + offsets % nv]
    lo = np.minimum(pre_u, pre_v)  # narrow dtype: half the memory traffic
    hi = np.maximum(pre_u, pre_v)
    distinct = lo != hi
    return _pair_keys(
        np.compress(distinct, lo), np.compress(distinct, hi), num_blocks, key_dtype
    )


def _forward_sweep(index: ImplicationIndex, doomed: np.ndarray) -> np.ndarray:
    """Newly doomed keys among all live pairs: one full forward round.

    A live (not yet doomed) pair is newly doomed when some event maps it
    onto a doomed pair.  Streams the pair space in ``O(chunk)`` memory;
    the output comes back sorted (chunks arrive in condensed order) and
    already filtered against ``doomed``.  Keys ride in ``doomed``'s (the
    level's) key dtype throughout.
    """
    num_blocks = index.num_blocks
    key_dtype = doomed.dtype
    parts: List[np.ndarray] = []
    for rows, cols in iter_pair_chunks(num_blocks, _FORWARD_CHUNK):
        keys = _pair_keys(rows, cols, num_blocks, key_dtype)
        alive = _sorted_contains(doomed, keys)
        np.logical_not(alive, out=alive)
        if not alive.any():
            continue
        rows = np.compress(alive, rows)
        cols = np.compress(alive, cols)
        keys = np.compress(alive, keys)
        hit = np.zeros(rows.size, dtype=bool)
        for event in range(index.num_events):
            image = index.images[event]
            succ_u = image[rows]
            succ_v = image[cols]
            lo = np.minimum(succ_u, succ_v)
            hi = np.maximum(succ_u, succ_v)
            # A collapsed successor (lo == hi) only dooms through a
            # degenerate diagonal seed key, which the membership check
            # handles uniformly — matching the backward expansion.
            hit |= _sorted_contains(doomed, _pair_keys(lo, hi, num_blocks, key_dtype))
        if hit.any():
            parts.append(np.compress(hit, keys))
    if not parts:
        return np.empty(0, dtype=key_dtype)
    return np.concatenate(parts)


def _merge_disjoint_sorted(base: np.ndarray, extra: np.ndarray) -> np.ndarray:
    """O(n + m) merge of two sorted unique key arrays with no common element.

    Replaces the per-round ``np.union1d`` (which re-sorts the whole
    concatenation every round) on the fixpoint's hot path.
    """
    if extra.size == 0:
        return base
    if base.size == 0:
        return extra
    return np.insert(base, np.searchsorted(base, extra), extra)


class DoomedPairEngine:
    """Incremental doomed-pair pruning fixpoint of one descent.

    Merging blocks ``(a, b)`` of a closed partition forces merging
    ``(δ(a, e), δ(b, e))`` for every event ``e`` (the substitution
    property); a merge candidate is *doomed* when some chain of those
    implications reaches a weakest edge.  The doomed set is kept as
    sorted canonical pair keys ``a * B + b`` (``a < b``) and grown
    semi-naively in whichever direction is cheaper per round:

    * **backward** — expand the newly-doomed frontier through the
      per-event preimage CSR of an :class:`ImplicationIndex`;
    * **forward** — when the frontier's preimage product ``count_u *
      count_v`` outgrows a scan of the live candidates
      (:data:`_FORWARD_SWITCH_FACTOR`), stream the not-yet-doomed pairs
      and test their successor pairs against the doomed set instead.

    The two directions add the *same* fresh set each round: semi-naive
    backward finds the not-yet-doomed predecessors of the frontier, and
    because every earlier round expanded its full frontier, all other
    doomed pairs' predecessors are already doomed — which is exactly the
    set a full forward sweep discovers.  Direction choices therefore
    affect wall-clock only.

    **Incremental**: one engine serves one descent.  Each level's doomed
    set is seeded from the previous pruned level's keys mapped through
    the refined quotient: within a descent the partitions only coarsen
    and every chosen candidate separates the (descent-constant) weakest
    edges, so the image of a doomed chain is a doomed chain — if any
    intermediate image pair collapsed, every later one (including the
    final weakest pair, which stays separated) would collapse too.
    Seeding therefore starts the fixpoint from a sound subset and only
    the genuinely new frontier is expanded.  A ``base_labels`` vector
    that is not a coarsening of the remembered level resets the cache
    instead of seeding (checked in O(n)).

    Early stops (``budget`` on expansion work, ``max_rounds``) are sound
    — a truncated doomed set only prunes less — and are now *visible*:
    :attr:`last_stats` carries rounds, spent budget and the truncation
    flag for every call.
    """

    def __init__(
        self,
        budget: int = DEFAULT_CANDIDATE_BUDGET,
        max_rounds: int = 64,
        identity_seed: Optional[np.ndarray] = None,
    ) -> None:
        self._budget = int(budget)
        self._max_rounds = int(max_rounds)
        # Pre-computed sorted weakest-edge keys of the identity level
        # (the fault graph's hand-off: block ids there *are* state ids).
        self._identity_seed = identity_seed
        self._prev_labels: Optional[np.ndarray] = None
        self._prev_blocks = 0
        self._prev_doomed: Optional[np.ndarray] = None
        self.last_stats: Optional[PruneStats] = None

    @property
    def seedable(self) -> bool:
        """True once a pruned level is remembered for cross-level seeding.

        The descent's small (dense-scan) levels consult this: once the
        sparse levels above them have paid for the fixpoint, continuing
        the key-based engine downwards re-verifies the mapped seed in a
        round or two instead of re-deriving a ``(B, B)`` boolean
        fixpoint from scratch.
        """
        return self._prev_doomed is not None

    # ------------------------------------------------------------------
    def prune(
        self,
        quotient: np.ndarray,
        weak_a: np.ndarray,
        weak_b: np.ndarray,
        num_blocks: int,
        base_labels: Optional[np.ndarray] = None,
        index: Optional[ImplicationIndex] = None,
    ) -> np.ndarray:
        """The doomed-pair keys of one lattice level, sorted.

        ``weak_a``/``weak_b`` are the weakest edges projected into the
        level's block space; ``base_labels`` (the level's partition
        labels over the top states) enables the incremental seeding —
        omit it for one-shot, stateless use.  Returns the sorted key
        array; :attr:`last_stats` describes the run.
        """
        num_blocks = int(num_blocks)
        key_dtype = narrow_key_dtype(num_blocks)
        stats = PruneStats(num_blocks=num_blocks)
        if (
            base_labels is not None
            and self._identity_seed is not None
            and num_blocks == base_labels.size
        ):
            doomed = np.asarray(self._identity_seed, dtype=key_dtype)
        else:
            weak_lo = np.minimum(weak_a, weak_b)
            weak_hi = np.maximum(weak_a, weak_b)
            doomed = _sort_unique(_pair_keys(weak_lo, weak_hi, num_blocks, key_dtype))
        # The seeding proof needs this level to separate every weakest
        # edge (the mapped chains must end at a *distinct* weak pair).
        # Always true inside a descent; a degenerate direct call with a
        # collapsed weak pair falls back to an unseeded fixpoint.
        separated = weak_a.size == 0 or not bool(
            np.any(np.asarray(weak_a) == np.asarray(weak_b))
        )
        mapped = self._seed_from_previous(base_labels, num_blocks) if separated else None
        if mapped is not None and mapped.size:
            stats.seeded = int(mapped.size)
            doomed = _merge_disjoint_sorted(doomed, _compress_absent(doomed, mapped))
        if quotient.size and doomed.size:
            if index is None:
                index = ImplicationIndex(quotient, num_blocks)
            doomed = self._fixpoint(index, doomed, stats)
        self._remember(base_labels, num_blocks, doomed)
        stats.keys = int(doomed.size)
        self.last_stats = stats
        return doomed

    # ------------------------------------------------------------------
    def _remember(
        self, base_labels: Optional[np.ndarray], num_blocks: int, doomed: np.ndarray
    ) -> None:
        if base_labels is None:
            self._prev_labels = None
            self._prev_doomed = None
            self._prev_blocks = 0
            return
        self._prev_labels = base_labels
        self._prev_blocks = num_blocks
        self._prev_doomed = doomed

    def _seed_from_previous(
        self, base_labels: Optional[np.ndarray], num_blocks: int
    ) -> Optional[np.ndarray]:
        """The previous level's doomed keys mapped through the refinement.

        ``None`` when there is no usable previous level; otherwise the
        sorted unique image keys whose endpoints stay distinct (pairs
        the chosen candidate already merged vanish — their doom predate
        is spent).
        """
        prev_labels = self._prev_labels
        prev_doomed = self._prev_doomed
        if base_labels is None or prev_labels is None or prev_doomed is None:
            return None
        key_dtype = narrow_key_dtype(num_blocks)
        block_map = base_labels[_first_of_each_block(prev_labels)]
        if block_map.size != self._prev_blocks or not np.array_equal(
            block_map[prev_labels], base_labels
        ):
            return None  # not a coarsening of the remembered level
        if prev_doomed.size == 0:
            return np.empty(0, dtype=key_dtype)
        block_map = block_map.astype(_index_dtype(num_blocks))
        map_u = block_map[prev_doomed // self._prev_blocks]
        map_v = block_map[prev_doomed % self._prev_blocks]
        lo = np.minimum(map_u, map_v)
        hi = np.maximum(map_u, map_v)
        keep = lo != hi
        return _sort_unique(
            _pair_keys(np.compress(keep, lo), np.compress(keep, hi), num_blocks, key_dtype)
        )

    # ------------------------------------------------------------------
    def _fixpoint(
        self, index: ImplicationIndex, doomed: np.ndarray, stats: PruneStats
    ) -> np.ndarray:
        num_blocks = index.num_blocks
        num_events = index.num_events
        total_pairs = num_blocks * (num_blocks - 1) // 2
        frontier = doomed
        spent = 0
        while frontier.size:
            if stats.rounds + stats.forward_rounds >= self._max_rounds:
                stats.truncated = True
                break
            upper = frontier // num_blocks
            lower = frontier % num_blocks
            # O(frontier) cost estimates per event: they drive the
            # budget gate and the direction choice, both deterministic.
            totals_by_event: List[np.ndarray] = []
            for event in range(num_events):
                counts = index.counts[event]
                totals_by_event.append(
                    counts[upper].astype(np.int64) * counts[lower].astype(np.int64)
                )
            grands = [int(totals.sum()) for totals in totals_by_event]
            grand_total = sum(grands)
            live_pairs = total_pairs - int(doomed.size)
            forward_cost = live_pairs * num_events
            if num_events and grand_total > _FORWARD_SWITCH_FACTOR * forward_cost:
                # Budget accounting is symmetric with the backward gate:
                # the work that trips the budget is charged even though
                # it never runs, so truncated runs' ``spent`` values are
                # comparable whichever direction refused.
                spent += forward_cost
                if spent > self._budget:
                    stats.truncated = True
                    break
                stats.forward_rounds += 1
                fresh = _forward_sweep(index, doomed)
            else:
                run_events = []
                tripped = False
                for event in range(num_events):
                    if grands[event] == 0:
                        continue
                    spent += grands[event]
                    if spent > self._budget:
                        tripped = True
                        break
                    run_events.append(event)
                if tripped:
                    stats.truncated = True
                    break
                if not run_events:
                    break
                stats.rounds += 1
                fresh = _backward_round(index, doomed, upper, lower, run_events)
            if fresh.size == 0:
                break
            doomed = _merge_disjoint_sorted(doomed, fresh)
            frontier = fresh
        stats.spent = spent
        return doomed


def _backward_round(
    index: ImplicationIndex,
    doomed: np.ndarray,
    upper: np.ndarray,
    lower: np.ndarray,
    run_events: Sequence[int],
) -> np.ndarray:
    """One backward round's fresh keys (sorted, not yet in ``doomed``).

    Each event's raw expansion of the frontier ``(upper, lower)`` is
    membership-filtered against the doomed set and the round's
    accumulated fresh keys *before* any sorting, so sort work tracks the
    genuinely new keys (a few percent of the raw expansion) and nothing
    ever re-copies the full doomed set mid-round (a per-event merge into
    one combined ``seen`` array copies ``O(doomed)`` per event, which
    dominated the big levels).
    """
    # Diagonal keys (only degenerate seed inputs produce them) are
    # the one source of within-event duplicates; without them a plain
    # sort replaces the de-duplicating _sort_unique.
    dup_free = not bool((upper == lower).any())
    key_dtype = doomed.dtype
    fresh = np.empty(0, dtype=key_dtype)
    for event in run_events:
        keys = _expand_backward_raw(index, event, upper, lower, key_dtype)
        keys = _compress_absent(doomed, keys)
        if fresh.size:
            keys = _compress_absent(fresh, keys)
        if keys.size == 0:
            continue
        keys = np.sort(keys) if dup_free else _sort_unique(keys)
        fresh = _merge_disjoint_sorted(fresh, keys)
    return fresh


def doomed_pair_keys(
    quotient: np.ndarray,
    weak_a: np.ndarray,
    weak_b: np.ndarray,
    num_blocks: int,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
    max_rounds: int = 64,
    index: Optional[ImplicationIndex] = None,
) -> np.ndarray:
    """One-shot form of :class:`DoomedPairEngine` (sorted doomed keys).

    Builds (or reuses, via ``index``) the :class:`ImplicationIndex` of
    ``quotient`` and runs the fixpoint once, without the cross-level
    seeding — the stateless entry point tests and ad-hoc callers use.
    Stopping early (round limit or ``budget`` on expansion work) is
    sound: every returned key provably dooms its candidate, so a
    truncated fixpoint only prunes less.
    """
    engine = DoomedPairEngine(budget=budget, max_rounds=max_rounds)
    return engine.prune(quotient, weak_a, weak_b, num_blocks, index=index)


def _sorted_contains(sorted_keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Boolean membership of ``queries`` in the sorted unique ``sorted_keys``."""
    if sorted_keys.size == 0:
        return np.zeros(queries.size, dtype=bool)
    positions = np.searchsorted(sorted_keys, queries, side="left")
    positions = np.minimum(positions, sorted_keys.size - 1)
    return sorted_keys[positions] == queries


def sorted_key_membership(
    sorted_keys: np.ndarray, rows: np.ndarray, cols: np.ndarray, num_blocks: int
) -> np.ndarray:
    """Membership mask of the pairs ``(rows, cols)`` in a sorted key set.

    Queries are built in ``sorted_keys``' own dtype (safe: block ids are
    below ``num_blocks``, so the keys fit whatever the level's
    :func:`repro.core.types.narrow_key_dtype` chose), keeping the
    ``searchsorted`` pass narrow instead of promoting both sides to
    int64.
    """
    if sorted_keys.size == 0:
        return np.zeros(rows.size, dtype=bool)
    queries = _pair_keys(rows, cols, num_blocks, sorted_keys.dtype.type)
    return _sorted_contains(sorted_keys, queries)
