"""Sparse pair structures for the fault graph.

The dense engine keeps an ``O(B^2)`` condensed weight vector and its
``(i, j)`` index arrays per state pair, which caps ``|top|`` at a few
thousand states.  This module provides the sparse replacements on plain
NumPy index/value arrays (CSR/COO style; the container ships no
``scipy``):

* :func:`condensed_indices` — the shared upper-triangular index arrays of
  the *dense* layout (moved here so every consumer shares one cache);
* :func:`iter_pair_chunks` — lazy enumeration of all pairs ``i < j`` in
  condensed (lexicographic) order, ``O(chunk)`` memory;
* :func:`coblock_pair_arrays` — the co-block pairs of a partition as COO
  index arrays, ``O(nnz)``;
* :func:`low_weight_pairs` — every pair separated by fewer than ``cap``
  machines, found *without* touching the ``O(B^2)`` pair space: a
  pair's weight is the Hamming distance between two states' label
  tuples, so the pairs are the Hamming ball of radius ``cap - 1``
  around each state, found per set of differing coordinates by
  mixed-radix key shifts and ``searchsorted`` lookups (narrow columns)
  or by co-block pairs of the remaining coordinates (wide columns);
* :class:`LedgerBuilder` — the shared source of base ledgers for a fixed
  machine list: runs the ball and caches the result per cap so
  cap-escalation retries and per-backup rebuilds never re-run a ball
  they already paid for;
* :class:`PairLedger` — the sparse fault-graph storage built on top of
  :func:`low_weight_pairs`: exact weights for every pair below a cap,
  with vectorised incremental folds.

Everything here is exact (never approximate): the ledger records which
weights it knows exactly (``weight < cap``) and callers escalate the cap
when they need more.  Every stage runs in-process: Algorithm 2 is one
sequential greedy walk, and sharding its stages over a worker pool was
measured slower than serial on every large case on two cores.

Two cross-cutting implementation rules, established by measurement:

* **Narrow keys.**  The ledger's packed pair keys are built in the
  narrowest dtype their state count and cap allow (``int32`` below the
  :func:`repro.core.types.narrow_key_dtype` threshold), so the sorts
  and merges that dominate the large benchmarks move half the bytes.
* **No ``np.unique``, no boolean fancy indexing on hot paths.**  Key
  arrays are deduplicated with an explicit sort + neighbour-diff mask +
  ``np.compress`` (:func:`_sort_unique`): ``np.unique``'s hash-based
  integer path and large boolean fancy indexing are both dramatically
  slower than sort + compress on the containers this runs on (50x on
  the 90M-key ledger merge of ``mesi+counters-10``).
"""

from __future__ import annotations

import itertools
import math
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .budget import _dedup_sorted, current_governor
from .exceptions import PartitionError
from .partition import Partition
from .types import narrow_index_dtype, narrow_key_dtype

__all__ = [
    "CandidateBudgetError",
    "LedgerBuilder",
    "PairLedger",
    "coblock_pair_arrays",
    "condensed_indices",
    "iter_pair_chunks",
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

#: Most shifted keys one lookup batch of the Hamming ball holds
#: (:func:`_ball_parts`), so its transient memory stays bounded at any
#: state count and radix.
_QUERY_CHUNK = 1 << 22


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


def coblock_pair_arrays(labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All pairs ``i < j`` sharing a block of ``labels``, grouped by block.

    Memory and time are ``O(nnz)`` where ``nnz = sum_b C(|block_b|, 2)``;
    nothing proportional to the full pair space is touched.  Pairs come
    back in the narrow index dtype of the state count and are not
    sorted: every caller merges them into a ledger by one sort anyway.
    """
    labels = np.asarray(labels, dtype=np.int64)
    index_dtype = narrow_index_dtype(labels.size)
    # Narrow the member indices *before* the per-block gathers: every
    # downstream array inherits the 4-byte dtype.
    order = np.argsort(labels, kind="stable").astype(index_dtype)
    sorted_labels = labels[order]
    starts = np.concatenate(([0], np.flatnonzero(np.diff(sorted_labels)) + 1))
    sizes = np.diff(np.append(starts, labels.size))
    rows_parts: List[np.ndarray] = []
    cols_parts: List[np.ndarray] = []
    # Blocks of one size share one index pattern: one gather per size.
    for size in _sort_unique(sizes[sizes > 1]).tolist():
        members = order[starts[sizes == size][:, None] + np.arange(size)]
        local_rows, local_cols = condensed_indices(size)
        rows_parts.append(members[:, local_rows].ravel())
        cols_parts.append(members[:, local_cols].ravel())
    if not rows_parts:
        empty = np.empty(0, dtype=index_dtype)
        return empty, empty
    return np.concatenate(rows_parts), np.concatenate(cols_parts)


def _weight_bits(cap: int) -> int:
    """Bits reserved for a weight ``< cap`` in a packed ledger entry."""
    return (cap - 1).bit_length()


def _packed_dtype(num_states: int, cap: int) -> type:
    """Dtype of packed ledger entries ``key << _weight_bits(cap) | weight``.

    Exact weights ride *inside* the key (``weight < cap``), so duplicate
    pairs are identical values and the merge deduplicates with one plain
    sort.  The weight slot is a power of two, so unpacking is shifts and
    masks, not divisions.  Narrow (int32) whenever both the key dtype
    rule and the packed bound ``num_states**2 << bits`` allow.
    """
    if (
        narrow_key_dtype(num_states) == np.int32
        and (num_states * num_states << _weight_bits(cap)) - 1
        <= np.iinfo(np.int32).max
    ):
        return np.int32
    return np.int64


def _pack(
    rows: np.ndarray, cols: np.ndarray, weights: np.ndarray, num_states: int, cap: int
) -> np.ndarray:
    """Packed ledger entries ``(row * num_states + col) << bits | weight``."""
    packed_dtype = _packed_dtype(num_states, cap)
    packed = rows.astype(packed_dtype) * num_states + cols
    packed <<= _weight_bits(cap)
    packed |= weights.astype(packed_dtype, copy=False)
    return packed


def _coblock_count(keys: np.ndarray) -> int:
    """The number of pairs ``i < j`` with ``keys[i] == keys[j]``."""
    if keys.size < 2:
        return 0
    ordered = np.sort(keys)
    starts = np.flatnonzero(ordered[1:] != ordered[:-1]) + 1
    lengths = np.diff(np.concatenate(([0], starts, [keys.size])))
    return int((lengths * (lengths - 1) // 2).sum())


def _refusal(candidates: int, budget: int, cap: int) -> CandidateBudgetError:
    return CandidateBudgetError(
        "sparse enumeration would look up %d candidate pairs (budget %d); "
        "the machine set is not sparse at cap=%d" % (candidates, budget, cap)
    )


def _pack_below(
    rows: np.ndarray,
    cols: np.ndarray,
    columns: Sequence[np.ndarray],
    weight: int,
    num_states: int,
    cap: int,
) -> np.ndarray:
    """Packed entries of the pairs that stay below ``cap``.

    Each pair weighs ``weight`` plus the number of ``columns`` separating it.
    """
    weights = np.full(rows.size, weight, dtype=_packed_dtype(num_states, cap))
    for column in columns:
        weights += column[rows] != column[cols]
    if len(columns):
        keep = weights < cap
        rows, cols, weights = (np.compress(keep, a) for a in (rows, cols, weights))
    return _pack(rows, cols, weights, num_states, cap)


def _ball_parts(
    label_rows: Sequence[np.ndarray], num_states: int, cap: int, budget: int
) -> List[np.ndarray]:
    """Packed entries of every pair at Hamming distance below ``cap``.

    Row ``c`` of ``label_rows`` gives every state's block in machine
    ``c``, so a pair's weight is the Hamming distance between two label
    tuples.  States are keyed by the mixed radix of their tuples, and
    the pairs differing on exactly the coordinate set ``S`` are found,
    for every ``|S| < cap``, by whichever search counts fewer candidates:

    * **Lookups**, ``prod(radix - 1)`` per state: shift the coordinates
      of ``S`` to every other label (the lowest upward only, so each
      pair is found from one end) and keep the keys ``searchsorted``
      finds among the states.  Suits narrow columns (full products).
    * **Co-block pairs**: one scan of the states plus the pairs whose
      keys agree once ``S`` is left out, kept when they differ on all of
      ``S``.  Suits wide columns that few reachable tuples fill.  The
      count has a floor from the number of distinct keys and is only
      counted exactly (one sort) when that floor is below the lookups.

    Equal tuples (weight 0) are the co-block pairs of equal-key runs,
    and the parts are disjoint.  A plan that costs at least the pair
    space scans the pair space in chunks instead, which also stops the
    planning of caps near the machine count.  Constant rows are dropped;
    rows past an int64 key are compared on each hit.

    Raises :class:`CandidateBudgetError` before enumerating when the
    plan exceeds ``budget``; a lookup that hits a run of equal keys
    yields a pair per run member, and that excess is charged as found.
    Returns unsorted parts of :func:`_pack` entries.
    """
    columns = [row for row in label_rows if row.size and row.max() > 0]
    radices = [int(row.max()) + 1 for row in columns]
    strides: List[int] = []
    space = 1
    for radix in radices:
        if space * radix > 1 << 63:
            break
        strides.append(space)
        space *= radix
    keyed = len(strides)
    radius = min(cap - 1, keyed)

    keys = np.zeros(num_states, dtype=np.int64)
    for column, stride in zip(columns, strides):
        keys += column.astype(np.int64) * stride
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    new_run = np.ones(num_states, dtype=bool)
    np.not_equal(sorted_keys[1:], sorted_keys[:-1], out=new_run[1:])
    run_keys = np.compress(new_run, sorted_keys)
    run_start = np.flatnonzero(new_run)
    run_len = np.diff(np.append(run_start, num_states))
    repeated = run_keys.size < num_states

    def left_out(subset: Tuple[int, ...]) -> np.ndarray:
        projected = keys.copy()
        for c in subset:
            projected -= columns[c].astype(np.int64) * strides[c]
        return projected

    # The plan, checked against the pair space and the budget up front.
    pair_space = num_states * (num_states - 1) // 2
    candidates = int((run_len * (run_len - 1) // 2).sum())
    upward = [
        (radices[c] - 1) * num_states - int(columns[c].sum()) for c in range(keyed)
    ]
    searched: set = set()
    grouped: List[Tuple[int, ...]] = []
    subsets = itertools.chain.from_iterable(
        itertools.combinations(range(keyed), size) for size in range(1, radius + 1)
    )
    for subset in subsets:
        if candidates >= pair_space:
            break
        lookups, span = upward[subset[0]], radices[subset[0]]
        for c in subset[1:]:
            lookups *= radices[c] - 1
            span *= radices[c]
        # At most ``groups`` distinct keys are left: a co-block floor.
        groups = min(run_keys.size, space // span)
        if num_states * (num_states / groups + 1) / 2 < lookups:
            scan = num_states + _coblock_count(left_out(subset))
            if scan < lookups:
                candidates += scan
                if scan > num_states:
                    grouped.append(subset)
                continue
        candidates += lookups
        searched.add(subset)
    if candidates >= pair_space:
        if pair_space > budget:
            raise _refusal(pair_space, budget, cap)
        chunks = iter_pair_chunks(num_states, _QUERY_CHUNK)
        return [_pack_below(r, c, columns, 0, num_states, cap) for r, c in chunks]
    if candidates > budget:
        raise _refusal(candidates, budget, cap)
    prefixes = {subset[:k] for subset in searched for k in range(1, len(subset))}

    parts: List[np.ndarray] = []

    def emit(ends: np.ndarray, others: np.ndarray, weight: int) -> None:
        rows, cols = np.minimum(ends, others), np.maximum(ends, others)
        parts.append(_pack_below(rows, cols, columns[keyed:], weight, num_states, cap))

    for subset in ([()] if repeated else []) + grouped:  # (): equal-key runs
        rows, cols = coblock_pair_arrays(left_out(subset))
        differ = np.ones(rows.size, dtype=bool)
        for c in subset:
            differ &= columns[c][rows] != columns[c][cols]
        emit(np.compress(differ, rows), np.compress(differ, cols), len(subset))

    # The lookups run in key order: shifting one coordinate of an
    # ascending run of keys by a fixed amount keeps it ascending, and
    # ``searchsorted`` is several times faster on ascending queries.
    # Each shift is split into its non-wrapping and wrapping halves, so
    # every query array is a few ascending runs.
    sorted_columns = [column[order] for column in columns[:keyed]]

    def visit(queries: np.ndarray, ranks: np.ndarray, subset: Tuple[int, ...]) -> None:
        nonlocal candidates
        depth = len(subset)
        if subset in searched:
            positions = np.searchsorted(run_keys, queries)
            np.minimum(positions, run_keys.size - 1, out=positions)
            hit = run_keys[positions] == queries
            runs = np.compress(hit, positions)
            found = order[np.compress(hit, ranks)]
            if repeated:
                counts = run_len[runs]
                candidates += int(counts.sum()) - counts.size
                if candidates > budget:
                    raise _refusal(candidates, budget, cap)
                starts = np.repeat(run_start[runs], counts)
                firsts = np.repeat(np.cumsum(counts) - counts, counts)
                offsets = np.arange(starts.size) - firsts
                emit(np.repeat(found, counts), order[starts + offsets], depth)
            else:
                emit(found, order[runs], depth)
        if depth == radius or not ranks.size:
            return
        for c in range(subset[-1] + 1 if depth else 0, keyed):
            child = subset + (c,)
            if child not in searched and child not in prefixes:
                continue
            radix, stride = radices[c], strides[c]
            labels = sorted_columns[c][ranks]
            shifted_queries: List[np.ndarray] = []
            shifted_ranks: List[np.ndarray] = []
            for shift in range(1, radix):
                wraps = labels >= radix - shift
                halves = [(~wraps, shift)]
                if depth:  # the lowest coordinate of a set shifts upward only
                    halves.append((wraps, shift - radix))
                for keep, move in halves:
                    shifted_queries.append(np.compress(keep, queries) + move * stride)
                    shifted_ranks.append(np.compress(keep, ranks))
            visit(np.concatenate(shifted_queries), np.concatenate(shifted_ranks), child)

    # States are searched in slices, so no query array holds more than
    # ``_QUERY_CHUNK`` shifted keys whatever the radices.
    per_state = (math.prod(radices[c] - 1 for c in subset) for subset in searched)
    widest = max(per_state, default=1)
    step = max(1, _QUERY_CHUNK // widest)
    ranks = np.arange(num_states, dtype=narrow_index_dtype(num_states))
    for start in range(0, num_states if searched else 0, step):
        visit(sorted_keys[start : start + step], ranks[start : start + step], ())
    # ``visit`` reaches itself through its closure cell; dropping the name
    # breaks the cycle, so the search state is freed without a full GC.
    del visit
    return parts


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
    index_dtype = narrow_index_dtype(num_states)
    rows = (keys // num_states).astype(index_dtype)
    cols = (keys - rows.astype(keys.dtype) * num_states).astype(index_dtype)
    return rows, cols, weights


def _merge_packed_parts(
    parts: Sequence[np.ndarray], num_states: int, cap: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Merge packed ledger parts into sorted condensed-order COO arrays.

    A pair found twice carries the same exact weight, i.e. the same
    packed value, so one sort plus a neighbour-diff dedup produces a
    deterministic result whatever the order of the parts.  Under a
    resource governor the merge may spill (:func:`_governed_sort_unique`).
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
    """Per-machine label arrays in the narrow index dtype, contiguous."""
    if not label_list:
        return []
    dtype = narrow_index_dtype(label_list[0].size)
    return [np.ascontiguousarray(labels, dtype=dtype) for labels in label_list]


def low_weight_pairs(
    partitions: Sequence[Partition],
    num_states: int,
    cap: int,
    budget: int = DEFAULT_CANDIDATE_BUDGET,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every pair whose fault-graph weight is below ``cap``, exactly.

    The weight of a pair is the number of ``partitions`` separating it:
    the Hamming distance between the two states' label tuples.  The
    pairs are the Hamming ball of radius ``cap - 1`` around each state
    (:func:`_ball_parts`).  Requires ``1 <= cap <= len(partitions)``;
    raises :class:`CandidateBudgetError` when the ball's candidate count
    exceeds ``budget``.  Returns ``(rows, cols, weights)`` sorted in
    condensed order.
    """
    num_machines = len(partitions)
    if not 1 <= cap <= num_machines:
        raise PartitionError(
            "low_weight_pairs needs 1 <= cap <= num_machines, got cap=%d, m=%d"
            % (cap, num_machines)
        )
    ledger = LedgerBuilder(partitions, num_states, budget).base(cap)
    return ledger.rows, ledger.cols, ledger.weights


class LedgerBuilder:
    """Shared, cached source of base ledgers for a fixed machine list.

    The fault graph of a fusion run keeps one builder for the *original*
    machines and folds backups in on top (:meth:`ledger`): a cap
    escalation runs the Hamming ball over the base machines only, once
    per cap.  Backup columns have many labels, so a ball over them would
    cost far more than the folds.
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

    def base(self, cap: int) -> "PairLedger":
        """The ledger of the base machines at ``cap``, cached per cap.

        The cap is clamped to the base machine count ``m``: at ``cap ==
        m`` every base weight is known (an absent pair weighs ``m``), so
        a higher cap would only add pairs, up to the whole pair space.
        """
        cap = min(int(cap), len(self._partitions))
        cached = self._cache.get(cap)
        if cached is None:
            n = self._num_states
            if cap < 1:  # no base machine: nothing weighs below 0
                empty = np.empty(0, dtype=narrow_index_dtype(n))
                return PairLedger(n, cap, empty, empty, np.empty(0, np.int64))
            parts = _ball_parts(self._rows(), n, cap, self._budget)
            cached = PairLedger(n, cap, *_merge_packed_parts(parts, n, cap))
            self._cache[cap] = cached
        return cached

    def seed(self, ledger: "PairLedger") -> bool:
        """Adopt a warm base ledger (e.g. loaded from the artifact store).

        The ledger must describe the same state count and a cap between
        1 and the base machine count; an already-built cap is never
        overwritten (the cached ball is equally exact).  Returns True
        when adopted.
        """
        if int(ledger.num_states) != self._num_states:
            return False
        cap = int(ledger.cap)
        if cap < 1 or cap > len(self._partitions) or cap in self._cache:
            return False
        self._cache[cap] = ledger
        return True

    def built(self) -> Dict[int, "PairLedger"]:
        """Snapshot of the base ledgers built so far, keyed by cap."""
        return dict(self._cache)

    def ledger(self, cap: int, extras: Sequence[Partition] = ()) -> "PairLedger":
        """The ledger at ``cap`` of the base machines plus ``extras``.

        The base ball, then one fold per extra (backup) machine, with
        ``cap`` clamped to the total machine count.  A pair weighs at
        least its base weight, so up to the base machine count ``m`` the
        base ball holds every pair the folds keep.  Above ``m`` the
        pairs every base machine separates are added (:meth:`_far_pairs`).
        """
        num_base = len(self._partitions)
        cap = min(int(cap), num_base + len(extras))
        n = self._num_states
        built = self.base(cap)
        if built.cap < cap:
            built = PairLedger(n, cap, built.rows, built.cols, built.weights)
        for partition in extras:
            built = built.fold(partition.labels)
        if cap <= num_base:
            return built
        parts = [_pack(built.rows, built.cols, built.weights, n, cap)]
        parts += self._far_pairs(cap, [np.asarray(p.labels) for p in extras])
        return PairLedger(n, cap, *_merge_packed_parts(parts, n, cap))

    def _far_pairs(self, cap: int, extras: Sequence[np.ndarray]) -> List[np.ndarray]:
        """Packed entries below ``cap`` for the pairs all base machines separate.

        Such a pair differs on fewer than ``cap - m`` extras, so it shares
        a block in one of any ``cap - m`` of them: the candidates are the
        co-block pairs of the ``cap - m`` extras with the fewest, checked
        against the budget first.  Pairs the folded ledger also holds
        merge away (same packed value).
        """
        spare = cap - len(self._partitions)
        counts = []
        for labels in extras:
            sizes = np.bincount(labels)
            counts.append(int((sizes * (sizes - 1) // 2).sum()))
        chosen = sorted(range(len(extras)), key=counts.__getitem__)[:spare]
        candidates = sum(counts[i] for i in chosen)
        if candidates > self._budget:
            raise _refusal(candidates, self._budget, cap)
        columns = self._rows() + list(extras)
        n = self._num_states
        return [
            _pack_below(*coblock_pair_arrays(extras[i]), columns, 0, n, cap)
            for i in chosen
        ]

    def _rows(self) -> List[np.ndarray]:
        if self._label_rows is None:
            self._label_rows = _label_matrix_rows(
                [p.labels for p in self._partitions]
            )
        return self._label_rows


class PairLedger:
    """Sparse fault-graph weights: exact for every pair below ``cap``.

    Invariant: ``weights[k] < cap`` for every stored pair, entries are
    sorted in condensed order, and every pair *not* stored has weight at
    least ``cap``.  Folding in another machine can only increase weights,
    so the invariant survives :meth:`fold` (entries reaching the cap are
    dropped); learning about *smaller* caps never happens, and larger
    caps require a new base ball plus folds (:meth:`LedgerBuilder.ledger`),
    which the fault graph builds on demand.
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
        return LedgerBuilder(partitions, num_states, budget).base(cap)

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
