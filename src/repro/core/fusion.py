"""(f, m)-fusion: definition, order, and Algorithm 2 (fusion generation).

A set of backup machines ``F`` is an *(f, m)-fusion* of a machine set
``A`` (Definition 5) when ``|F| = m`` and ``dmin(A ∪ F) > f``; such a
system tolerates ``f`` crash faults (Theorem 1) or ``⌊f/2⌋`` Byzantine
faults (Theorem 2).

Algorithm 2 generates the minimum number of backups greedily: starting
from the top of the closed partition lattice (which always raises ``dmin``
by exactly one), it walks down lower covers as long as a smaller machine
still covers every weakest edge of the current fault graph, then adds the
machine reached and repeats until ``dmin(A ∪ F) > f``.  The number of
machines produced is exactly ``required_dmin(f) - dmin(A)``.

Every lattice level runs one scan (:func:`_scan_level`): merge
candidates stream in lexicographic pair order, with no ``O(B^2)`` pair
list, into one batched pair-closure kernel
(:func:`repro.core.partition.close_merges`), which closes a chunk of
candidates together and drops each the round it merges a weakest pair.
Failure-dominated levels are pruned first, by the sparse backward
fixpoint of :class:`repro.core.sparse.DoomedPairEngine` or, on small
unseeded levels, by the dense ``(B, B)`` :func:`_doomed_pairs`
fixpoint — so memory never caps ``|top|``.

Generation runs in-process, like the paper's sequential greedy walk:
sharding its stages over worker processes was measured slower than
serial on every large case.  ``generate_fusion``'s ``workers=``
argument is still validated (:func:`resolve_workers`), but worker
processes only serve :class:`repro.core.runtime.VectorizedRuntime`.

Both prunes are sound and the candidates are closed in a fixed order,
so the chosen partitions are byte-identical whichever prune or chunking
a level uses; ``tests/integration/test_partition_hashes.py``,
``tests/property/test_vectorized_equivalence.py`` and the frozen
summaries in ``benchmarks/bench_perf_regression.py`` enforce that.

This module also implements Definition 6 (the order among fusions, via a
bipartite matching over the pairwise machine order) and Theorem 3 (every
(m - t)-subset of an (f, m)-fusion is an (f - t, m - t)-fusion), both as
checkable predicates used by the test-suite and the exhaustive-search
ablation.
"""

from __future__ import annotations

import os
from contextlib import nullcontext
from dataclasses import dataclass
from itertools import chain, repeat
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..io.store import ArtifactStore
    from ..utils.timing import Stopwatch

from .budget import ResourceBudget, ResourceGovernor, activate
from .dfsm import DFSM
from .exceptions import FusionError, FusionExistenceError
from .fault_graph import FaultGraph
from .fault_tolerance import required_dmin
from .partition import (
    Partition,
    WeakPairs,
    _first_of_each_block,
    close_merges,
    machine_from_partition,
    merge_batch_limit,
    partition_from_machine,
    quotient_table,
)
from .product import CrossProduct
from .shm import _MAX_WORKERS, resolve_workers
from .sparse import (
    DEFAULT_CANDIDATE_BUDGET,
    DoomedPairEngine,
    PruneStats,
    iter_pair_chunks,
    sorted_key_membership,
)

__all__ = [
    "FusionResult",
    "generate_fusion",
    "generate_byzantine_fusion",
    "is_fusion",
    "fusion_machine_count",
    "fusion_state_space",
    "fusion_order_leq",
    "check_subset_theorem",
    "resolve_workers",
    "DescentStrategy",
    "DESCENT_SPARSE_CUTOFF",
]

#: Signature of a descent strategy: given the current fault graph and the
#: candidate partitions from a lower cover that each raise ``dmin``, pick
#: which candidate to descend into.
DescentStrategy = Callable[[FaultGraph, List[Partition]], Partition]


def _first_candidate(_graph: FaultGraph, candidates: List[Partition]) -> Partition:
    """Default strategy: take the first improving candidate (paper's ∃F ∈ C)."""
    return candidates[0]


def _fewest_blocks(_graph: FaultGraph, candidates: List[Partition]) -> Partition:
    """Prefer the candidate with the fewest blocks (smallest machine)."""
    return min(candidates, key=lambda p: p.num_blocks)


def _largest_gain(graph: FaultGraph, candidates: List[Partition]) -> Partition:
    """Prefer the candidate whose addition yields the largest ``dmin``."""
    return max(candidates, key=graph.dmin_with)


STRATEGIES: Dict[str, DescentStrategy] = {
    "first": _first_candidate,
    "fewest_blocks": _fewest_blocks,
    "largest_gain": _largest_gain,
}


@dataclass(frozen=True)
class FusionResult:
    """Outcome of fusion generation.

    Attributes
    ----------
    originals:
        The input machine set ``A``.
    backups:
        The generated fusion machines ``F`` (quotients of the top), in the
        order Algorithm 2 produced them.
    partitions:
        The closed partitions of the top corresponding to ``backups``.
    product:
        The reachable cross product of ``A`` (the top and its projections).
    graph:
        The final fault graph ``G(top, A ∪ F)``.
    f:
        The number of crash faults the combined system tolerates by design.
    byzantine_f:
        The number of Byzantine faults it tolerates (``f // 2``).
    initial_dmin / final_dmin:
        ``dmin`` before and after adding the backups.
    """

    originals: Tuple[DFSM, ...]
    backups: Tuple[DFSM, ...]
    partitions: Tuple[Partition, ...]
    product: CrossProduct
    graph: FaultGraph
    f: int
    initial_dmin: int
    final_dmin: int

    @property
    def byzantine_f(self) -> int:
        """Byzantine faults tolerated by the combined system (Theorem 2)."""
        return max(0, (self.final_dmin - 1) // 2)

    @property
    def num_backups(self) -> int:
        """Number of fusion machines generated, ``m``."""
        return len(self.backups)

    @property
    def backup_sizes(self) -> Tuple[int, ...]:
        """State counts of each backup machine (the paper's ``|Backup Machines|``)."""
        return tuple(b.num_states for b in self.backups)

    @property
    def top_size(self) -> int:
        """``|top|`` — number of states of the reachable cross product."""
        return self.product.num_states

    @property
    def fusion_state_space(self) -> int:
        """Product of backup sizes (the paper's ``|Fusion|`` column)."""
        return int(np.prod(self.backup_sizes, dtype=object)) if self.backups else 1

    @property
    def all_machines(self) -> Tuple[DFSM, ...]:
        """Originals followed by backups (the fault-tolerant system)."""
        return self.originals + self.backups

    def summary(self) -> Dict[str, object]:
        """A dictionary summary convenient for reports and benchmarks."""
        return {
            "originals": [m.name for m in self.originals],
            "f": self.f,
            "top_size": self.top_size,
            "num_backups": self.num_backups,
            "backup_sizes": list(self.backup_sizes),
            "fusion_state_space": self.fusion_state_space,
            "initial_dmin": self.initial_dmin,
            "final_dmin": self.final_dmin,
            "byzantine_faults_tolerated": self.byzantine_f,
        }


#: Upper bound on doomed-pair fixpoint rounds.  The fixpoint is a sound
#: pruning filter, so stopping early only means a few more candidates go
#: through the exact closure check; in practice convergence takes a
#: handful of rounds (the implication depth of the quotient machine).
_DOOMED_MAX_ROUNDS = 64

#: Expansion-work budget of the sparse doomed-pair fixpoint, in expanded
#: predecessor pairs / checked successor candidates.  Exceeding it stops
#: the fixpoint early — sound (the level merely under-prunes) and now
#: *reported*: the engine's :class:`repro.core.sparse.PruneStats` flag
#: lands in the stopwatch's ``prune`` stage and in ``BENCH_perf.json``.
#: Deliberately *not* raised for the ``mesi+counters-10`` flagship, whose
#: top level would spend ~200M units converging: measured on the
#: reference container, the budgeted stop costs ~1.5 s of extra exact
#: closure checks while the full fixpoint costs ~65 s of extra expansion
#: — the stats record the truncation, so the trade stays visible.
_PRUNE_BUDGET = DEFAULT_CANDIDATE_BUDGET

#: Rejected candidates tolerated per level before switching from the
#: optimistic scan to the bulk doomed-pair prune.  Low enough
#: that failure-dominated levels (protocol mixes) amortise the fixpoint
#: almost immediately, high enough that success-on-first-pair levels
#: (counter families) never pay for it.
_PRUNE_AFTER_FAILURES = 8

#: Lattice levels with more blocks than this always prune with the
#: sparse :class:`DoomedPairEngine` fixpoint; smaller levels that the
#: engine cannot seed from the level above use the dense ``(B, B)``
#: :func:`_doomed_pairs` fixpoint instead.
DESCENT_SPARSE_CUTOFF = 4096

#: Pair-enumeration chunk size of the level scan (peak enumeration
#: memory per level is a few of these, not ``O(B^2)``).
_PAIR_CHUNK = 16384


def _doomed_pairs(
    quotient: np.ndarray, weak_a: np.ndarray, weak_b: np.ndarray, num_blocks: int
) -> Tuple[np.ndarray, PruneStats]:
    """Boolean ``(B, B)`` matrix of block pairs whose merge provably fails.

    Merging blocks ``(a, b)`` forces merging ``(δ(a, e), δ(b, e))`` for
    every event ``e`` (the substitution property), so the closure of a
    candidate merge contains every pair *reachable* from it in this
    pair-implication graph.  Propagating backwards from the weakest-edge
    pairs therefore marks exactly the candidates whose closure is certain
    to glue two endpoints of a weakest edge together — candidates that
    Algorithm 2 would reject after an expensive closure computation.

    The filter is sound but deliberately not complete (a closure can also
    fail through transitive merges the implication graph alone does not
    force), so survivors still get the exact check.  In the benchmark
    workloads the filter eliminates virtually every failing candidate,
    which is what turns the per-level scan from thousands of Python
    union-find closures into one NumPy fixpoint.

    This is the dense form, used for levels of at most
    :data:`DESCENT_SPARSE_CUTOFF` blocks that the descent's
    :class:`repro.core.sparse.DoomedPairEngine` cannot seed from a level
    above.  Larger levels, and every level once the engine is seedable,
    use the engine.  On the small unseeded levels of the zoo-fleet
    fusions the engine took about twice the dense fixpoint's prune time
    for the same doomed set, so the block count selects.  The
    returned :class:`repro.core.sparse.PruneStats` mirrors the sparse
    engine's (``spent`` counts the dense rounds' ``B^2 * E`` sweeps) so
    every level's prune is accounted uniformly.
    """
    stats = PruneStats(num_blocks=num_blocks)
    doomed = np.zeros((num_blocks, num_blocks), dtype=bool)
    doomed[weak_a, weak_b] = True
    doomed[weak_b, weak_a] = True
    if quotient.size == 0:
        stats.keys = int(np.count_nonzero(np.triu(doomed, 1)))
        return doomed, stats
    columns = [np.ascontiguousarray(quotient[:, e]) for e in range(quotient.shape[1])]
    for _ in range(_DOOMED_MAX_ROUNDS):
        grown = doomed
        for column in columns:
            grown = grown | doomed[column[:, None], column]
        stats.rounds += 1
        stats.spent += num_blocks * num_blocks * len(columns)
        if np.array_equal(grown, doomed):
            break
        doomed = grown
    else:
        stats.truncated = True
    stats.keys = int(np.count_nonzero(np.triu(doomed, 1)))
    return doomed, stats


class _PairQueue:
    """One level's candidate block pairs, in lexicographic order.

    Pairs stream from :func:`repro.core.sparse.iter_pair_chunks`, so no
    level allocates its ``O(B^2)`` pair list; once :meth:`keep` installs
    the prune's filter, only surviving pairs are handed out.
    """

    def __init__(self, num_blocks: int) -> None:
        self._chunks = iter_pair_chunks(num_blocks, _PAIR_CHUNK)
        self._rows = self._cols = np.empty(0, dtype=np.int64)
        self._alive: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None

    def keep(self, alive: Callable[[np.ndarray, np.ndarray], np.ndarray]) -> None:
        """Hand out only the pairs ``(rows, cols)`` whose ``alive`` mask is set."""
        self._alive = alive
        mask = alive(self._rows, self._cols)
        self._rows, self._cols = self._rows[mask], self._cols[mask]

    def more(self) -> bool:
        """True while an (alive) pair remains."""
        while not self._rows.size:
            try:
                rows, cols = next(self._chunks)
            except StopIteration:
                return False
            if self._alive is not None:
                mask = self._alive(rows, cols)
                rows, cols = rows[mask], cols[mask]
            self._rows, self._cols = rows, cols
        return True

    def take(self, size: int) -> Tuple[np.ndarray, np.ndarray]:
        """The next ``size`` pairs (fewer only when the level runs out)."""
        rows: List[np.ndarray] = []
        cols: List[np.ndarray] = []
        while size > 0 and self.more():
            rows.append(self._rows[:size])
            cols.append(self._cols[:size])
            self._rows, self._cols = self._rows[size:], self._cols[size:]
            size -= rows[-1].size
        return np.concatenate(rows), np.concatenate(cols)


def _scan_level(
    quotient: np.ndarray,
    base_labels: np.ndarray,
    weak: WeakPairs,
    num_blocks: int,
    first_mode: bool,
    measure,
    engine: DoomedPairEngine,
    note_prune: Callable[[PruneStats], None],
) -> Tuple[Optional[Partition], List[Partition]]:
    """Close one lattice level's merge candidates, in lexicographic order.

    Candidates go to the batched pair-closure kernel
    (:func:`repro.core.partition.close_merges`) in geometric chunks:

    1. optimistically, chunks of 1, 2 and then the rest of the
       :data:`_PRUNE_AFTER_FAILURES` budget — a level whose first pair
       qualifies (the counter families) pays for one closure;
    2. once that many candidates failed, the doomed-pair prune removes
       every remaining pair whose closure provably merges a weakest
       pair: the descent's :class:`DoomedPairEngine` above
       :data:`DESCENT_SPARSE_CUTOFF` blocks or when it can seed from the
       level above, the dense :func:`_doomed_pairs` fixpoint otherwise;
    3. the survivors follow in chunks that double from 1 up to
       :func:`repro.core.partition.merge_batch_limit` — survivors
       mostly qualify where the prune is tight, so first mode closes
       few beyond the one it takes.

    Returns ``(chosen, improving)``: ``chosen`` is the lowest-index
    qualifying candidate in first mode, ``improving`` the deduplicated
    qualifying candidates otherwise.  Closed partitions are unique and
    the prune is sound, so the chunking never changes either.
    """
    queue = _PairQueue(num_blocks)
    improving: List[Partition] = []
    seen: set = set()
    failures = 0

    def close(size: int) -> Optional[Partition]:
        """Close the next ``size`` candidates; the first hit in first mode."""
        nonlocal failures
        rows, cols = queue.take(size)
        with measure("closure"):
            ok, closed = close_merges(quotient, rows, cols, weak)
        failures += int(ok.size - np.count_nonzero(ok))
        for index in np.flatnonzero(ok).tolist():
            candidate = Partition(closed[index][base_labels])
            if first_mode:
                return candidate
            if candidate not in seen:
                seen.add(candidate)
                improving.append(candidate)
        return None

    sizes = chain((1, 2), repeat(_PRUNE_AFTER_FAILURES))
    while failures < _PRUNE_AFTER_FAILURES and queue.more():
        chosen = close(min(next(sizes), _PRUNE_AFTER_FAILURES - failures))
        if chosen is not None:
            return (chosen, improving)
    if not queue.more():
        return (None, improving)

    if num_blocks > DESCENT_SPARSE_CUTOFF or engine.seedable:
        with measure("prune"):
            keys = engine.prune(
                quotient, weak.lo, weak.hi, num_blocks, base_labels=base_labels
            )
        note_prune(engine.last_stats)
        queue.keep(lambda rows, cols: ~sorted_key_membership(keys, rows, cols, num_blocks))
    else:
        with measure("prune"):
            doomed, prune_stats = _doomed_pairs(quotient, weak.lo, weak.hi, num_blocks)
        note_prune(prune_stats)
        queue.keep(lambda rows, cols: ~doomed[rows, cols])

    size = 1
    limit = merge_batch_limit(num_blocks)
    while queue.more():
        chosen = close(size)
        if chosen is not None:
            return (chosen, improving)
        size = min(2 * size, limit)
    return (None, improving)


def _descend(
    top: DFSM,
    graph: FaultGraph,
    strategy: DescentStrategy,
    max_descent: Optional[int] = None,
    stopwatch=None,
    checkpoint: Optional[Callable[[int, np.ndarray], None]] = None,
    resume: Optional[Tuple[int, np.ndarray]] = None,
) -> Partition:
    """Inner loop of Algorithm 2: walk down the lattice from the top.

    Starting from the identity partition (the top machine, which always
    covers every edge), repeatedly move to a strictly smaller closed
    partition that still covers every weakest edge of the current fault
    graph (equivalently: still increases the system ``dmin``), stopping
    when none exists or the bottom is reached.  Returns the partition of
    the machine to add.

    Candidates at each level are the closures of merging two blocks of the
    current partition — exactly the construction behind the lower cover
    (Definition 2), enumerated in lexicographic pair order.  Each level is
    evaluated in three stages:

    1. the weakest edges are projected into the quotient's block space
       and deduplicated into :class:`repro.core.partition.WeakPairs`;
    2. pairs are closed optimistically in lexicographic order — on
       workloads where an early candidate qualifies (the counter
       families) this is all that ever runs;
    3. after :data:`_PRUNE_AFTER_FAILURES` rejected candidates the
       doomed-pair fixpoint prunes, in bulk, every remaining pair whose
       closure provably re-merges a weakest edge, and only the survivors
       are closed and checked.

    :func:`_scan_level` runs the stages, feeding the batched closure
    kernel in geometric chunks.

    The default ``"first"`` strategy stops at the first qualifying
    candidate — the paper's nondeterministic ``∃F ∈ C`` choice resolved
    deterministically, and byte-identical to scanning all pairs because
    pruned pairs can never qualify.

    If *no* candidate qualifies, no closed partition strictly below the
    current one covers the weakest edges either (any such partition is
    refined by one of the candidates), so stopping here preserves the
    minimality argument of Theorem 5.  The descent never needs the full
    top-state-space partition until the end: it works on quotient
    transition tables whose size shrinks at every step.

    ``checkpoint`` (when given) is called with ``(level, labels)`` after
    every committed step, and ``resume`` restarts the walk from such a
    pair instead of the identity partition.  Resuming is byte-identical
    to the uninterrupted run: the level scan enumerates candidates in a
    fixed lexicographic order and the doomed-pair prune is a *sound*
    filter — a resumed engine that starts with an empty prune cache
    merely prunes less on its first level, it can never change which
    candidate is chosen.
    """
    # The weakest edges as pairs of the previous level's blocks (of top
    # states before the first level): each level projects the previous
    # level's distinct pairs, not every top-state edge again.
    weak_a, weak_b = graph.weakest_edge_arrays()
    previous: Optional[np.ndarray] = None
    if resume is not None:
        level, labels = resume
        current = Partition(np.asarray(labels))
        steps = int(level)
    else:
        current = Partition.identity(top.num_states)
        steps = 0
    measure = stopwatch.measure if stopwatch is not None else (lambda _name: nullcontext())
    first_mode = strategy is _first_candidate
    # One pruning engine per descent: the weakest edges are constant and
    # the levels only coarsen within it, which is what makes the
    # engine's cross-level seeding sound.  The graph hands over the
    # identity level's seed keys ready-made (they are cached across the
    # descents of one generation).
    engine = DoomedPairEngine(
        budget=_PRUNE_BUDGET,
        max_rounds=_DOOMED_MAX_ROUNDS,
        identity_seed=graph.weakest_edge_keys(),
    )

    def note_prune(stats: Optional[PruneStats]) -> None:
        """Fold one level's prune outcome into the stopwatch's stage."""
        if stopwatch is None or stats is None:
            return
        stopwatch.accumulate(
            "prune",
            rounds=stats.rounds,
            forward_rounds=stats.forward_rounds,
            spent=stats.spent,
            truncated=int(stats.truncated),
            seeded=stats.seeded,
        )

    while current.num_blocks > 1:
        if max_descent is not None and steps >= max_descent:
            break
        quotient = quotient_table(top, current)
        base_labels = current.labels
        # Weakest edges in the quotient's block space, deduplicated once
        # per level.  The current partition always separates them (level
        # 0 is the identity and every chosen candidate separates them by
        # construction).
        to_block = (
            base_labels if previous is None
            else base_labels[_first_of_each_block(previous)]
        )
        weak = WeakPairs(to_block[weak_a], to_block[weak_b], current.num_blocks)
        weak_a, weak_b, previous = weak.lo, weak.hi, base_labels
        chosen, improving = _scan_level(
            quotient, base_labels, weak, current.num_blocks,
            first_mode, measure, engine, note_prune,
        )
        if chosen is None and improving:
            chosen = strategy(graph, improving)
        if chosen is None:
            break
        current = chosen
        steps += 1
        if checkpoint is not None:
            checkpoint(steps, current.labels)
    return current


def _resolve_store(store) -> Optional["ArtifactStore"]:
    """Coerce ``generate_fusion``'s ``store`` argument to an instance.

    ``None`` falls back to ``REPRO_ARTIFACT_DIR`` (the common production
    shape: export the variable once, every run becomes durable); a
    string/path opens a store rooted there.  Imported lazily because
    :mod:`repro.io` depends on :mod:`repro.core`.
    """
    from ..io.store import ArtifactStore

    if store is None:
        return ArtifactStore.from_env()
    if isinstance(store, (str, os.PathLike)):
        return ArtifactStore(os.fspath(store))
    return store


def _result_from_store(
    store: "ArtifactStore",
    digest: str,
    runkey: str,
    machines: Sequence[DFSM],
    product: Optional[CrossProduct],
    target_dmin: int,
) -> Optional[FusionResult]:
    """Reconstruct a finished :class:`FusionResult` from the store.

    ``None`` on any miss or malformed artifact (which is quarantined) —
    the caller then recomputes and recommits.  The reconstruction is
    cheap: backups are quotients of the warm product, and the fault
    graph is reassembled lazily (no ledger is built until someone asks
    for a ``dmin`` the persisted ledgers cannot answer).
    """
    loaded = store.load_result(digest, runkey)
    if loaded is None:
        return None
    meta, labels_list = loaded
    if product is None:
        product = store.load_product(digest, machines)
        if product is None:
            return None
    top = product.machine
    try:
        f = int(meta["f"])
        initial_dmin = int(meta["initial_dmin"])
        final_dmin = int(meta["final_dmin"])
        names = list(meta["names"])
    except (KeyError, TypeError, ValueError):
        store.quarantine(digest, store._result_name(runkey))
        return None
    if len(names) != len(labels_list) or any(
        labels.shape != (top.num_states,) for labels in labels_list
    ):
        store.quarantine(digest, store._result_name(runkey))
        return None
    partitions = tuple(Partition(np.asarray(labels)) for labels in labels_list)
    graph = FaultGraph.from_cross_product(product, weight_cap=target_dmin + 1)
    ledgers = store.load_base_ledgers(digest)
    for cap in sorted(ledgers):
        graph.seed_base_ledger(ledgers[cap])
    backups = []
    for name, partition in zip(names, partitions):
        machine = machine_from_partition(top, partition, name=str(name))
        graph = graph.with_partition(partition, name=str(name))
        backups.append(machine)
    return FusionResult(
        originals=tuple(machines),
        backups=tuple(backups),
        partitions=partitions,
        product=product,
        graph=graph,
        f=f,
        initial_dmin=initial_dmin,
        final_dmin=final_dmin,
    )


def generate_fusion(
    machines: Sequence[DFSM],
    f: int,
    *,
    byzantine: bool = False,
    existing_backups: Sequence[DFSM] = (),
    max_backups: Optional[int] = None,
    strategy: str | DescentStrategy = "first",
    name_prefix: str = "F",
    product: Optional[CrossProduct] = None,
    stopwatch: Optional["Stopwatch"] = None,
    workers: Optional[int] = None,
    store: "ArtifactStore | str | os.PathLike | None" = None,
    budget: "ResourceBudget | dict | None" = None,
) -> FusionResult:
    """Algorithm 2 — generate backup machines tolerating ``f`` faults.

    Parameters
    ----------
    machines:
        The original machine set ``A`` (at least one machine).
    f:
        Number of faults to tolerate.  By default these are crash faults;
        with ``byzantine=True`` the target ``dmin`` is ``2 f + 1`` instead
        of ``f + 1`` (Theorem 2), i.e. the generated system tolerates
        ``f`` *Byzantine* faults.
    existing_backups:
        Backups already present (each must be ≤ the top); generation tops
        up the system instead of starting from scratch.
    max_backups:
        Optional limit ``m`` on the number of *new* backups.  When the
        limit is insufficient (Theorem 4), :class:`FusionExistenceError`
        is raised.
    strategy:
        Which improving lower-cover candidate to descend into: ``"first"``
        (the paper's nondeterministic choice resolved deterministically),
        ``"fewest_blocks"``, ``"largest_gain"``, or a custom callable.
    name_prefix:
        Backup machines are named ``F1, F2, ..`` with this prefix.
    product:
        Pre-computed cross product of ``machines`` to reuse.
    stopwatch:
        Optional :class:`repro.utils.timing.Stopwatch`; when given, the
        stages ``product_build``, ``graph_assemble``, ``ledger_build``,
        ``descent``, ``prune`` and ``closure`` are accumulated into it
        (the per-stage breakdown ``benchmarks/bench_perf_regression.py``
        reports).  ``graph_assemble`` covers fault-graph construction
        and folding in existing backups; ``ledger_build`` is the initial
        ``dmin`` — the sparse pair ledger's Hamming ball, or the
        condensed-vector min scan on dense graphs.
    workers:
        Validated by :func:`resolve_workers` (a negative count or a
        malformed ``REPRO_FUSION_WORKERS`` raises :class:`FusionError`)
        and otherwise unused: generation always runs in-process, and
        worker processes only size the pool of
        :class:`repro.core.runtime.VectorizedRuntime`.
    store:
        Optional :class:`repro.io.store.ArtifactStore` (or a directory
        path) making the run *crash durable*: the reachable product, the
        pair ledgers, every descent level and the finished result are
        committed atomically under the machine set's content digest.  A
        second call on the same machine set warm-loads (skipping
        ``product_build``/``ledger_build`` entirely), and a run killed
        mid-descent resumes from its last committed level with a
        byte-identical result.  ``None`` falls back to the
        ``REPRO_ARTIFACT_DIR`` environment variable; unset means no
        persistence (exactly the previous behaviour).  Result-level
        caching requires a named ``strategy`` and no
        ``existing_backups`` (custom callables have no stable cache
        key); product and ledger artifacts are shared regardless.
    budget:
        Optional resource budget governing the run: a
        :class:`repro.core.budget.ResourceBudget`, or a mapping with
        ``"memory"``/``"disk"`` keys whose values are byte counts or
        size strings (``"256M"``).  ``None`` reads the
        ``REPRO_MEMORY_BUDGET`` / ``REPRO_DISK_BUDGET`` environment
        variables.  Above the memory
        watermark the sparse ledger merges spill sorted key runs to
        scratch (byte-identical k-way external merge); disk exhaustion
        retries commits after scratch sweeping and finally
        raises :class:`repro.core.exceptions.ResourceExhaustedError`
        with the run still resumable.  Spill/retry counts land in
        the stopwatch's ``resources`` stage.

    Returns
    -------
    FusionResult
        The generated backups plus the final fault graph and statistics.

    Notes
    -----
    The number of new backups equals ``required_dmin - dmin(A ∪ existing)``
    because the machine added in each outer iteration covers every weakest
    edge of the current fault graph and therefore raises ``dmin`` by
    exactly one (Theorem 5).
    """
    if not machines:
        raise FusionError("cannot generate a fusion for an empty machine set")
    if f < 0:
        raise ValueError("number of faults must be non-negative")
    if isinstance(strategy, str):
        try:
            strategy_fn = STRATEGIES[strategy]
        except KeyError:
            raise FusionError(
                "unknown strategy %r (available: %s)" % (strategy, sorted(STRATEGIES))
            ) from None
    else:
        strategy_fn = strategy

    target_dmin = required_dmin(f, byzantine=byzantine)
    crash_equivalent_f = target_dmin - 1
    measure = stopwatch.measure if stopwatch is not None else nullcontext

    resolve_workers(workers)
    artifacts = _resolve_store(store)
    # The governor meters large pair-key arrays against the run's
    # budget, and owns the spill scratch the ledger merges degrade into.  It is created unconditionally so the
    # ``resources`` stage always exists in the stopwatch, warm hit or
    # not.
    governor = ResourceGovernor(budget)
    if artifacts is not None:
        governor.set_spill_dir(artifacts.scratch_dir())

    def _finish_resources() -> None:
        if stopwatch is not None:
            stopwatch.accumulate("resources", **governor.stats.as_counters())
        governor.close()

    digest: Optional[str] = None
    runkey: Optional[str] = None
    if artifacts is not None:
        with measure("store_load"):
            digest = artifacts.open_namespace(machines)
        if isinstance(strategy, str) and not existing_backups:
            runkey = artifacts.run_key(
                f=f,
                byzantine=byzantine,
                strategy=strategy,
                name_prefix=name_prefix,
                max_backups=max_backups,
            )
            # Warm fast path: a finished result for this exact run
            # reconstructs without a lock or a single ledger build.
            with measure("store_load"):
                warm = _result_from_store(
                    artifacts, digest, runkey, machines, product, target_dmin
                )
            if warm is not None:
                if stopwatch is not None:
                    stopwatch.accumulate("store", **artifacts.stats.as_counters())
                _finish_resources()
                return warm

    try:
        # Cold runs against a store serialise on an advisory run lock:
        # a second process arriving mid-compute blocks (bounded), then
        # finds the finished result committed and warm-loads it instead
        # of duplicating the descent.  A crashed owner's lock is
        # reclaimed by stale-pid detection inside ``lock``.
        run_lock = (
            artifacts.lock(digest, "run-%s" % runkey)
            if artifacts is not None and runkey is not None
            else nullcontext()
        )
        # ``activate`` makes the governor discoverable (via
        # ``current_governor``) to the sparse merge hooks without
        # threading it through every signature.
        with run_lock, activate(governor):
            if artifacts is not None and runkey is not None:
                with measure("store_load"):
                    warm = _result_from_store(
                        artifacts, digest, runkey, machines, product, target_dmin
                    )
                if warm is not None:
                    return warm

            if product is None and artifacts is not None:
                with measure("store_load"):
                    product = artifacts.load_product(digest, machines)
            if product is None:
                with measure("product_build"):
                    product = CrossProduct(machines)
                if artifacts is not None:
                    with measure("store_commit"):
                        artifacts.save_product(digest, product)
            top = product.machine

            with measure("graph_assemble"):
                # The cap tells a sparse graph which weights Algorithm 2 will
                # ask about exactly: everything up to the target dmin.
                graph = FaultGraph.from_cross_product(
                    product, weight_cap=target_dmin + 1
                )
            persisted_caps: set = set()
            if artifacts is not None:
                # Seed the graph's ledger builder before any ball runs;
                # a warm cap makes the matching ``dmin`` escalation free.
                with measure("store_load"):
                    ledgers = artifacts.load_base_ledgers(digest)
                for cap in sorted(ledgers):
                    if graph.seed_base_ledger(ledgers[cap]):
                        persisted_caps.add(cap)
            with measure("graph_assemble"):
                for backup in existing_backups:
                    graph = graph.with_partition(
                        partition_from_machine(top, backup), name=backup.name
                    )

            def commit_new_ledgers() -> None:
                """Persist base ledgers built since the last sweep."""
                if artifacts is None:
                    return
                built = graph.built_base_ledgers()
                for cap in sorted(built):
                    if cap in persisted_caps:
                        continue
                    with measure("store_commit"):
                        artifacts.save_base_ledger(digest, built[cap])
                    persisted_caps.add(cap)

            with measure("ledger_build"):
                # dmin is lazy; computing it here charges the sparse pair
                # ledger's Hamming ball (or the dense condensed-vector
                # min) to this stage instead of leaking it into unmeasured
                # time.  Later escalations and per-backup updates reuse this
                # build through the graph's LedgerBuilder.
                initial_dmin = graph.dmin()
            commit_new_ledgers()

            needed = max(0, target_dmin - initial_dmin)
            if max_backups is not None and needed > max_backups:
                raise FusionExistenceError(
                    "no (%d, %d)-fusion exists: dmin(A)=%d so at least %d backups are required "
                    "(Theorem 4: m + dmin(A) > f)"
                    % (crash_equivalent_f, max_backups, initial_dmin, needed)
                )

            new_partitions: List[Partition] = []
            new_machines: List[DFSM] = []
            while graph.dmin() <= crash_equivalent_f:
                backup_index = len(new_machines)
                chosen: Optional[Partition] = None
                checkpoint = None
                if artifacts is not None and runkey is not None:
                    # A finished backup from an earlier (killed) run skips
                    # its descent outright; otherwise a level checkpoint
                    # resumes the walk from the last committed level.
                    with measure("store_load"):
                        labels = artifacts.load_backup(digest, runkey, backup_index)
                    if labels is not None and labels.shape == (top.num_states,):
                        chosen = Partition(np.asarray(labels))
                if chosen is None:
                    resume = None
                    if artifacts is not None and runkey is not None:
                        with measure("store_load"):
                            saved = artifacts.load_checkpoint(
                                digest, runkey, backup_index
                            )
                        if saved is not None and saved[1].shape == (top.num_states,):
                            resume = saved
                            artifacts.stats.resumed_levels += int(saved[0])

                        def checkpoint(
                            level: int, labels: np.ndarray, _index: int = backup_index
                        ) -> None:
                            with measure("store_commit"):
                                artifacts.save_checkpoint(
                                    digest, runkey, _index, level, labels
                                )

                    with measure("descent"):
                        chosen = _descend(
                            top,
                            graph,
                            strategy_fn,
                            stopwatch=stopwatch,
                            checkpoint=checkpoint,
                            resume=resume,
                        )
                    if artifacts is not None and runkey is not None:
                        with measure("store_commit"):
                            artifacts.save_backup(
                                digest, runkey, backup_index, chosen.labels
                            )
                name = "%s%d" % (
                    name_prefix,
                    len(existing_backups) + len(new_machines) + 1,
                )
                machine = machine_from_partition(top, chosen, name=name)
                graph = graph.with_partition(chosen, name=name)
                new_partitions.append(chosen)
                new_machines.append(machine)
            commit_new_ledgers()

            final_dmin = graph.dmin()
            if artifacts is not None and runkey is not None:
                with measure("store_commit"):
                    artifacts.save_result(
                        digest,
                        runkey,
                        {
                            "f": crash_equivalent_f,
                            "initial_dmin": initial_dmin,
                            "final_dmin": final_dmin,
                            "names": [m.name for m in new_machines],
                        },
                        [p.labels for p in new_partitions],
                    )

            return FusionResult(
                originals=tuple(machines),
                backups=tuple(existing_backups) + tuple(new_machines),
                partitions=tuple(
                    partition_from_machine(top, b) for b in existing_backups
                )
                + tuple(new_partitions),
                product=product,
                graph=graph,
                f=crash_equivalent_f,
                initial_dmin=initial_dmin,
                final_dmin=final_dmin,
            )
    finally:
        if artifacts is not None and stopwatch is not None:
            stopwatch.accumulate("store", **artifacts.stats.as_counters())
        _finish_resources()


def generate_byzantine_fusion(
    machines: Sequence[DFSM], f: int, **kwargs
) -> FusionResult:
    """Generate backups tolerating ``f`` *Byzantine* faults (``dmin > 2 f``)."""
    return generate_fusion(machines, f, byzantine=True, **kwargs)


# ----------------------------------------------------------------------
# Predicates over fusions
# ----------------------------------------------------------------------
def is_fusion(
    machines: Sequence[DFSM],
    backups: Sequence[DFSM],
    f: int,
    product: Optional[CrossProduct] = None,
) -> bool:
    """Definition 5: true iff ``backups`` is an (f, len(backups))-fusion of ``machines``."""
    if product is None:
        product = CrossProduct(machines)
    graph = FaultGraph.from_cross_product(product, weight_cap=f + 2)
    top = product.machine
    for backup in backups:
        graph = graph.with_partition(partition_from_machine(top, backup), name=backup.name)
    return graph.dmin() > f


def fusion_machine_count(result: FusionResult) -> int:
    """Number of backup machines in a :class:`FusionResult` (``m``)."""
    return result.num_backups


def fusion_state_space(backups: Sequence[DFSM]) -> int:
    """The paper's ``|Fusion|`` metric: the product of backup machine sizes."""
    space = 1
    for backup in backups:
        space *= backup.num_states
    return space


def fusion_order_leq(
    first: Sequence[DFSM],
    second: Sequence[DFSM],
    top: DFSM,
) -> bool:
    """Definition 6: true iff fusion ``first`` <= fusion ``second``.

    ``first <= second`` holds when the machines of ``second`` can be
    ordered as ``G1..Gm`` with ``F_i <= G_i`` for every ``i`` (machine
    order, i.e. partition order over ``top``).  The strictness condition
    of the paper (at least one strict inequality) is *not* required here;
    use ``fusion_order_leq(a, b, top) and not fusion_order_leq(b, a, top)``
    for the strict order.

    The ordering requirement is a perfect-matching problem on the
    bipartite "F_i <= G_j" relation, solved with Hopcroft–Karp via
    networkx.
    """
    if len(first) != len(second):
        return False
    if not first:
        return True
    import networkx as nx

    first_partitions = [partition_from_machine(top, m) for m in first]
    second_partitions = [partition_from_machine(top, m) for m in second]
    graph = nx.Graph()
    left = [("F", i) for i in range(len(first))]
    right = [("G", j) for j in range(len(second))]
    graph.add_nodes_from(left, bipartite=0)
    graph.add_nodes_from(right, bipartite=1)
    for i, fp in enumerate(first_partitions):
        for j, gp in enumerate(second_partitions):
            if fp <= gp:
                graph.add_edge(("F", i), ("G", j))
    matching = nx.bipartite.maximum_matching(graph, top_nodes=left)
    matched = sum(1 for node in left if node in matching)
    return matched == len(first)


def check_subset_theorem(
    machines: Sequence[DFSM],
    backups: Sequence[DFSM],
    f: int,
    t: int,
    product: Optional[CrossProduct] = None,
) -> bool:
    """Theorem 3: every (m - t)-subset of an (f, m)-fusion is an (f - t, m - t)-fusion.

    Verifies the statement for *all* subsets of size ``m - t``; returns
    False as soon as one subset fails.  Intended for tests and small
    systems (the number of subsets is combinatorial).
    """
    from itertools import combinations

    if t > min(f, len(backups)):
        raise ValueError("t must satisfy t <= min(f, m)")
    if not is_fusion(machines, backups, f, product=product):
        raise FusionError("the given backups are not an (f, m)-fusion to begin with")
    if product is None:
        product = CrossProduct(machines)
    keep = len(backups) - t
    for subset in combinations(backups, keep):
        if not is_fusion(machines, subset, f - t, product=product):
            return False
    return True
