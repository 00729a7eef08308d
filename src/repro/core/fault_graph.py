"""Fault graphs and the minimum Hamming distance ``dmin`` (Section 3).

The fault graph ``G(T, M)`` of a machine set ``M`` with respect to a
machine ``T`` (with every ``M_i <= T``) is the complete weighted graph on
``T``'s states in which the weight of edge ``(ti, tj)`` is the number of
machines in ``M`` that place ``ti`` and ``tj`` in distinct blocks of
their closed partitions.  The smallest edge weight, ``dmin(T, M)``,
determines the fault tolerance of the set:

* up to ``dmin - 1`` crash faults (Theorem 1 / Observation 1);
* up to ``floor((dmin - 1) / 2)`` Byzantine faults (Theorem 2).

Two storage engines back the same public API:

**Dense (condensed) mode** — the default for small tops.  Edge weights
are stored *condensed*: a single vector with one entry per unordered
state pair ``(i, j)``, ``i < j``, indexed by the shared upper-triangular
index arrays of :func:`condensed_indices`.  Folding in a machine,
recomputing ``dmin`` and listing the weakest edges are single vectorised
passes over that vector.

**Sparse (ledger) mode** — automatic above
:data:`SPARSE_STATE_CUTOFF` states (or on request).  The condensed
vector is ``O(n^2)`` and caps ``|top|`` at a few thousand states, but the
fusion algorithm only ever consumes the *low-weight* end of the spectrum
(``dmin`` and the weakest edges).  Sparse mode therefore stores a
:class:`repro.core.sparse.PairLedger`: exact weights for every pair
below a cap, found by a recursive pigeonhole join over machine groups
in ``O(nnz)``, with the cap escalated on the rare occasions a caller
asks about heavier edges — incrementally, through the chain-shared
:class:`repro.core.sparse.LedgerBuilder`: only the base machines are
re-joined (cached per cap) and machines added since are folded back in,
never a full rebuild.  All answers remain exact —
the two modes are byte-identical, which
``tests/property/test_vectorized_equivalence.py`` checks on random
machines.

In both modes the class is immutable; :meth:`with_partition` returns a
new graph with one more machine folded in, reusing the parent's vector
or ledger, and derived quantities (``dmin``, the weakest edges) are
cached per instance — immutability makes the caches trivially valid.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .dfsm import DFSM
from .exceptions import PartitionError
from .partition import Partition, partition_from_machine
from .product import CrossProduct
from .shm import SharedWorkerPool
from .sparse import LedgerBuilder, PairLedger, condensed_indices
from .types import StateLabel, narrow_key_dtype

__all__ = [
    "DENSE_EXPORT_LIMIT",
    "FaultGraph",
    "SPARSE_STATE_CUTOFF",
    "build_fault_graph",
    "condensed_indices",
    "dmin_of_machines",
    "separation_matrix",
]

EdgeKey = Tuple[int, int]

#: Above this many top states, ``mode="auto"`` picks the sparse ledger
#: engine; at or below it, the dense condensed vector (whose ``O(n^2)``
#: cost is negligible there) is kept for exact behavioural continuity
#: with the previous engine.
SPARSE_STATE_CUTOFF = 4096

#: Sparse graphs at or below this many states may still materialise the
#: dense condensed vector on demand (exports, uniform-graph weakest
#: edges); above it those operations raise instead of allocating the
#: ``O(n^2)`` structures the sparse engine exists to avoid.
DENSE_EXPORT_LIMIT = 4096

#: Ledger cap used when the caller gives no ``weight_cap`` hint: exact
#: weights for every pair lighter than this, escalated on demand.
_DEFAULT_WEIGHT_CAP = 4


def separation_matrix(partition: Partition) -> np.ndarray:
    """Boolean matrix ``S`` with ``S[i, j]`` true iff the partition separates i and j.

    This is the single-machine fault graph: a machine covers edge
    ``(ti, tj)`` exactly when its closed partition places the two top
    states in different blocks.
    """
    labels = partition.labels
    return labels[:, None] != labels[None, :]


def _condensed_separation(partition: Partition, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Condensed form of :func:`separation_matrix`: one bool per pair ``i < j``."""
    labels = partition.labels
    return labels[rows] != labels[cols]


class _LabelIndex:
    """``{label: index}`` over a graph's state labels, built on first use.

    Only edge addressing by label reads it, so the dict and the scan for
    integer labels wait for the first lookup; every graph derived through
    :meth:`FaultGraph.with_partition` shares its parent's instance, so a
    whole chain builds it at most once.
    """

    __slots__ = ("_labels", "_index", "has_integer_labels")

    def __init__(self, labels: Tuple[StateLabel, ...]) -> None:
        self._labels = labels
        self._index: Optional[Dict[StateLabel, int]] = None
        self.has_integer_labels = False

    def get(self, state: object) -> Optional[int]:
        """Index of the label ``state``, or ``None`` if it is not one."""
        if self._index is None:
            self._index = {s: i for i, s in enumerate(self._labels)}
            self.has_integer_labels = any(
                isinstance(label, (int, np.integer)) for label in self._labels
            )
        try:
            return self._index.get(state)
        except TypeError:  # unhashable input can never be a label
            return None


class FaultGraph:
    """The weighted fault graph ``G(T, M)`` of Definition 3.

    Parameters
    ----------
    num_states:
        Number of states of the reference machine ``T`` (the top).
    partitions:
        Closed partitions of ``T``'s state set, one per machine in ``M``.
    state_labels:
        Optional labels of ``T``'s states, used when edges are addressed
        by label instead of index.
    machine_names:
        Optional display names, parallel to ``partitions``.
    mode:
        ``"auto"`` (default) — dense condensed storage up to
        :data:`SPARSE_STATE_CUTOFF` states, the sparse ledger above;
        ``"dense"`` / ``"sparse"`` force an engine regardless of size.
    weight_cap:
        Sparse mode only: build the ledger to answer weights below this
        cap exactly (Algorithm 2 passes its target ``dmin`` plus one).
        Heavier queries trigger an escalating rebuild; answers are exact
        either way.
    pool:
        Sparse mode only: an optional
        :class:`repro.core.shm.SharedWorkerPool` the ledger joins fan
        out over (label arrays published once via shared memory).  The
        caller owns the pool's lifetime; after it closes, this graph
        falls back to serial joins.  Results are byte-identical with or
        without a pool.

    The class is immutable; :meth:`with_partition` returns a new graph
    with one more machine folded in (reusing the existing condensed
    weight vector or sparse ledger).  Derived quantities (``dmin``, the
    weakest edges, the dense weight matrix) are computed lazily and
    cached per instance — immutability makes the caches trivially valid,
    and the incremental constructors hand the next graph ready-made
    storage, so cache "invalidation" is simply a fresh object.
    """

    __slots__ = (
        "_n",
        "_condensed",
        "_ledger",
        "_builder",
        "_base_count",
        "_sparse",
        "_weight_cap",
        "_partitions",
        "_names",
        "_labels",
        "_label_index",
        "_dmin",
        "_weak_rows",
        "_weak_cols",
        "_weak_keys",
        "_dense",
    )

    def __init__(
        self,
        num_states: int,
        partitions: Sequence[Partition] = (),
        state_labels: Optional[Sequence[StateLabel]] = None,
        machine_names: Optional[Sequence[str]] = None,
        mode: str = "auto",
        weight_cap: Optional[int] = None,
        pool: Optional[SharedWorkerPool] = None,
        _weights: Optional[np.ndarray] = None,
        _condensed: Optional[np.ndarray] = None,
        _ledger: Optional[PairLedger] = None,
        _builder: Optional[LedgerBuilder] = None,
        _base_count: Optional[int] = None,
        _label_rows: Optional[Sequence[np.ndarray]] = None,
        _label_index: Optional[_LabelIndex] = None,
    ) -> None:
        if num_states <= 0:
            raise PartitionError("a fault graph needs at least one state")
        if mode not in ("auto", "dense", "sparse"):
            raise PartitionError("unknown fault-graph mode %r" % (mode,))
        self._n = int(num_states)
        self._partitions: Tuple[Partition, ...] = tuple(partitions)
        for p in self._partitions:
            if p.num_elements != self._n:
                raise PartitionError(
                    "partition over %d elements does not match %d top states"
                    % (p.num_elements, self._n)
                )
        if machine_names is None:
            machine_names = tuple("M%d" % i for i in range(len(self._partitions)))
        if len(machine_names) != len(self._partitions):
            raise PartitionError("machine_names length must match partitions length")
        self._names: Tuple[str, ...] = tuple(machine_names)
        if state_labels is not None and len(state_labels) != self._n:
            raise PartitionError("state_labels length must match num_states")
        self._labels: Optional[Tuple[StateLabel, ...]] = (
            tuple(state_labels) if state_labels is not None else None
        )
        if _label_index is None and self._labels is not None:
            _label_index = _LabelIndex(self._labels)
        self._label_index: Optional[_LabelIndex] = _label_index

        self._sparse = mode == "sparse" or (
            mode == "auto" and self._n > SPARSE_STATE_CUTOFF
        )
        self._weight_cap = int(weight_cap) if weight_cap is not None else _DEFAULT_WEIGHT_CAP
        if self._weight_cap < 1:
            raise PartitionError("weight_cap must be at least 1")
        self._ledger: Optional[PairLedger] = _ledger
        if self._sparse:
            # The builder is the shared join substrate of a whole
            # ``with_partition`` chain: the *base* machines (this graph's
            # partitions, for a fresh graph) are joined at most once per
            # cap, and descendants treat their added backups as fold
            # deltas on top (see :meth:`_ensure_ledger`).  Construction
            # is free — no join runs until a weight query needs one.
            self._builder = (
                _builder
                if _builder is not None
                else LedgerBuilder(
                    self._partitions, self._n, pool=pool, label_rows=_label_rows
                )
            )
            self._base_count = (
                int(_base_count) if _base_count is not None else len(self._partitions)
            )
        else:
            self._builder = None
            self._base_count = 0
        self._condensed: Optional[np.ndarray] = None
        if not self._sparse:
            rows, cols = condensed_indices(self._n)
            if _condensed is not None:
                condensed = np.asarray(_condensed, dtype=np.int64)
            elif _weights is not None:
                dense = np.asarray(_weights, dtype=np.int64)
                condensed = dense[rows, cols].copy()
            else:
                condensed = np.zeros(rows.size, dtype=np.int64)
                for partition in self._partitions:
                    condensed += _condensed_separation(partition, rows, cols)
            if condensed.shape != rows.shape:
                raise PartitionError(
                    "condensed weight vector has %d entries, expected %d"
                    % (condensed.size, rows.size)
                )
            condensed.setflags(write=False)
            self._condensed = condensed
        elif _weights is not None or _condensed is not None:
            raise PartitionError("dense weight inputs cannot seed a sparse graph")

        # Lazily-computed caches (valid forever: the graph is immutable).
        self._dmin: Optional[int] = None
        self._weak_rows: Optional[np.ndarray] = None
        self._weak_cols: Optional[np.ndarray] = None
        self._weak_keys: Optional[np.ndarray] = None
        self._dense: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_machines(
        cls,
        top: DFSM,
        machines: Sequence[DFSM],
        mode: str = "auto",
        weight_cap: Optional[int] = None,
        pool: Optional[SharedWorkerPool] = None,
    ) -> "FaultGraph":
        """Build ``G(top, machines)`` from DFSMs, using Algorithm 1 for each.

        Every machine must be less than or equal to ``top``.
        """
        partitions = [partition_from_machine(top, m) for m in machines]
        return cls(
            top.num_states,
            partitions,
            state_labels=top.states,
            machine_names=[m.name for m in machines],
            mode=mode,
            weight_cap=weight_cap,
            pool=pool,
        )

    @classmethod
    def from_cross_product(
        cls,
        product: CrossProduct,
        mode: str = "auto",
        weight_cap: Optional[int] = None,
        pool: Optional[SharedWorkerPool] = None,
    ) -> "FaultGraph":
        """Fault graph of the component machines of a :class:`CrossProduct`.

        Uses the product's cached component partitions directly, avoiding
        both the lockstep walks of Algorithm 1 and re-canonicalising the
        projections on every fusion call; a sparse graph's ledger joins
        likewise reuse the product's cached narrow label matrix
        (:meth:`CrossProduct.component_label_matrix`).
        """
        return cls(
            product.num_states,
            product.component_partitions(),
            state_labels=product.machine.states,
            machine_names=[m.name for m in product.components],
            mode=mode,
            weight_cap=weight_cap,
            pool=pool,
            _label_rows=product.component_label_matrix(),
        )

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_states(self) -> int:
        """Number of nodes (states of ``T``)."""
        return self._n

    @property
    def num_machines(self) -> int:
        """Number of machines folded into the edge weights."""
        return len(self._partitions)

    @property
    def partitions(self) -> Tuple[Partition, ...]:
        return self._partitions

    @property
    def machine_names(self) -> Tuple[str, ...]:
        return self._names

    @property
    def is_sparse(self) -> bool:
        """True when this graph runs on the sparse ledger engine."""
        return self._sparse

    @property
    def ledger(self) -> Optional[PairLedger]:
        """The sparse pair ledger, if one has been materialised yet.

        ``None`` for dense graphs and for sparse graphs that have not
        answered a weight query so far.  Exposed for benchmarks and
        tests (``ledger.nnz`` is the "O(nnz)" the engine actually pays).
        """
        return self._ledger

    @property
    def condensed_weights(self) -> np.ndarray:
        """Edge weights as a read-only vector over all pairs ``i < j``.

        Paired with :func:`condensed_indices`; this is the dense storage
        format and the cheapest way to scan every edge.  In sparse mode
        the vector is materialised on demand for graphs up to
        :data:`SPARSE_STATE_CUTOFF` states and refused above it (it would
        be the very ``O(n^2)`` allocation sparse mode exists to avoid).
        """
        return self._condensed_or_raise()

    @property
    def weight_matrix(self) -> np.ndarray:
        """The symmetric ``(n, n)`` edge-weight matrix (read-only).

        Reconstructed from the condensed vector on first access and
        cached; the diagonal is meaningless (a state is never "separated"
        from itself) and always zero.  Subject to the same sparse-mode
        size limit as :attr:`condensed_weights`.
        """
        if self._dense is None:
            condensed = self._condensed_or_raise()
            rows, cols = condensed_indices(self._n)
            dense = np.zeros((self._n, self._n), dtype=np.int64)
            dense[rows, cols] = condensed
            dense[cols, rows] = condensed
            dense.setflags(write=False)
            self._dense = dense
        return self._dense

    @property
    def state_labels(self) -> Optional[Tuple[StateLabel, ...]]:
        return self._labels

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "FaultGraph(states=%d, machines=%d, dmin=%d%s)" % (
            self._n,
            self.num_machines,
            self.dmin() if self._n > 1 else 0,
            ", sparse" if self._sparse else "",
        )

    # ------------------------------------------------------------------
    # Sparse internals
    # ------------------------------------------------------------------
    def _condensed_or_raise(self) -> np.ndarray:
        """The condensed vector, materialising it for small sparse graphs."""
        if self._condensed is not None:
            return self._condensed
        if self._n > DENSE_EXPORT_LIMIT:
            raise PartitionError(
                "dense edge enumeration over %d states is disabled in sparse "
                "mode (it would allocate the O(n^2) vector the sparse engine "
                "avoids); use dmin()/weakest_edge_arrays()/edges_below()"
                % self._n
            )
        rows, cols = condensed_indices(self._n)
        condensed = np.zeros(rows.size, dtype=np.int64)
        for partition in self._partitions:
            condensed += _condensed_separation(partition, rows, cols)
        condensed.setflags(write=False)
        self._condensed = condensed
        return condensed

    def _ensure_ledger(self, min_cap: Optional[int] = None) -> PairLedger:
        """The pair ledger, (re)built so its cap is at least ``min_cap``.

        Caps are clamped to the machine count (a pair can be separated at
        most ``m`` times, so ``cap == m`` already classifies every pair).

        (Re)builds are incremental: the shared :class:`LedgerBuilder`
        joins only the *base* machines — a cached result after the first
        time any graph in this ``with_partition`` chain asked for that
        cap — and the partitions added since (the backups of a running
        fusion) are folded in with one vectorised pass each.  A pair's
        total weight is at least its base weight, so the base ledger at
        ``cap`` contains every pair the folded ledger keeps, and folding
        is exact: the result is byte-identical to a from-scratch join
        over all machines (property-tested).
        """
        num_machines = self.num_machines
        wanted = max(self._weight_cap, min_cap or 1)
        wanted = min(wanted, num_machines)
        ledger = self._ledger
        if ledger is None or ledger.cap < wanted:
            if self._builder is not None and 0 < wanted <= self._base_count:
                ledger = self._builder.ledger(
                    wanted, self._partitions[self._base_count :]
                )
            else:
                # More exactness wanted than the base machines can
                # pigeonhole (cap must stay ≤ the join's machine count):
                # fall back to the full join over every partition.
                ledger = PairLedger.from_partitions(self._partitions, self._n, wanted)
            self._ledger = ledger
        return ledger

    def seed_base_ledger(self, ledger: PairLedger) -> bool:
        """Adopt a warm base ledger into the shared builder (sparse mode).

        Called by the artifact store before the first weight query so a
        resumed or warm-cache fusion skips the pigeonhole join for caps
        already on disk.  No-op (False) on dense graphs or mismatched
        ledgers; exactness is unaffected either way — a seeded ledger is
        byte-identical to the join it replaces.
        """
        if not self._sparse or self._builder is None:
            return False
        return self._builder.seed(ledger)

    def built_base_ledgers(self) -> Dict[int, PairLedger]:
        """The base ledgers the shared builder has materialised, by cap."""
        if not self._sparse or self._builder is None:
            return {}
        return self._builder.built()

    def _sparse_dmin(self) -> int:
        num_machines = self.num_machines
        if num_machines == 0:
            return 0  # no machine separates anything: every weight is zero
        ledger = self._ensure_ledger()
        while True:
            least = ledger.min_weight()
            if least is not None:
                return least
            if ledger.cap >= num_machines:
                # Nothing below cap == m, and no weight exceeds m.
                return num_machines
            ledger = self._ensure_ledger(min_cap=min(num_machines, ledger.cap * 2))

    def _all_pairs_or_raise(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every pair — only legal where the dense layout would be, too."""
        if self._n > DENSE_EXPORT_LIMIT:
            raise PartitionError(
                "every state pair qualifies (the graph is uniformly weighted); "
                "enumerating all %d^2/2 pairs is disabled in sparse mode" % self._n
            )
        return condensed_indices(self._n)

    # ------------------------------------------------------------------
    # Edge addressing
    # ------------------------------------------------------------------
    def _resolve(self, state: Union[int, StateLabel]) -> int:
        label_index = self._label_index
        if label_index is not None:
            hit = label_index.get(state)
            if hit is not None:
                return hit
            if isinstance(state, (int, np.integer)):
                if label_index.has_integer_labels:
                    # Some labels are integers, so an integer that is not
                    # itself a label is ambiguous: silently treating it as
                    # an index would shadow the label namespace.
                    raise PartitionError(
                        "state %r is not a label of this graph; its labels are "
                        "integers, so indices cannot be used unambiguously" % (state,)
                    )
                index = int(state)
                if not 0 <= index < self._n:
                    raise PartitionError("state index %d out of range" % index)
                return index
            raise PartitionError("unknown state %r" % (state,))
        if isinstance(state, (int, np.integer)):
            index = int(state)
            if not 0 <= index < self._n:
                raise PartitionError("state index %d out of range" % index)
            return index
        raise PartitionError(
            "fault graph has no state labels; address edges by index"
        )

    def _pair_offset(self, i: int, j: int) -> int:
        """Offset of the pair ``(i, j)``, ``i < j``, in the condensed vector."""
        return i * (2 * self._n - i - 1) // 2 + (j - i - 1)

    def distance(self, a: Union[int, StateLabel], b: Union[int, StateLabel]) -> int:
        """The distance ``d(ti, tj)`` of Definition 4 (the edge weight)."""
        ia, ib = self._resolve(a), self._resolve(b)
        if ia == ib:
            return 0
        if ia > ib:
            ia, ib = ib, ia
        if self._condensed is not None:
            return int(self._condensed[self._pair_offset(ia, ib)])
        # Sparse mode: one O(m) pass over the partitions, no pair vector.
        return sum(1 for p in self._partitions if p.labels[ia] != p.labels[ib])

    weight = distance

    def edges(self) -> List[Tuple[int, int, int]]:
        """All edges as ``(i, j, weight)`` with ``i < j``.

        Dense enumeration — subject to the sparse-mode size limit of
        :attr:`condensed_weights`.
        """
        condensed = self._condensed_or_raise()
        rows, cols = condensed_indices(self._n)
        return list(zip(rows.tolist(), cols.tolist(), condensed.tolist()))

    # ------------------------------------------------------------------
    # dmin and weakest edges
    # ------------------------------------------------------------------
    def dmin(self) -> int:
        """The least edge weight ``dmin(T, M)`` (cached after first call).

        A graph with a single node has no edges; by convention its dmin is
        reported as the number of machines (every machine trivially
        "identifies" the only state), which keeps Theorems 1 and 2 true in
        the degenerate case.
        """
        if self._n == 1:
            return self.num_machines
        if self._dmin is None:
            if self._sparse:
                self._dmin = self._sparse_dmin()
            else:
                self._dmin = int(self._condensed.min())
        return self._dmin

    def weakest_edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """The weakest edges as two parallel index arrays (cached).

        ``(rows, cols)`` with ``rows[k] < cols[k]`` and
        ``weight(rows[k], cols[k]) == dmin()`` — the form the fusion
        descent consumes directly for vectorised separation checks.  Both
        engines return the same arrays in the same (condensed) order.
        """
        if self._weak_rows is None:
            if self._n == 1:
                self._weak_rows = np.empty(0, dtype=np.int64)
                self._weak_cols = np.empty(0, dtype=np.int64)
            elif self._sparse:
                least = self.dmin()
                if self.num_machines == 0 or least >= self.num_machines:
                    # Uniform graph: every pair is weakest.
                    rows, cols = self._all_pairs_or_raise()
                    self._weak_rows, self._weak_cols = rows, cols
                else:
                    ledger = self._ensure_ledger()
                    rows, cols = ledger.pairs_with_weight(least)
                    rows.setflags(write=False)
                    cols.setflags(write=False)
                    self._weak_rows, self._weak_cols = rows, cols
            else:
                rows, cols = condensed_indices(self._n)
                mask = self._condensed == self.dmin()
                self._weak_rows = rows[mask]
                self._weak_cols = cols[mask]
                self._weak_rows.setflags(write=False)
                self._weak_cols.setflags(write=False)
        return self._weak_rows, self._weak_cols  # type: ignore[return-value]

    def weakest_edge_keys(self) -> np.ndarray:
        """The weakest edges as sorted canonical keys ``i * num_states + j``.

        The quotient hand-off to the lattice descent's pruning engine
        (:class:`repro.core.sparse.DoomedPairEngine`): at the identity
        level the quotient's block ids *are* the top-state ids, so this
        array seeds the level-0 doomed set directly, with no per-descent
        re-projection.  Both engines emit the weakest edges in condensed
        order, so the keys come back sorted and unique (cached), in the
        narrow key dtype of the state count
        (:func:`repro.core.types.narrow_key_dtype`).
        """
        if self._weak_keys is None:
            rows, cols = self.weakest_edge_arrays()
            key_dtype = narrow_key_dtype(self._n)
            keys = rows.astype(key_dtype) * self._n + cols.astype(key_dtype)
            keys.setflags(write=False)
            self._weak_keys = keys
        return self._weak_keys

    def weakest_edges(self) -> List[EdgeKey]:
        """Edges (as ``(i, j)`` index pairs, i < j) whose weight equals dmin."""
        rows, cols = self.weakest_edge_arrays()
        return list(zip(rows.tolist(), cols.tolist()))

    def edges_below(self, threshold: int) -> List[EdgeKey]:
        """Edges with weight strictly less than ``threshold``."""
        if self._n == 1 or threshold <= 0:
            return []
        if self._sparse:
            num_machines = self.num_machines
            if threshold > num_machines:
                # Every pair weighs at most m, so every pair qualifies.
                rows, cols = self._all_pairs_or_raise()
            else:
                ledger = self._ensure_ledger(min_cap=threshold)
                rows, cols = ledger.pairs_below(threshold)
            return list(zip(rows.tolist(), cols.tolist()))
        rows, cols = condensed_indices(self._n)
        mask = self._condensed < threshold
        return list(zip(rows[mask].tolist(), cols[mask].tolist()))

    # ------------------------------------------------------------------
    # Incremental updates (used by Algorithm 2)
    # ------------------------------------------------------------------
    def with_partition(self, partition: Partition, name: Optional[str] = None) -> "FaultGraph":
        """Return a new graph with one more machine's partition folded in.

        The new graph's storage is the parent's plus one vectorised
        same-block comparison — over the full condensed vector in dense
        mode, over the ledger's ``nnz`` stored pairs in sparse mode —
        nothing is rebuilt from the machine list.
        """
        if partition.num_elements != self._n:
            raise PartitionError(
                "partition over %d elements does not match %d top states"
                % (partition.num_elements, self._n)
            )
        name_tuple = self._names + ((name or "M%d" % self.num_machines),)
        if self._sparse:
            folded = self._ledger.fold(partition.labels) if self._ledger is not None else None
            return FaultGraph(
                self._n,
                self._partitions + (partition,),
                state_labels=self._labels,
                machine_names=name_tuple,
                mode="sparse",
                weight_cap=self._weight_cap,
                _ledger=folded,
                _builder=self._builder,
                _base_count=self._base_count,
                _label_index=self._label_index,
            )
        rows, cols = condensed_indices(self._n)
        new_condensed = self._condensed + _condensed_separation(partition, rows, cols)
        return FaultGraph(
            self._n,
            self._partitions + (partition,),
            state_labels=self._labels,
            machine_names=name_tuple,
            mode="dense",
            weight_cap=self._weight_cap,
            _condensed=new_condensed,
            _label_index=self._label_index,
        )

    def dmin_with(self, partition: Partition) -> int:
        """``dmin`` of the graph that *would* result from adding ``partition``.

        Cheaper than :meth:`with_partition` + :meth:`dmin` because no new
        graph object is allocated; Algorithm 2 calls this for every
        candidate in a lower cover.  In sparse mode the common case is a
        single vectorised pass over the ledger; only when every stored
        pair would cross the cap does it fall back to building the child
        graph (whose escalation then computes the exact answer).
        """
        if partition.num_elements != self._n:
            raise PartitionError(
                "partition over %d elements does not match %d top states"
                % (partition.num_elements, self._n)
            )
        if self._n == 1:
            return self.num_machines + 1
        if self._sparse:
            if self.num_machines == 0:
                return self.with_partition(partition).dmin()
            ledger = self._ensure_ledger()
            least = ledger.fold_min(partition.labels)
            if least is not None:
                return least
            return self.with_partition(partition).dmin()
        rows, cols = condensed_indices(self._n)
        return int((self._condensed + _condensed_separation(partition, rows, cols)).min())

    def covers(self, partition: Partition, edges: Iterable[EdgeKey]) -> bool:
        """True if ``partition`` separates every edge in ``edges``."""
        pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
        if pairs.size == 0:
            return True
        labels = partition.labels
        return bool((labels[pairs[:, 0]] != labels[pairs[:, 1]]).all())

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def to_networkx(self):
        """Export as a ``networkx.Graph`` with ``weight`` edge attributes."""
        import networkx as nx

        graph = nx.Graph()
        for i in range(self._n):
            graph.add_node(i, label=self._labels[i] if self._labels else i)
        for i, j, w in self.edges():
            graph.add_edge(i, j, weight=w)
        return graph

    def as_label_dict(self) -> Dict[Tuple[StateLabel, StateLabel], int]:
        """Edge weights keyed by (label, label) pairs, for reporting."""
        if self._labels is None:
            raise PartitionError("fault graph has no state labels")
        return {
            (self._labels[i], self._labels[j]): w for i, j, w in self.edges()
        }


def build_fault_graph(top: DFSM, machines: Sequence[DFSM]) -> FaultGraph:
    """Convenience alias for :meth:`FaultGraph.from_machines`."""
    return FaultGraph.from_machines(top, machines)


def dmin_of_machines(top: DFSM, machines: Sequence[DFSM]) -> int:
    """``dmin(top, machines)`` computed directly from DFSMs."""
    return FaultGraph.from_machines(top, machines).dmin()
