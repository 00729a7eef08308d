"""Reachable cross product of a set of DFSMs (the ``top`` machine).

Section 2 of the paper: given machines ``A1 .. An``, form the machine
whose states are tuples ``(a1, .., an)``, whose alphabet is the union of
the component alphabets and whose transition function applies each event
component-wise (components whose alphabet does not contain the event stay
put).  Restricting to the states reachable from the tuple of initial
states yields ``R(A)``, written ``top`` / ``⊤`` throughout the paper.

Every input machine is less than or equal to ``top`` in the closed
partition order, so knowing the state of ``top`` determines the state of
every component; :class:`CrossProduct` exposes those projections as dense
NumPy arrays, which is what the fault-graph and fusion algorithms consume.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .dfsm import DFSM
from .exceptions import InvalidMachineError, UnknownStateError
from .types import EventLabel, StateLabel, StateTuple, narrow_index_dtype

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .partition import Partition

__all__ = ["CrossProduct", "reachable_cross_product", "merged_alphabet"]

def merged_alphabet(machines: Sequence[DFSM]) -> Tuple[EventLabel, ...]:
    """Union of the machines' alphabets, ordered by first appearance.

    The ordering is deterministic so that repeated constructions of the
    same product index events identically.
    """
    seen: Dict[EventLabel, None] = {}
    for machine in machines:
        for event in machine.events:
            seen.setdefault(event, None)
    return tuple(seen.keys())


class CrossProduct:
    """The reachable cross product of a sequence of DFSMs.

    Besides the product machine itself (available as :attr:`machine`),
    this class retains:

    * the original component machines (:attr:`components`);
    * for each component, the projection from top-state index to
      component-state index (:meth:`projection`), i.e. the closed
      partition of the top state set induced by that component;
    * the tuple label of every top state (:meth:`state_tuple`).

    Parameters
    ----------
    machines:
        The component machines, in a fixed order.  At least one machine
        is required.
    name:
        Display name for the product machine (defaults to ``"top"``).
    """

    __slots__ = (
        "_components",
        "_machine",
        "_projections",
        "_component_partitions",
        "_label_matrix",
    )

    def __init__(
        self,
        machines: Sequence[DFSM],
        name: str = "top",
        _precomputed: Optional[Tuple[np.ndarray, np.ndarray]] = None,
    ) -> None:
        if not machines:
            raise InvalidMachineError("cannot build a cross product of zero machines")
        self._components: Tuple[DFSM, ...] = tuple(machines)
        events = merged_alphabet(self._components)
        initial = tuple(m.initial_index for m in self._components)

        if _precomputed is not None:
            # Warm path (artifact store): the BFS result was loaded from
            # disk; everything after ``_explore`` is a deterministic
            # function of ``(order, table)``, so the rebuilt product is
            # byte-identical to the cold construction.
            order_array = np.ascontiguousarray(_precomputed[0], dtype=np.int64)
            table = np.ascontiguousarray(_precomputed[1], dtype=np.int64)
            if (
                order_array.ndim != 2
                or order_array.shape[1] != len(self._components)
                or table.ndim != 2
                or table.shape != (order_array.shape[0], len(events))
                or order_array.shape[0] == 0
                or tuple(order_array[0].tolist()) != initial
            ):
                raise InvalidMachineError(
                    "precomputed exploration arrays do not match the machine set"
                )
        else:
            # Breadth-first exploration of the reachable tuple space.
            # Tuples are tracked as vectors of component *indices*;
            # labels are only attached for the public API.  Pre-resolve,
            # per event, the transition column of each component (or
            # None when the component ignores the event and stays put).
            event_columns: List[List[Optional[np.ndarray]]] = []
            for event in events:
                cols: List[Optional[np.ndarray]] = []
                for machine in self._components:
                    if machine.has_event(event):
                        cols.append(
                            np.ascontiguousarray(
                                machine.transition_table[:, machine.event_index(event)]
                            )
                        )
                    else:
                        cols.append(None)
                event_columns.append(cols)

            order_array, table = self._explore(initial, event_columns, len(events))

        # Tuple labels are zipped from per-component label columns; the
        # BFS table goes to the table-native constructor as it is.
        columns = [
            map(machine.states.__getitem__, order_array[:, ci].tolist())
            for ci, machine in enumerate(self._components)
        ]
        self._machine = DFSM.from_table(
            table, 0, events, tuple(zip(*columns)), name=name
        )

        # Projections: top-state index -> component-state index.
        projections = order_array.T.copy()
        projections.setflags(write=False)
        self._projections = projections
        self._component_partitions: Optional[Tuple["Partition", ...]] = None
        self._label_matrix: Optional[np.ndarray] = None

    # ------------------------------------------------------------------
    @classmethod
    def from_arrays(
        cls,
        machines: Sequence[DFSM],
        order: np.ndarray,
        table: np.ndarray,
        name: str = "top",
    ) -> "CrossProduct":
        """Rebuild a product from a persisted BFS result.

        ``order`` is the ``(n, num_components)`` reachable tuple array in
        discovery order and ``table`` the ``(n, num_events)`` transition
        table over those state indices — exactly what ``_explore``
        returns and what the artifact store persists.  The result is
        byte-identical to ``CrossProduct(machines, name)``.
        """
        return cls(machines, name=name, _precomputed=(order, table))

    @property
    def exploration_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(order, table)`` — the persistable BFS result.

        ``from_arrays(components, *exploration_arrays)`` reproduces this
        product exactly; the artifact store commits these two arrays.
        """
        return self._projections.T, self._machine.transition_table

    # ------------------------------------------------------------------
    # Reachability exploration
    # ------------------------------------------------------------------
    def _explore(
        self,
        initial: Tuple[int, ...],
        event_columns: List[List[Optional[np.ndarray]]],
        num_events: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Discover the reachable tuple space breadth-first.

        Returns ``(order, table)``: the reachable component-index tuples
        as an ``(n, num_components)`` array in discovery order, and the
        ``(n, num_events)`` transition table over those state indices.

        Dispatches to a frontier-vectorised walk whenever every tuple
        fits a mixed-radix ``int64`` key, falling back to the scalar
        queue walk otherwise.  Both produce byte-identical discovery
        orders: the scalar FIFO walk processes each state completely
        (all events, in order) before the next, so flattening one
        frontier level state-major yields exactly the FIFO order — which
        is what the vectorised walk does.
        """
        sizes = [m.num_states for m in self._components]
        key_space = 1
        for size in sizes:
            key_space *= size
        if key_space <= 2**62:
            return self._explore_vectorized(initial, event_columns, num_events, sizes)
        return self._explore_scalar(initial, event_columns, num_events)

    def _explore_scalar(
        self,
        initial: Tuple[int, ...],
        event_columns: List[List[Optional[np.ndarray]]],
        num_events: int,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Reference queue-driven walk (kept as the huge-key fallback)."""
        index_of: Dict[Tuple[int, ...], int] = {initial: 0}
        order: List[Tuple[int, ...]] = [initial]
        queue: deque[Tuple[int, ...]] = deque([initial])
        transitions_idx: List[List[int]] = []
        while queue:
            current = queue.popleft()
            row: List[int] = []
            for cols in event_columns:
                nxt = tuple(
                    current[ci] if col is None else int(col[current[ci]])
                    for ci, col in enumerate(cols)
                )
                target = index_of.get(nxt)
                if target is None:
                    target = len(order)
                    index_of[nxt] = target
                    order.append(nxt)
                    queue.append(nxt)
                row.append(target)
            transitions_idx.append(row)
        n = len(order)
        table = np.asarray(transitions_idx, dtype=np.int64).reshape(n, num_events)
        return np.asarray(order, dtype=np.int64).reshape(n, len(self._components)), table

    def _explore_vectorized(
        self,
        initial: Tuple[int, ...],
        event_columns: List[List[Optional[np.ndarray]]],
        num_events: int,
        sizes: List[int],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Frontier-level BFS with per-event gathers instead of per-tuple work.

        Each level computes every successor of the whole frontier with
        one NumPy gather per (event, component), encodes tuples as
        mixed-radix ``int64`` keys, and assigns state indices in
        state-major order — the same discovery order as the scalar FIFO
        walk, at a fraction of the per-transition cost.  Newly-discovered
        frontiers are decoded back from their keys (the mixed radix is
        exact).
        """
        num_components = len(self._components)
        multipliers = np.empty(num_components, dtype=np.int64)
        acc = 1
        for ci in range(num_components - 1, -1, -1):
            multipliers[ci] = acc
            acc *= sizes[ci]

        def frontier_keys(frontier: np.ndarray) -> np.ndarray:
            # Accumulate the mixed-radix keys directly per event instead
            # of materialising the (frontier, events, components)
            # successor tensor and matmul-ing it down (hundreds of MB of traffic per level on
            # the big products, for values only needed in key form).
            num_frontier = frontier.shape[0]
            keys = np.empty((num_frontier, num_events), dtype=np.int64)
            for ei, cols in enumerate(event_columns):
                acc = np.zeros(num_frontier, dtype=np.int64)
                for ci, col in enumerate(cols):
                    if col is None:
                        acc += frontier[:, ci] * multipliers[ci]
                    else:
                        acc += col[frontier[:, ci]] * multipliers[ci]
                keys[:, ei] = acc
            return keys.reshape(-1)

        def decode_keys(keys: np.ndarray) -> np.ndarray:
            decoded = np.empty((keys.size, num_components), dtype=np.int64)
            remainder = keys
            for ci in range(num_components):
                decoded[:, ci] = remainder // multipliers[ci]
                remainder = remainder % multipliers[ci]
            return decoded

        frontier = np.asarray(initial, dtype=np.int64).reshape(1, num_components)
        # The discovered key set rides as a sorted array with parallel
        # state ids instead of a Python dict: one searchsorted per level
        # replaces millions of per-key dict probes, and ids are assigned
        # by first appearance in the flattened key sequence — exactly
        # the scalar FIFO walk's numbering.
        known_keys = np.asarray([int(frontier[0] @ multipliers)], dtype=np.int64)
        known_ids = np.zeros(1, dtype=np.int64)
        order_parts: List[np.ndarray] = [frontier]
        table_parts: List[np.ndarray] = []
        while frontier.shape[0]:
            num_frontier = frontier.shape[0]
            keys_array = frontier_keys(frontier)
            pos = np.minimum(
                np.searchsorted(known_keys, keys_array), known_keys.size - 1
            )
            found = known_keys[pos] == keys_array
            targets = np.empty(keys_array.size, dtype=np.int64)
            targets[found] = known_ids[pos[found]]
            unknown_positions = np.flatnonzero(~found)
            if unknown_positions.size:
                unknown_keys = keys_array[unknown_positions]
                uniq, first = np.unique(unknown_keys, return_index=True)
                # Id of each fresh key = number of states known before
                # it + its rank by first appearance in this level.
                ids_sorted = np.empty(uniq.size, dtype=np.int64)
                ids_sorted[np.argsort(first, kind="stable")] = (
                    known_keys.size + np.arange(uniq.size)
                )
                targets[unknown_positions] = ids_sorted[
                    np.searchsorted(uniq, unknown_keys)
                ]
                fresh_positions = np.sort(unknown_positions[first])
                frontier = decode_keys(keys_array[fresh_positions])
                order_parts.append(frontier)
                merge_order = np.argsort(
                    np.concatenate((known_keys, uniq)), kind="stable"
                )
                known_keys = np.concatenate((known_keys, uniq))[merge_order]
                known_ids = np.concatenate((known_ids, ids_sorted))[merge_order]
            else:
                frontier = np.empty((0, num_components), dtype=np.int64)
            table_parts.append(targets.reshape(num_frontier, num_events))
        order = np.concatenate(order_parts, axis=0)
        table = (
            np.concatenate(table_parts, axis=0)
            if table_parts
            else np.empty((order.shape[0], num_events), dtype=np.int64)
        )
        return order, table

    # ------------------------------------------------------------------
    @property
    def machine(self) -> DFSM:
        """The reachable cross product as a plain :class:`DFSM`."""
        return self._machine

    @property
    def components(self) -> Tuple[DFSM, ...]:
        """The component machines in construction order."""
        return self._components

    @property
    def num_states(self) -> int:
        """Number of reachable product states, ``|top|``."""
        return self._machine.num_states

    @property
    def num_components(self) -> int:
        return len(self._components)

    def __len__(self) -> int:
        return self.num_states

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "CrossProduct(components=%d, states=%d)" % (
            self.num_components,
            self.num_states,
        )

    # ------------------------------------------------------------------
    def state_tuple(self, top_index: int) -> StateTuple:
        """The component-label tuple of the top state with index ``top_index``."""
        return self._machine.states[top_index]

    def state_tuples(self) -> Tuple[StateTuple, ...]:
        """All reachable top states as component-label tuples."""
        return self._machine.states

    def index_of(self, state: StateTuple) -> int:
        """Index of the top state with the given component-label tuple."""
        try:
            return self._machine._state_index[tuple(state)]
        except KeyError:
            raise UnknownStateError("tuple %r is not a reachable product state" % (state,)) from None

    def projection(self, component: int) -> np.ndarray:
        """Projection of top states onto component ``component``.

        Returns a read-only integer array ``p`` of length ``|top|`` where
        ``p[t]`` is the state *index* (within that component machine) that
        top state ``t`` projects to.  This is exactly the closed partition
        of the top state set induced by the component (Section 2.1).
        """
        if not 0 <= component < len(self._components):
            raise IndexError("component index %d out of range" % component)
        return self._projections[component]

    def projections(self) -> np.ndarray:
        """All projections as a ``(num_components, |top|)`` array."""
        return self._projections

    def component_partitions(self) -> Tuple["Partition", ...]:
        """The closed partitions induced by the components, cached.

        Fault-graph construction consumes these on every fusion call;
        building (and canonicalising) the :class:`Partition` objects once
        per product lets repeated calls reuse them.
        """
        if self._component_partitions is None:
            from .partition import Partition

            self._component_partitions = tuple(
                Partition(self._projections[ci]) for ci in range(len(self._components))
            )
        return self._component_partitions

    def component_label_matrix(self) -> np.ndarray:
        """The ``(num_components, |top|)`` canonical partition-label matrix.

        Row ``i`` is :meth:`component_partitions`\\ ``[i].labels`` in the
        narrow index dtype (``int32`` whenever ``|top|`` fits): the label
        tuples whose Hamming ball is the sparse ledger.  Cached and
        read-only, so repeated fusion calls over one product (and every
        cap escalation within a call) share a single conversion.
        """
        if self._label_matrix is None:
            partitions = self.component_partitions()
            dtype = narrow_index_dtype(self.num_states)
            matrix = np.stack(
                [partition.labels.astype(dtype) for partition in partitions]
            )
            matrix.setflags(write=False)
            self._label_matrix = matrix
        return self._label_matrix

    def project_state(self, top_state: StateTuple, component: int) -> StateLabel:
        """Label of the component state that ``top_state`` projects to."""
        ti = self.index_of(top_state)
        machine = self._components[component]
        return machine.state_label(int(self._projections[component, ti]))

    def component_block_labels(self, component: int) -> np.ndarray:
        """Alias for :meth:`projection` with the paper's partition vocabulary."""
        return self.projection(component)


def reachable_cross_product(machines: Sequence[DFSM], name: str = "top") -> DFSM:
    """Convenience wrapper returning only the product :class:`DFSM`.

    Use :class:`CrossProduct` directly when the component projections are
    also needed (they are, for fault graphs and fusion generation).
    """
    return CrossProduct(machines, name=name).machine
