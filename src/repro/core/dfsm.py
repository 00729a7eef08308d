"""Deterministic finite state machines (DFSMs).

This module implements Definition 1 of the paper: a DFSM is a quadruple
``(X, Sigma, delta, x0)`` with a finite state set ``X``, a finite event
alphabet ``Sigma``, a total transition function ``delta : X x Sigma -> X``
and an initial state ``x0``.

Two pieces of the paper's system model live here as well:

* **Ignore-unknown-event semantics** (Section 2): when an event that does
  not belong to the machine's alphabet is applied, the machine stays in
  its current state.  This is what lets a set of machines with different
  alphabets consume the same globally-ordered input stream.
* **Reachability** (Section 2): the model assumes every state of an input
  machine is reachable from its initial state; :meth:`DFSM.validate` and
  :meth:`DFSM.restricted_to_reachable` enforce / establish this.

Internally every machine stores its transition function as a dense NumPy
integer table of shape ``(n_states, n_events)`` so that the algorithms in
:mod:`repro.core.product`, :mod:`repro.core.fault_graph` and
:mod:`repro.core.fusion` can run vectorised over whole state sets instead
of looping over Python dictionaries.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from .exceptions import InvalidMachineError, UnknownEventError, UnknownStateError
from .types import EventLabel, StateLabel, TransitionMap

__all__ = ["DFSM", "DFSMBuilder"]


def _parse_transitions(
    states: Tuple[StateLabel, ...],
    events: Tuple[EventLabel, ...],
    transitions: TransitionMap,
    initial: StateLabel,
    name: str,
) -> Tuple[np.ndarray, int]:
    """Parse the dict API's ``{state: {event: next_state}}`` mapping.

    Returns ``(table, initial_index)`` for :meth:`DFSM._adopt_table`.
    Only what a mapping can get wrong and a table cannot is checked here
    (missing rows or events, unknown labels, events outside the
    alphabet); the table itself is validated by the core.
    """
    state_index = {s: i for i, s in enumerate(states)}
    if initial not in state_index:
        raise InvalidMachineError(
            "initial state %r is not in the state set of %s" % (initial, name)
        )
    alphabet = set(events)
    rows: List[List[int]] = []
    for state in states:
        row = transitions.get(state)
        if row is None:
            raise InvalidMachineError(
                "state %r of %s has no outgoing transitions" % (state, name)
            )
        targets: List[int] = []
        for event in events:
            if event not in row:
                raise InvalidMachineError(
                    "transition function of %s is not total: state %r lacks event %r"
                    % (name, state, event)
                )
            target = state_index.get(row[event])
            if target is None:
                raise InvalidMachineError(
                    "transition %r --%r--> %r of %s targets an unknown state"
                    % (state, event, row[event], name)
                )
            targets.append(target)
        extra = set(row) - alphabet
        if extra:
            raise InvalidMachineError(
                "state %r of %s defines transitions on events %r outside the alphabet"
                % (state, name, sorted(map(repr, extra)))
            )
        rows.append(targets)
    table = np.array(rows, dtype=np.int64).reshape(len(states), len(events))
    return table, state_index[initial]


class DFSM:
    """A deterministic finite state machine.

    Parameters
    ----------
    states:
        The finite, non-empty state set.  Order is preserved and defines
        the internal state indexing.
    events:
        The machine's event alphabet.  Order is preserved and defines the
        internal event indexing.
    transitions:
        Mapping ``{state: {event: next_state}}``.  The transition function
        must be *total*: every state must define a successor for every
        event in ``events``.
    initial:
        The initial state; must be a member of ``states``.
    name:
        Optional human-readable name used in reprs, reports and DOT export.

    The mapping is only parsed into an index table here; validation
    happens once, in the core that :meth:`from_table` (the table-native
    constructor every derived machine is built with) ends in too.

    Examples
    --------
    A mod-3 counter of ``0`` events (machine ``A`` of Figure 1)::

        >>> counter = DFSM(
        ...     states=["a0", "a1", "a2"],
        ...     events=[0, 1],
        ...     transitions={
        ...         "a0": {0: "a1", 1: "a0"},
        ...         "a1": {0: "a2", 1: "a1"},
        ...         "a2": {0: "a0", 1: "a2"},
        ...     },
        ...     initial="a0",
        ...     name="0-counter",
        ... )
        >>> counter.run([0, 0, 1, 0])
        'a0'
    """

    __slots__ = (
        "_name",
        "_states",
        "_events",
        "_state_index",
        "_event_index",
        "_table",
        "_initial_index",
    )

    def __init__(
        self,
        states: Sequence[StateLabel],
        events: Sequence[EventLabel],
        transitions: TransitionMap,
        initial: StateLabel,
        name: str = "DFSM",
    ) -> None:
        states = tuple(states)
        events = tuple(events)
        table, initial_index = _parse_transitions(states, events, transitions, initial, name)
        self._adopt_table(table, initial_index, events, states, name)

    def _adopt_table(
        self,
        table: object,
        initial: int,
        events: Optional[Sequence[EventLabel]],
        state_labels: Optional[Sequence[StateLabel]],
        name: str,
    ) -> None:
        """The one validating core every constructor ends in.

        Checks, with whole-array NumPy passes, that ``table`` is a 2-D
        integer array of shape ``(len(state_labels), len(events))`` whose
        targets all lie in ``[0, n)``, that ``0 <= initial < n`` and that
        state and event labels are unique; then keeps a read-only
        ``int64`` copy of the table and builds the label indices once.
        Labels left as ``None`` default to ``0..n-1`` / ``0..k-1``.
        """
        self._name = str(name)
        arr = np.asarray(table)
        if arr.ndim != 2:
            raise InvalidMachineError("transition table must be two-dimensional")
        states = tuple(range(arr.shape[0]) if state_labels is None else state_labels)
        events = tuple(range(arr.shape[1]) if events is None else events)
        n, k = len(states), len(events)
        if not n:
            raise InvalidMachineError("a DFSM needs at least one state")
        if arr.shape != (n, k):
            raise InvalidMachineError(
                "transition table of shape %r does not match %d states x %d events"
                % (arr.shape, n, k)
            )
        if arr.size and not np.issubdtype(arr.dtype, np.integer):
            raise InvalidMachineError(
                "transition table must hold integer state indices, not %s" % arr.dtype
            )
        if arr.size and (arr.min() < 0 or arr.max() >= n):
            raise InvalidMachineError("transition table references out-of-range states")
        if not isinstance(initial, (int, np.integer)):
            raise InvalidMachineError("initial state index %r is not an integer" % (initial,))
        if not 0 <= initial < n:
            raise InvalidMachineError(
                "initial state index %d is out of range for %d states" % (initial, n)
            )
        self._states = states
        self._events = events
        self._state_index: Dict[StateLabel, int] = {s: i for i, s in enumerate(states)}
        if len(self._state_index) != n:
            raise InvalidMachineError("duplicate state labels: %r" % (states,))
        self._event_index: Dict[EventLabel, int] = {e: i for i, e in enumerate(events)}
        if len(self._event_index) != k:
            raise InvalidMachineError("duplicate event labels: %r" % (events,))
        self._initial_index = int(initial)
        self._table = np.array(arr, dtype=np.int64)
        self._table.setflags(write=False)

    # ------------------------------------------------------------------
    # Constructors
    # ------------------------------------------------------------------
    @classmethod
    def from_function(
        cls,
        states: Sequence[StateLabel],
        events: Sequence[EventLabel],
        delta: Callable[[StateLabel, EventLabel], StateLabel],
        initial: StateLabel,
        name: str = "DFSM",
    ) -> "DFSM":
        """Build a machine from a transition *function* instead of a table.

        ``delta(state, event)`` is called once per (state, event) pair to
        materialise the transition table.
        """
        transitions = {s: {e: delta(s, e) for e in events} for s in states}
        return cls(states, events, transitions, initial, name=name)

    @classmethod
    def from_table(
        cls,
        table: Sequence[Sequence[int]],
        initial: int = 0,
        events: Optional[Sequence[EventLabel]] = None,
        state_labels: Optional[Sequence[StateLabel]] = None,
        name: str = "DFSM",
    ) -> "DFSM":
        """Build a machine from an integer transition table.

        ``table[i][j]`` is the index of the successor of state ``i`` under
        event ``j`` and ``initial`` the index of the initial state.
        States default to ``0..n-1`` and events to ``0..k-1`` unless
        labels are supplied.  This is the table-native constructor: no
        per-transition Python work, just the array checks of the
        validating core (which the dict API ends in too).
        """
        machine = cls.__new__(cls)
        machine._adopt_table(table, initial, events, state_labels, name)
        return machine

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        """The machine's human-readable name."""
        return self._name

    @property
    def states(self) -> Tuple[StateLabel, ...]:
        """The state set, in index order."""
        return self._states

    @property
    def events(self) -> Tuple[EventLabel, ...]:
        """The event alphabet, in index order."""
        return self._events

    @property
    def initial(self) -> StateLabel:
        """The initial state label."""
        return self._states[self._initial_index]

    @property
    def initial_index(self) -> int:
        """The internal index of the initial state."""
        return self._initial_index

    @property
    def transition_table(self) -> np.ndarray:
        """The dense transition table of shape ``(n_states, n_events)``.

        The returned array is read-only; copy it before mutating.
        """
        return self._table

    @property
    def num_states(self) -> int:
        """Number of states, ``|A|`` in the paper's notation."""
        return len(self._states)

    @property
    def num_events(self) -> int:
        """Size of the event alphabet."""
        return len(self._events)

    def __len__(self) -> int:
        return len(self._states)

    def __iter__(self) -> Iterator[StateLabel]:
        return iter(self._states)

    def __contains__(self, state: StateLabel) -> bool:
        return state in self._state_index

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "DFSM(name=%r, states=%d, events=%d)" % (
            self._name,
            self.num_states,
            self.num_events,
        )

    # ------------------------------------------------------------------
    # Index <-> label conversion
    # ------------------------------------------------------------------
    def state_index(self, state: StateLabel) -> int:
        """Return the internal index of ``state``.

        Raises :class:`UnknownStateError` for labels outside the state set.
        """
        try:
            return self._state_index[state]
        except KeyError:
            raise UnknownStateError(
                "machine %s has no state %r" % (self._name, state)
            ) from None

    def state_label(self, index: int) -> StateLabel:
        """Return the label of the state with internal index ``index``."""
        try:
            return self._states[index]
        except IndexError:
            raise UnknownStateError(
                "machine %s has no state with index %d" % (self._name, index)
            ) from None

    def event_index(self, event: EventLabel) -> int:
        """Return the internal index of ``event``.

        Raises :class:`UnknownEventError` for events outside the alphabet.
        """
        try:
            return self._event_index[event]
        except KeyError:
            raise UnknownEventError(
                "machine %s has no event %r" % (self._name, event)
            ) from None

    def has_event(self, event: EventLabel) -> bool:
        """True if ``event`` belongs to this machine's alphabet."""
        return event in self._event_index

    # ------------------------------------------------------------------
    # Execution semantics
    # ------------------------------------------------------------------
    def step(self, state: StateLabel, event: EventLabel) -> StateLabel:
        """Apply a single event to ``state`` and return the successor.

        Events outside the machine's alphabet are ignored (the machine
        stays put), matching the system model of Section 2.
        """
        si = self.state_index(state)
        ei = self._event_index.get(event)
        if ei is None:
            return state
        return self._states[int(self._table[si, ei])]

    def step_index(self, state_index: int, event: EventLabel) -> int:
        """Index-based variant of :meth:`step` used by hot loops."""
        ei = self._event_index.get(event)
        if ei is None:
            return state_index
        return int(self._table[state_index, ei])

    def run(
        self,
        events: Iterable[EventLabel],
        start: Optional[StateLabel] = None,
    ) -> StateLabel:
        """Apply a sequence of events and return the final state.

        Parameters
        ----------
        events:
            The globally-ordered event sequence.  Events not in the
            machine's alphabet are ignored.
        start:
            State to start from; defaults to the initial state.
        """
        index = self._initial_index if start is None else self.state_index(start)
        table = self._table
        event_index = self._event_index
        for event in events:
            ei = event_index.get(event)
            if ei is not None:
                index = int(table[index, ei])
        return self._states[index]

    def trajectory(
        self,
        events: Iterable[EventLabel],
        start: Optional[StateLabel] = None,
    ) -> List[StateLabel]:
        """Return the full state trajectory (including the start state)."""
        index = self._initial_index if start is None else self.state_index(start)
        out = [self._states[index]]
        for event in events:
            ei = self._event_index.get(event)
            if ei is not None:
                index = int(self._table[index, ei])
            out.append(self._states[index])
        return out

    def run_batch(self, state_indices: np.ndarray, event: EventLabel) -> np.ndarray:
        """Vectorised step: apply ``event`` to an array of state indices."""
        ei = self._event_index.get(event)
        indices = np.asarray(state_indices, dtype=np.int64)
        if ei is None:
            return indices.copy()
        return self._table[indices, ei]

    # ------------------------------------------------------------------
    # Reachability
    # ------------------------------------------------------------------
    def reachable_state_indices(self) -> List[int]:
        """Indices of all states reachable from the initial state (BFS order)."""
        seen = np.zeros(self.num_states, dtype=bool)
        order: List[int] = []
        queue: deque[int] = deque([self._initial_index])
        seen[self._initial_index] = True
        while queue:
            si = queue.popleft()
            order.append(si)
            for ei in range(self.num_events):
                nxt = int(self._table[si, ei])
                if not seen[nxt]:
                    seen[nxt] = True
                    queue.append(nxt)
        return order

    def reachable_states(self) -> List[StateLabel]:
        """Labels of all states reachable from the initial state."""
        return [self._states[i] for i in self.reachable_state_indices()]

    def is_fully_reachable(self) -> bool:
        """True if every state is reachable from the initial state."""
        return len(self.reachable_state_indices()) == self.num_states

    def restricted_to_reachable(self) -> "DFSM":
        """Return an equivalent machine containing only reachable states."""
        if self.is_fully_reachable():
            return self
        keep = np.asarray(self.reachable_state_indices(), dtype=np.int64)
        renumber = np.full(self.num_states, -1, dtype=np.int64)
        renumber[keep] = np.arange(keep.size, dtype=np.int64)
        return DFSM.from_table(
            renumber[self._table[keep]],
            int(renumber[self._initial_index]),
            self._events,
            [self._states[i] for i in keep.tolist()],
            name=self._name,
        )

    # ------------------------------------------------------------------
    # Structural comparison
    # ------------------------------------------------------------------
    def transitions_as_dict(self) -> Dict[StateLabel, Dict[EventLabel, StateLabel]]:
        """Return the transition function in nested-dict form."""
        return {
            s: {e: self._states[int(self._table[i, j])] for j, e in enumerate(self._events)}
            for i, s in enumerate(self._states)
        }

    def renamed(self, name: str) -> "DFSM":
        """Return a copy of this machine with a different display name."""
        return DFSM.from_table(
            self._table, self._initial_index, self._events, self._states, name=name
        )

    def relabelled(self, mapping: Mapping[StateLabel, StateLabel]) -> "DFSM":
        """Return a copy with state labels replaced according to ``mapping``.

        Labels missing from ``mapping`` are kept as-is.  The mapping must
        remain injective on the state set.
        """
        return DFSM.from_table(
            self._table,
            self._initial_index,
            self._events,
            [mapping.get(s, s) for s in self._states],
            name=self._name,
        )

    def structurally_equal(self, other: "DFSM") -> bool:
        """True if both machines have identical labels, alphabets and tables."""
        return (
            self._states == other._states
            and self._events == other._events
            and self._initial_index == other._initial_index
            and np.array_equal(self._table, other._table)
        )

    def is_isomorphic_to(self, other: "DFSM") -> bool:
        """True if the machines are identical up to a renaming of states.

        Both machines must share the same event alphabet (as a set).  The
        check walks both machines in lockstep from their initial states;
        because the machines are deterministic and (assumed) reachable,
        an isomorphism exists iff this synchronized walk never disagrees
        and is a bijection on the reachable parts.
        """
        if set(self._events) != set(other._events):
            return False
        if self.num_states != other.num_states:
            return False
        pairing: Dict[int, int] = {self._initial_index: other._initial_index}
        reverse: Dict[int, int] = {other._initial_index: self._initial_index}
        queue: deque[int] = deque([self._initial_index])
        events = self._events
        while queue:
            si = queue.popleft()
            oi = pairing[si]
            for event in events:
                s_next = self.step_index(si, event)
                o_next = int(other._table[oi, other._event_index[event]])
                if s_next in pairing:
                    if pairing[s_next] != o_next:
                        return False
                elif o_next in reverse:
                    return False
                else:
                    pairing[s_next] = o_next
                    reverse[o_next] = s_next
                    queue.append(s_next)
        return len(pairing) == len(self.reachable_state_indices())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DFSM):
            return NotImplemented
        return self.structurally_equal(other)

    def __hash__(self) -> int:
        return hash((self._states, self._events, self._initial_index, self._table.tobytes()))

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self, require_reachable: bool = False) -> None:
        """Re-check structural invariants.

        The constructor already guarantees a well-formed machine; this is
        useful after deserialisation or for machines built through
        :class:`DFSMBuilder`.  When ``require_reachable`` is true the
        paper's assumption that every state is reachable is also enforced.
        """
        if self.num_states == 0:
            raise InvalidMachineError("machine %s has no states" % self._name)
        if require_reachable and not self.is_fully_reachable():
            unreachable = set(self._states) - set(self.reachable_states())
            raise InvalidMachineError(
                "machine %s has unreachable states: %r" % (self._name, sorted(map(repr, unreachable)))
            )


class DFSMBuilder:
    """Incremental builder for :class:`DFSM` instances.

    Useful when a machine is assembled transition-by-transition (for
    example while parsing a protocol description) rather than from a
    complete table.  Missing transitions can optionally be filled with
    self-loops before building.

    Examples
    --------
    >>> b = DFSMBuilder(name="toggle")
    >>> b.add_transition("off", "press", "on")
    >>> b.add_transition("on", "press", "off")
    >>> machine = b.build(initial="off")
    >>> machine.run(["press", "press", "press"])
    'on'
    """

    def __init__(self, name: str = "DFSM") -> None:
        self.name = name
        self._states: List[StateLabel] = []
        self._events: List[EventLabel] = []
        self._transitions: Dict[StateLabel, Dict[EventLabel, StateLabel]] = {}

    def add_state(self, state: StateLabel) -> "DFSMBuilder":
        """Register a state (no-op if already present)."""
        if state not in self._transitions:
            self._states.append(state)
            self._transitions[state] = {}
        return self

    def add_event(self, event: EventLabel) -> "DFSMBuilder":
        """Register an event (no-op if already present)."""
        if event not in self._events:
            self._events.append(event)
        return self

    def add_transition(
        self, source: StateLabel, event: EventLabel, target: StateLabel
    ) -> "DFSMBuilder":
        """Add ``source --event--> target``, registering labels as needed."""
        self.add_state(source)
        self.add_state(target)
        self.add_event(event)
        self._transitions[source][event] = target
        return self

    def add_self_loops(self) -> "DFSMBuilder":
        """Complete the transition function with self-loops for missing pairs."""
        for state in self._states:
            for event in self._events:
                self._transitions[state].setdefault(event, state)
        return self

    @property
    def states(self) -> Tuple[StateLabel, ...]:
        return tuple(self._states)

    @property
    def events(self) -> Tuple[EventLabel, ...]:
        return tuple(self._events)

    def build(self, initial: StateLabel, complete_with_self_loops: bool = True) -> DFSM:
        """Materialise the :class:`DFSM`.

        Parameters
        ----------
        initial:
            Initial state label (must have been added).
        complete_with_self_loops:
            If true (default), missing (state, event) pairs become
            self-loops; if false, a partial transition function raises
            :class:`InvalidMachineError`.
        """
        if complete_with_self_loops:
            self.add_self_loops()
        return DFSM(self._states, self._events, self._transitions, initial, name=self.name)
