"""DFSM reduction: unreachable-state removal and state minimisation.

The paper assumes its input machines are "reduced a priori" using the
classical minimisation techniques it cites (Huffman 1954; Hopcroft 1971).
Those techniques merge states that are *equivalent with respect to an
output function*; a bare DFSM with no outputs would always collapse to a
single state, so this module works on machines paired with an output
labelling (Moore-machine style):

* :func:`remove_unreachable` — drop states not reachable from the initial
  state (the paper's reachability assumption);
* :func:`minimize` — Moore's partition-refinement algorithm: start from
  the partition induced by the outputs and refine until transitions are
  consistent, then build the quotient machine;
* :func:`hopcroft_minimize` — Hopcroft's O(n log n) splitter-queue
  variant, producing the same machine (used to cross-check and as the
  default for large machines);
* :func:`are_equivalent` — decide whether two machine/output pairs accept
  the same output sequences for every input sequence.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Dict, Hashable, List, Mapping, Optional, Sequence, Set, Tuple

import numpy as np

from .dfsm import DFSM
from .exceptions import InvalidMachineError
from .partition import _block_members, renumber_by_first_appearance
from .types import EventLabel, StateLabel

__all__ = [
    "remove_unreachable",
    "minimize",
    "hopcroft_minimize",
    "are_equivalent",
    "output_partition",
]

OutputMap = Mapping[StateLabel, Hashable]


def remove_unreachable(machine: DFSM) -> DFSM:
    """Return an equivalent machine without unreachable states."""
    return machine.restricted_to_reachable()


def output_partition(machine: DFSM, outputs: OutputMap) -> List[List[int]]:
    """Initial partition of state indices by output value."""
    groups: Dict[Hashable, List[int]] = {}
    for index, state in enumerate(machine.states):
        if state not in outputs:
            raise InvalidMachineError(
                "output map is missing state %r of machine %s" % (state, machine.name)
            )
        groups.setdefault(outputs[state], []).append(index)
    return list(groups.values())


def _labels_from_groups(groups: Sequence[Sequence[int]], n: int) -> np.ndarray:
    labels = np.empty(n, dtype=np.int64)
    for g, group in enumerate(groups):
        for index in group:
            labels[index] = g
    return labels


def _quotient(machine: DFSM, labels: np.ndarray, name: Optional[str]) -> DFSM:
    """Build the quotient machine given block labels of the states."""
    members, bounds = _block_members(labels, int(labels.max()) + 1)
    states = machine.states
    member_list = members.tolist()
    block_names = []
    for lo, hi in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
        block = sorted(map(states.__getitem__, member_list[lo:hi]), key=repr)
        block_names.append(block[0] if len(block) == 1 else tuple(block))
    return DFSM.from_table(
        labels[machine.transition_table[members[bounds[:-1]]]],
        int(labels[machine.initial_index]),
        machine.events,
        block_names,
        name=name or ("%s/min" % machine.name),
    )


def minimize(machine: DFSM, outputs: OutputMap, name: Optional[str] = None) -> DFSM:
    """Moore's algorithm: minimise ``machine`` w.r.t. an output labelling.

    Two states are equivalent when every input sequence produces the same
    output sequence from both.  Unreachable states are removed first.

    Parameters
    ----------
    machine:
        The machine to minimise.
    outputs:
        Output value of every state (Moore-style).  States with different
        outputs are never merged.
    name:
        Name of the minimised machine; defaults to ``"<name>/min"``.
    """
    machine = machine.restricted_to_reachable()
    n = machine.num_states
    labels = _labels_from_groups(output_partition(machine, outputs), n)
    table = machine.transition_table

    while True:
        # Signature of a state: (its block, blocks of its successors),
        # deduplicated in one vectorised row-unique pass and renumbered in
        # order of first appearance (matching the classical construction).
        signatures = np.concatenate([labels[:, None], labels[table]], axis=1)
        _, first, inverse = np.unique(
            signatures, axis=0, return_index=True, return_inverse=True
        )
        new_labels = renumber_by_first_appearance(first, inverse)
        if int(new_labels.max()) + 1 == int(labels.max()) + 1:
            labels = new_labels
            break
        labels = new_labels
    return _quotient(machine, labels, name)


def hopcroft_minimize(
    machine: DFSM, outputs: OutputMap, name: Optional[str] = None
) -> DFSM:
    """Hopcroft's O(n log n) minimisation, equivalent to :func:`minimize`.

    Maintains a worklist of (block, event) *splitters*; each splitter
    partitions every block into the states that transition into the
    splitter block versus those that do not.
    """
    machine = machine.restricted_to_reachable()
    n = machine.num_states
    table = machine.transition_table
    num_events = machine.num_events

    # Pre-compute inverse transitions: for each event, predecessors of each state.
    predecessors: List[List[List[int]]] = [
        [[] for _ in range(n)] for _ in range(num_events)
    ]
    for state in range(n):
        for ei in range(num_events):
            predecessors[ei][int(table[state, ei])].append(state)

    initial_groups = [set(g) for g in output_partition(machine, outputs)]
    partition: List[Set[int]] = [g for g in initial_groups if g]
    worklist: deque[Tuple[frozenset, int]] = deque()
    for group in partition:
        for ei in range(num_events):
            worklist.append((frozenset(group), ei))

    while worklist:
        splitter, ei = worklist.popleft()
        # States leading into the splitter under event ei.
        incoming: Set[int] = set()
        for target in splitter:
            incoming.update(predecessors[ei][target])
        new_partition: List[Set[int]] = []
        for block in partition:
            inside = block & incoming
            outside = block - incoming
            if inside and outside:
                new_partition.extend([inside, outside])
                smaller = inside if len(inside) <= len(outside) else outside
                for ej in range(num_events):
                    worklist.append((frozenset(smaller), ej))
            else:
                new_partition.append(block)
        partition = new_partition

    labels = np.empty(n, dtype=np.int64)
    ordered = sorted(partition, key=lambda block: min(block))
    for b, block in enumerate(ordered):
        for state in block:
            labels[state] = b
    return _quotient(machine, labels, name)


def are_equivalent(
    first: DFSM,
    first_outputs: OutputMap,
    second: DFSM,
    second_outputs: OutputMap,
) -> bool:
    """True when the two machine/output pairs are behaviourally equivalent.

    Both machines must have the same alphabet (as a set).  The check is a
    synchronized breadth-first product walk comparing outputs.
    """
    if set(first.events) != set(second.events):
        return False
    start = (first.initial, second.initial)
    if first_outputs[first.initial] != second_outputs[second.initial]:
        return False
    seen = {start}
    queue: deque[Tuple[StateLabel, StateLabel]] = deque([start])
    while queue:
        a, b = queue.popleft()
        for event in first.events:
            na, nb = first.step(a, event), second.step(b, event)
            if first_outputs[na] != second_outputs[nb]:
                return False
            if (na, nb) not in seen:
                seen.add((na, nb))
                queue.append((na, nb))
    return True
