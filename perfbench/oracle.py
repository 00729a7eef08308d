"""Brute-force answers for fusion outputs, written from the paper's definitions.

Nothing here calls the library's fault graph, partition algebra or
product exploration: the reachable cross product is rebuilt by a plain
breadth-first search over state tuples with ``DFSM.step`` (the machine
model itself), and closure and ``dmin`` are checked pair by pair and
event by event.  The checks are only meant for small tops (a few
thousand states); the large flagships are checked against their frozen
summaries instead.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np


def merged_events(machines) -> List[object]:
    """Union of the machines' alphabets in order of first appearance."""
    events: Dict[object, None] = {}
    for machine in machines:
        for event in machine.events:
            events.setdefault(event, None)
    return list(events)


def step_tuple(machines, state: Tuple, event) -> Tuple:
    """One global event applied to every machine; foreign events are ignored."""
    return tuple(
        machine.step(component, event) if machine.has_event(event) else component
        for machine, component in zip(machines, state)
    )


def reachable_tuples(machines) -> List[Tuple]:
    """The reachable cross product's states, by breadth-first search."""
    events = merged_events(machines)
    start = tuple(machine.initial for machine in machines)
    seen = {start}
    order = [start]
    for state in order:
        for event in events:
            successor = step_tuple(machines, state, event)
            if successor not in seen:
                seen.add(successor)
                order.append(successor)
    return order


def _min_separation(label_rows: Sequence[np.ndarray]) -> int:
    """min over pairs of top states of the number of machines telling them apart."""
    n = len(label_rows[0])
    if n < 2:
        raise ValueError("dmin needs at least two top states")
    separated = np.zeros((n, n), dtype=np.int32)
    for labels in label_rows:
        separated += labels[:, None] != labels[None, :]
    upper = np.triu_indices(n, k=1)
    return int(separated[upper].min())


def fusion_failures(
    machines,
    f: int,
    byzantine: bool,
    top_tuples: Sequence[Tuple],
    partition_labels: Sequence[np.ndarray],
) -> List[str]:
    """Every way a fusion output violates the paper's definitions.

    ``top_tuples[i]`` is the library's state tuple for top index ``i``;
    ``partition_labels`` holds one block-label vector over top indices
    per backup.  Checks: the top is exactly the reachable product; each
    backup partition is closed (Algorithm 1's substitution property,
    event by event); the fused system's ``dmin`` reaches ``f + 1``
    (``2f + 1`` for Byzantine faults); and the backup count is
    ``target - dmin(A)`` (Theorem 5's one-per-iteration increase).
    """
    failures: List[str] = []
    truth = reachable_tuples(machines)
    index = {state: i for i, state in enumerate(top_tuples)}
    if len(index) != len(top_tuples) or set(truth) != set(index):
        return ["top differs from the brute-force reachable product"]
    n = len(top_tuples)
    events = merged_events(machines)
    successors = np.array(
        [[index[step_tuple(machines, state, event)] for event in events]
         for state in top_tuples],
        dtype=np.int64,
    ).reshape(n, len(events))

    for b, labels in enumerate(partition_labels):
        labels = np.asarray(labels, dtype=np.int64)
        if labels.shape != (n,):
            return failures + ["backup %d: partition is not over the top" % b]
        blocks = len(set(labels.tolist()))
        for e, event in enumerate(events):
            images = set(zip(labels.tolist(), labels[successors[:, e]].tolist()))
            if len(images) != blocks:
                failures.append(
                    "backup %d: partition not closed under event %r" % (b, event)
                )
                break

    originals = [
        np.array(
            [machine.state_index(state[m]) for state in top_tuples], dtype=np.int64
        )
        for m, machine in enumerate(machines)
    ]
    target = 2 * f + 1 if byzantine else f + 1
    dmin_a = _min_separation(originals)
    rows = originals + [np.asarray(labels, dtype=np.int64) for labels in partition_labels]
    dmin = _min_separation(rows)
    if dmin < target:
        failures.append("dmin %d below the target %d" % (dmin, target))
    expected_backups = max(0, target - dmin_a)
    if len(partition_labels) != expected_backups:
        failures.append(
            "%d backups, expected target - dmin(A) = %d"
            % (len(partition_labels), expected_backups)
        )
    return failures
