"""Product tops and quotient backups against the paper's definitions.

Section 2 defines ``top`` as the cross product of the input machines
restricted to the tuples reachable from the tuple of initial states, and
every backup as the quotient of ``top`` by a closed partition: one state
per block, and a block's successor under an event is the block that
*every* member moves to.  The engine builds both straight from index
tables.  The oracles below build them the slow, obvious way — label
tuples in a dict-driven BFS, successors checked member by member with
:meth:`DFSM.step` — and the engine's machines must be
:meth:`~DFSM.structurally_equal` to them: same labels in the same order,
same alphabet, same initial state, same table.
"""

from __future__ import annotations

from collections import deque

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import (
    DFSM,
    CrossProduct,
    closed_coarsening,
    generate_fusion,
    is_closed_partition,
    machine_from_partition,
)
from repro.core.exceptions import PartitionError
from repro.core.minimize import _quotient
from repro.machines import mesi, mod_counter, parity_checker, tcp_simplified

from .strategies import machine_set_strategy, partition_strategy

RELAXED = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

ZOO_EVENTS = ("a", "b", "c")


def _zoo():
    """tcp + mesi + parity + counter over one shared alphabet."""
    return [
        tcp_simplified(events=ZOO_EVENTS),
        mesi(events=ZOO_EVENTS),
        parity_checker("a", events=ZOO_EVENTS, name="parity-a"),
        mod_counter(3, count_event="b", events=ZOO_EVENTS, name="count-b"),
    ]


def _counters(size):
    return [
        mod_counter(3, count_event=e, events=tuple(range(size)), name="c%d" % e)
        for e in range(size)
    ]


def naive_top(machines, name="top"):
    """Reachable cross product by a BFS over label tuples (Section 2)."""
    events = []
    for machine in machines:
        for event in machine.events:
            if event not in events:
                events.append(event)
    start = tuple(machine.initial for machine in machines)
    order = [start]
    seen = {start}
    transitions = {}
    queue = deque([start])
    while queue:
        state = queue.popleft()
        row = {}
        for event in events:
            # step() ignores events outside a component's alphabet.
            successor = tuple(m.step(s, event) for m, s in zip(machines, state))
            if successor not in seen:
                seen.add(successor)
                order.append(successor)
                queue.append(successor)
            row[event] = successor
        transitions[state] = row
    return DFSM(order, events, transitions, start, name=name)


def naive_quotient(top, labels, block_label, name):
    """Quotient of ``top`` by the block labels ``labels``, checked member by member.

    Raises :class:`AssertionError` when some block's members disagree on
    a successor block, i.e. when the partition is not closed.
    """
    members = {}
    for index, block in enumerate(labels):
        members.setdefault(block, []).append(top.state_label(index))
    block_of = {state: block for block, states in members.items() for state in states}
    names = {block: block_label(states) for block, states in members.items()}
    transitions = {}
    for block in sorted(members):
        row = {}
        for event in top.events:
            successors = {block_of[top.step(state, event)] for state in members[block]}
            assert len(successors) == 1, "partition is not closed"
            row[event] = names[successors.pop()]
        transitions[names[block]] = row
    return DFSM(
        [names[block] for block in sorted(members)],
        top.events,
        transitions,
        names[block_of[top.initial]],
        name=name,
    )


def fusion_block(states):
    """machine_from_partition's block label: the frozenset of members."""
    return frozenset(states)


def minimize_block(states):
    """minimize's block label: the lone member, else the repr-sorted tuple."""
    ordered = sorted(states, key=repr)
    return ordered[0] if len(ordered) == 1 else tuple(ordered)


def assert_constructions_match_oracles(machines):
    product = CrossProduct(machines)
    top = product.machine
    assert top.structurally_equal(naive_top(machines))
    assert product.state_tuples() == top.states
    for index, state in enumerate(top.states):
        assert product.index_of(state) == index
    for f in (1, 2):
        result = generate_fusion(machines, f)
        for backup, partition in zip(result.backups, result.partitions):
            labels = partition.labels.tolist()
            expected = naive_quotient(top, labels, fusion_block, backup.name)
            assert backup.structurally_equal(expected)
            assert machine_from_partition(top, partition).structurally_equal(expected)
            minimized = _quotient(top, partition.labels, "min")
            assert minimized.structurally_equal(
                naive_quotient(top, labels, minimize_block, "min")
            )


class TestTopAndBackupsMatchOracles:
    @RELAXED
    @given(machines=machine_set_strategy())
    def test_random_machine_sets(self, machines):
        assert_constructions_match_oracles(machines)

    def test_machine_zoo(self):
        assert_constructions_match_oracles(_zoo())

    def test_counters_6(self):
        assert_constructions_match_oracles(_counters(6))

    def test_single_component_product(self):
        assert_constructions_match_oracles([mesi(events=ZOO_EVENTS)])


class TestClosednessMatchesOracle:
    @RELAXED
    @given(data=st.data(), machines=machine_set_strategy())
    def test_random_partitions_of_the_top(self, data, machines):
        top = CrossProduct(machines).machine
        partition = data.draw(partition_strategy(top.num_states))
        labels = partition.labels.tolist()
        try:
            expected = naive_quotient(top, labels, fusion_block, "q")
        except AssertionError:
            assert not is_closed_partition(top, partition)
            with pytest.raises(PartitionError):
                machine_from_partition(top, partition)
        else:
            assert is_closed_partition(top, partition)
            assert machine_from_partition(top, partition, name="q").structurally_equal(
                expected
            )
        closed = closed_coarsening(top, partition)
        assert machine_from_partition(top, closed, name="q").structurally_equal(
            naive_quotient(top, closed.labels.tolist(), fusion_block, "q")
        )
