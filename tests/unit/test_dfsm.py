"""Unit tests for the DFSM model (Definition 1 and the execution semantics)."""

from __future__ import annotations

import numpy as np
import pytest

from repro import DFSM, InvalidMachineError, UnknownEventError, UnknownStateError
from repro.machines import mesi, mod_counter


def simple_machine():
    return DFSM(
        states=["s0", "s1"],
        events=["a", "b"],
        transitions={
            "s0": {"a": "s1", "b": "s0"},
            "s1": {"a": "s0", "b": "s1"},
        },
        initial="s0",
        name="simple",
    )


class TestConstruction:
    def test_basic_properties(self):
        machine = simple_machine()
        assert machine.num_states == 2
        assert machine.num_events == 2
        assert machine.initial == "s0"
        assert machine.states == ("s0", "s1")
        assert machine.events == ("a", "b")
        assert len(machine) == 2

    def test_empty_state_set_rejected(self):
        with pytest.raises(InvalidMachineError):
            DFSM([], ["a"], {}, "s0")

    def test_duplicate_states_rejected(self):
        with pytest.raises(InvalidMachineError):
            DFSM(["s0", "s0"], ["a"], {"s0": {"a": "s0"}}, "s0")

    def test_duplicate_events_rejected(self):
        with pytest.raises(InvalidMachineError):
            DFSM(["s0"], ["a", "a"], {"s0": {"a": "s0"}}, "s0")

    def test_unknown_initial_rejected(self):
        with pytest.raises(InvalidMachineError):
            DFSM(["s0"], ["a"], {"s0": {"a": "s0"}}, "s9")

    def test_partial_transition_function_rejected(self):
        with pytest.raises(InvalidMachineError):
            DFSM(["s0", "s1"], ["a"], {"s0": {"a": "s1"}, "s1": {}}, "s0")

    def test_transition_to_unknown_state_rejected(self):
        with pytest.raises(InvalidMachineError):
            DFSM(["s0"], ["a"], {"s0": {"a": "nowhere"}}, "s0")

    def test_transition_on_unknown_event_rejected(self):
        with pytest.raises(InvalidMachineError):
            DFSM(["s0"], ["a"], {"s0": {"a": "s0", "zzz": "s0"}}, "s0")

    def test_missing_state_row_rejected(self):
        with pytest.raises(InvalidMachineError):
            DFSM(["s0", "s1"], ["a"], {"s0": {"a": "s1"}}, "s0")

    def test_from_function(self):
        machine = DFSM.from_function(
            states=[0, 1, 2],
            events=["inc"],
            delta=lambda s, e: (s + 1) % 3,
            initial=0,
        )
        assert machine.run(["inc", "inc"]) == 2

    def test_from_table(self):
        machine = DFSM.from_table([[1, 0], [0, 1]], initial=0, events=["x", "y"])
        assert machine.step(0, "x") == 1
        assert machine.step(0, "y") == 0

    def test_from_table_rejects_bad_shape(self):
        with pytest.raises(InvalidMachineError):
            DFSM.from_table([1, 2, 3])

    def test_from_table_rejects_out_of_range(self):
        with pytest.raises(InvalidMachineError):
            DFSM.from_table([[5]], initial=0)

    def test_from_table_rejects_negative_initial(self):
        # -1 must not wrap around to the last state.
        with pytest.raises(InvalidMachineError):
            DFSM.from_table([[1, 0], [0, 1]], initial=-1)

    def test_from_table_rejects_initial_past_the_end(self):
        with pytest.raises(InvalidMachineError):
            DFSM.from_table([[1, 0], [0, 1]], initial=2)

    def test_from_table_rejects_float_table(self):
        # Truncating 0.7 / 1.2 to state indices would invent transitions.
        with pytest.raises(InvalidMachineError):
            DFSM.from_table([[0.7, 1.2], [1, 0]])

    def test_from_table_rejects_empty_table(self):
        with pytest.raises(InvalidMachineError):
            DFSM.from_table(np.zeros((0, 3), dtype=np.int64))

    def test_from_table_rejects_label_shape_mismatch(self):
        with pytest.raises(InvalidMachineError):
            DFSM.from_table([[1, 0], [0, 1]], state_labels=["a", "b", "c"])
        with pytest.raises(InvalidMachineError):
            DFSM.from_table([[1, 0], [0, 1]], events=["x"])

    def test_from_table_rejects_duplicate_labels(self):
        with pytest.raises(InvalidMachineError):
            DFSM.from_table([[1], [0]], state_labels=["a", "a"])
        with pytest.raises(InvalidMachineError):
            DFSM.from_table([[1, 0], [0, 1]], events=["x", "x"])

    def test_from_table_keeps_a_private_int64_copy(self):
        source = np.array([[1, 0], [0, 1]], dtype=np.int32)
        machine = DFSM.from_table(source)
        source[0, 0] = 0
        assert machine.transition_table.dtype == np.int64
        assert machine.transition_table[0, 0] == 1
        assert not machine.transition_table.flags.writeable

    def test_dict_and_table_constructors_agree(self):
        machine = simple_machine()
        rebuilt = DFSM.from_table(
            machine.transition_table,
            machine.initial_index,
            machine.events,
            machine.states,
            name="simple",
        )
        assert rebuilt.structurally_equal(machine)
        assert rebuilt.name == machine.name

    def test_transition_table_read_only(self):
        machine = simple_machine()
        with pytest.raises(ValueError):
            machine.transition_table[0, 0] = 1


class TestExecution:
    def test_step(self):
        machine = simple_machine()
        assert machine.step("s0", "a") == "s1"
        assert machine.step("s1", "a") == "s0"

    def test_step_ignores_unknown_event(self):
        machine = simple_machine()
        assert machine.step("s0", "not-an-event") == "s0"

    def test_step_unknown_state_raises(self):
        machine = simple_machine()
        with pytest.raises(UnknownStateError):
            machine.step("missing", "a")

    def test_event_index_unknown_raises(self):
        machine = simple_machine()
        with pytest.raises(UnknownEventError):
            machine.event_index("zzz")

    def test_run_from_initial(self):
        machine = simple_machine()
        assert machine.run(["a", "a", "a"]) == "s1"

    def test_run_from_custom_start(self):
        machine = simple_machine()
        assert machine.run(["a"], start="s1") == "s0"

    def test_run_ignores_foreign_events(self):
        counter = mod_counter(3, count_event=0, events=(0, 1))
        assert counter.run([0, 1, 1, 0, "noise", 0]) == "c0"

    def test_trajectory_includes_start(self):
        machine = simple_machine()
        assert machine.trajectory(["a", "b"]) == ["s0", "s1", "s1"]

    def test_run_batch_vectorised(self):
        machine = simple_machine()
        out = machine.run_batch(np.array([0, 1, 0]), "a")
        assert out.tolist() == [1, 0, 1]

    def test_run_batch_ignores_unknown_event(self):
        machine = simple_machine()
        out = machine.run_batch(np.array([0, 1]), "zzz")
        assert out.tolist() == [0, 1]

    def test_empty_run_returns_initial(self):
        machine = simple_machine()
        assert machine.run([]) == "s0"


class TestReachability:
    def test_fully_reachable(self):
        assert simple_machine().is_fully_reachable()

    def test_unreachable_states_detected(self):
        machine = DFSM(
            ["s0", "s1", "dead"],
            ["a"],
            {
                "s0": {"a": "s1"},
                "s1": {"a": "s0"},
                "dead": {"a": "dead"},
            },
            "s0",
        )
        assert not machine.is_fully_reachable()
        assert set(machine.reachable_states()) == {"s0", "s1"}

    def test_restricted_to_reachable(self):
        machine = DFSM(
            ["s0", "s1", "dead"],
            ["a"],
            {
                "s0": {"a": "s1"},
                "s1": {"a": "s0"},
                "dead": {"a": "dead"},
            },
            "s0",
        )
        pruned = machine.restricted_to_reachable()
        assert pruned.num_states == 2
        assert pruned.run(["a", "a", "a"]) == machine.run(["a", "a", "a"])

    def test_restrict_is_identity_when_already_reachable(self):
        machine = simple_machine()
        assert machine.restricted_to_reachable() is machine

    def test_validate_require_reachable(self):
        machine = DFSM(
            ["s0", "dead"],
            ["a"],
            {"s0": {"a": "s0"}, "dead": {"a": "dead"}},
            "s0",
        )
        machine.validate()  # structurally fine
        with pytest.raises(InvalidMachineError):
            machine.validate(require_reachable=True)


class TestComparison:
    def test_structural_equality(self):
        assert simple_machine() == simple_machine()

    def test_equality_ignores_name(self):
        machine = simple_machine()
        assert machine == machine.renamed("other-name")

    def test_inequality_on_different_transitions(self):
        other = DFSM(
            ["s0", "s1"],
            ["a", "b"],
            {
                "s0": {"a": "s0", "b": "s0"},
                "s1": {"a": "s0", "b": "s1"},
            },
            "s0",
        )
        assert simple_machine() != other

    def test_hash_consistent_with_equality(self):
        assert hash(simple_machine()) == hash(simple_machine())

    def test_isomorphism_under_relabelling(self):
        machine = simple_machine()
        relabelled = machine.relabelled({"s0": "x", "s1": "y"})
        assert machine.is_isomorphic_to(relabelled)
        assert relabelled.is_isomorphic_to(machine)

    def test_non_isomorphic_machines(self):
        counter2 = mod_counter(2, count_event="a", events=("a", "b"))
        other = DFSM(
            ["s0", "s1"],
            ["a", "b"],
            {
                "s0": {"a": "s1", "b": "s1"},
                "s1": {"a": "s0", "b": "s1"},
            },
            "s0",
        )
        assert not counter2.is_isomorphic_to(other)

    def test_isomorphism_requires_same_alphabet(self):
        assert not simple_machine().is_isomorphic_to(mesi())

    def test_relabelling_must_stay_injective(self):
        with pytest.raises(InvalidMachineError):
            simple_machine().relabelled({"s0": "x", "s1": "x"})

    def test_contains_and_iter(self):
        machine = simple_machine()
        assert "s0" in machine
        assert "nope" not in machine
        assert list(machine) == ["s0", "s1"]

    def test_transitions_as_dict_roundtrip(self):
        machine = simple_machine()
        rebuilt = DFSM(
            machine.states, machine.events, machine.transitions_as_dict(), machine.initial
        )
        assert rebuilt == machine
