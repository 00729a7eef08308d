"""Unit tests for the reachable cross product (the top machine)."""

from __future__ import annotations

import pytest

from repro import (
    CrossProduct,
    InvalidMachineError,
    UnknownStateError,
    generate_fusion,
    merged_alphabet,
    reachable_cross_product,
)
from repro.core import dfsm as dfsm_module
from repro.io.store import ArtifactStore
from repro.machines import (
    fig1_counter_a,
    fig1_counter_b,
    fig2_machine_a,
    fig2_machine_b,
    mesi,
    mod_counter,
    tcp,
)


class TestMergedAlphabet:
    def test_union_preserves_first_appearance_order(self):
        a, b = fig2_machine_a(), mesi()
        merged = merged_alphabet([a, b])
        assert merged[: a.num_events] == a.events
        assert set(merged) == set(a.events) | set(b.events)

    def test_duplicate_events_not_repeated(self):
        a, b = fig2_machine_a(), fig2_machine_b()
        assert merged_alphabet([a, b]) == (0, 1)


class TestFig2Product:
    def test_reachable_size_is_four(self, fig2_product):
        # The full product has 9 states; only 4 are reachable (Fig. 2(iii)).
        assert fig2_product.num_states == 4

    def test_state_tuples_match_paper(self, fig2_product):
        expected = {("a0", "b0"), ("a1", "b1"), ("a2", "b2"), ("a0", "b2")}
        assert set(fig2_product.state_tuples()) == expected

    def test_initial_state_is_tuple_of_initials(self, fig2_product):
        assert fig2_product.machine.initial == ("a0", "b0")

    def test_projection_recovers_component_state(self, fig2_product):
        top = fig2_product.machine
        for tuple_state in fig2_product.state_tuples():
            index = fig2_product.index_of(tuple_state)
            assert fig2_product.project_state(tuple_state, 0) == tuple_state[0]
            assert fig2_product.project_state(tuple_state, 1) == tuple_state[1]
            assert fig2_product.state_tuple(index) == tuple_state

    def test_projection_array_shape(self, fig2_product):
        assert fig2_product.projections().shape == (2, 4)

    def test_projection_out_of_range(self, fig2_product):
        with pytest.raises(IndexError):
            fig2_product.projection(5)

    def test_unknown_tuple_raises(self, fig2_product):
        with pytest.raises(UnknownStateError):
            fig2_product.index_of(("a1", "b0"))

    def test_top_is_less_than_no_machine(self, fig2_product, machine_a):
        # Every component machine is <= the top: the top simulates them.
        top = fig2_product.machine
        sequence = [0, 1, 0, 0, 1, 1, 0]
        final_top = top.run(sequence)
        assert final_top[0] == machine_a.run(sequence)


class TestFig1Product:
    def test_fig1_product_has_nine_states(self, fig1_counters):
        product = CrossProduct(fig1_counters)
        assert product.num_states == 9

    def test_product_simulates_components(self, fig1_counters):
        product = CrossProduct(fig1_counters)
        top = product.machine
        events = [0, 1, 1, 0, 0, 0, 1]
        expected = tuple(machine.run(events) for machine in fig1_counters)
        assert top.run(events) == expected


class TestGeneralProduct:
    def test_single_machine_product_is_isomorphic(self):
        machine = mesi()
        product = CrossProduct([machine])
        assert product.num_states == machine.num_states

    def test_empty_machine_list_rejected(self):
        with pytest.raises(InvalidMachineError):
            CrossProduct([])

    def test_disjoint_alphabets_full_product(self):
        a, b = mesi(), tcp()
        product = CrossProduct([a, b])
        # With disjoint alphabets every pair of reachable component states
        # is reachable in the product.
        assert product.num_states == a.num_states * b.num_states

    def test_convenience_wrapper_returns_dfsm(self):
        top = reachable_cross_product([fig1_counter_a(), fig1_counter_b()], name="R")
        assert top.name == "R"
        assert top.num_states == 9

    def test_product_events_are_union(self):
        a, b = mesi(), tcp()
        product = CrossProduct([a, b])
        assert set(product.machine.events) == set(a.events) | set(b.events)

    def test_product_of_identical_machines_collapses(self):
        a1 = fig1_counter_a()
        a2 = fig1_counter_a().renamed("copy")
        product = CrossProduct([a1, a2])
        # Identical machines stay in lock-step, so the reachable product
        # has only as many states as one copy.
        assert product.num_states == a1.num_states

    def test_component_label_matrix_matches_partitions(self):
        import numpy as np

        product = CrossProduct([mesi(), tcp()])
        matrix = product.component_label_matrix()
        partitions = product.component_partitions()
        assert matrix.shape == (2, product.num_states)
        assert matrix.dtype == np.int32
        for row, partition in zip(matrix, partitions):
            assert np.array_equal(row, partition.labels)
        with pytest.raises(ValueError):
            matrix[0, 0] = 1  # read-only
        assert product.component_label_matrix() is matrix  # cached


class TestTableNativeConstruction:
    """The top and the backups never detour through the dict API.

    ``DFSM.__init__`` parses a ``{state: {event: next_state}}`` mapping
    into a table; the engine derives machines from tables it already
    holds, so with that parser disabled the product build, a cold fusion
    into a store and the store's warm hit must all still work.
    """

    @pytest.fixture
    def no_dict_parsing(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a derived machine was built through the dict API")

        # Component machines are built before the parser is disabled.
        machines = [
            mod_counter(3, count_event=e, events=tuple(range(8)), name="c%d" % e)
            for e in range(8)
        ]
        monkeypatch.setattr(dfsm_module, "_parse_transitions", refuse)
        return machines

    def test_product_build(self, no_dict_parsing):
        product = CrossProduct(no_dict_parsing)
        assert product.num_states == 3**8

    def test_cold_fusion_and_warm_hit(self, no_dict_parsing, tmp_path):
        # counters-8 (top=6561) takes the sparse engine, ledgers included.
        machines = no_dict_parsing
        store = ArtifactStore(str(tmp_path))
        cold = generate_fusion(machines, 1, store=store)
        assert store.stats.commits
        warm_store = ArtifactStore(str(tmp_path))
        warm = generate_fusion(machines, 1, store=warm_store)
        assert warm_store.stats.hits and not warm_store.stats.commits
        assert warm.summary() == cold.summary()
        for ours, theirs in zip(warm.backups, cold.backups):
            assert ours.structurally_equal(theirs)
