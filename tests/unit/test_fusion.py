"""Unit tests for (f, m)-fusion generation (Algorithm 2) and the fusion order."""

from __future__ import annotations

import pytest

from repro import (
    CrossProduct,
    FusionError,
    FusionExistenceError,
    check_subset_theorem,
    fusion_order_leq,
    fusion_state_space,
    generate_byzantine_fusion,
    generate_fusion,
    is_fusion,
    machine_from_partition,
)
from repro.core.fusion import STRATEGIES
from repro.machines import fig3_partition
from repro.machines.catalog import counters_family


def _machine(name, product):
    return machine_from_partition(product.machine, fig3_partition(name, product), name=name)


class TestGenerateFusionFig2:
    def test_f1_produces_single_two_state_backup(self, fig2_machines_pair):
        result = generate_fusion(fig2_machines_pair, f=1)
        assert result.num_backups == 1
        assert result.backup_sizes == (2,)
        assert result.initial_dmin == 1
        assert result.final_dmin == 2

    def test_f1_backup_is_m6(self, fig2_machines_pair, fig2_product):
        # The paper's walk-through: the algorithm descends top -> M1 -> M6.
        result = generate_fusion(fig2_machines_pair, f=1, product=fig2_product)
        assert result.partitions[0] == fig3_partition("M6", fig2_product)

    def test_f2_produces_two_backups_with_dmin_three(self, fig2_fusion_result):
        assert fig2_fusion_result.num_backups == 2
        assert fig2_fusion_result.final_dmin == 3
        assert fig2_fusion_result.f == 2
        assert fig2_fusion_result.byzantine_f == 1

    def test_result_is_a_valid_fusion(self, fig2_machines_pair, fig2_fusion_result):
        assert is_fusion(fig2_machines_pair, fig2_fusion_result.backups, 2)

    def test_backup_count_equals_dmin_gap(self, fig2_fusion_result):
        gap = fig2_fusion_result.final_dmin - fig2_fusion_result.initial_dmin
        assert fig2_fusion_result.num_backups == gap

    def test_fusion_result_summary(self, fig2_fusion_result):
        summary = fig2_fusion_result.summary()
        assert summary["f"] == 2
        assert summary["top_size"] == 4
        assert summary["num_backups"] == 2
        assert summary["fusion_state_space"] == fig2_fusion_result.fusion_state_space

    def test_all_machines_property(self, fig2_fusion_result, fig2_machines_pair):
        assert fig2_fusion_result.all_machines[: len(fig2_machines_pair)] == tuple(fig2_machines_pair)

    def test_zero_faults_needs_no_backups(self, fig2_machines_pair):
        result = generate_fusion(fig2_machines_pair, f=0)
        assert result.num_backups == 0
        assert result.fusion_state_space == 1


class TestGenerateFusionFig1:
    def test_single_three_state_backup(self, fig1_fusion_result):
        # The automatically generated backup matches the hand-built
        # (n0 + n1) mod 3 fusion in size.
        assert fig1_fusion_result.backup_sizes == (3,)
        assert fig1_fusion_result.top_size == 9

    def test_hand_fusions_are_valid(self, fig1_counters, fig1_hand_fusions):
        for backup in fig1_hand_fusions:
            assert is_fusion(fig1_counters, [backup], 1)

    def test_byzantine_generation_doubles_distance(self, fig1_counters):
        result = generate_byzantine_fusion(fig1_counters, 1)
        assert result.final_dmin >= 3
        assert result.byzantine_f >= 1


class TestExistenceAndLimits:
    def test_max_backups_too_small_raises(self, fig2_machines_pair):
        with pytest.raises(FusionExistenceError):
            generate_fusion(fig2_machines_pair, f=2, max_backups=1)

    def test_max_backups_sufficient(self, fig2_machines_pair):
        result = generate_fusion(fig2_machines_pair, f=2, max_backups=2)
        assert result.num_backups == 2

    def test_empty_machine_set_rejected(self):
        with pytest.raises(FusionError):
            generate_fusion([], f=1)

    def test_negative_faults_rejected(self, fig2_machines_pair):
        with pytest.raises(ValueError):
            generate_fusion(fig2_machines_pair, f=-1)

    def test_unknown_strategy_rejected(self, fig2_machines_pair):
        with pytest.raises(FusionError):
            generate_fusion(fig2_machines_pair, f=1, strategy="not-a-strategy")

    def test_existing_backups_are_topped_up(self, fig2_machines_pair, fig2_product):
        m1 = _machine("M1", fig2_product)
        result = generate_fusion(
            fig2_machines_pair, f=2, existing_backups=[m1], product=fig2_product
        )
        # M1 already lifts dmin to 2, so only one new machine is needed.
        assert result.num_backups == 2  # M1 + one generated machine
        assert result.final_dmin == 3
        assert result.backups[0] is m1


class TestStrategies:
    @pytest.mark.parametrize("strategy", sorted(STRATEGIES))
    def test_every_strategy_yields_a_valid_fusion(self, fig2_machines_pair, strategy):
        result = generate_fusion(fig2_machines_pair, f=2, strategy=strategy)
        assert is_fusion(fig2_machines_pair, result.backups, 2)
        assert result.num_backups == 2

    def test_custom_strategy_callable(self, fig2_machines_pair):
        calls = []

        def pick_last(graph, candidates):
            calls.append(len(candidates))
            return candidates[-1]

        result = generate_fusion(fig2_machines_pair, f=1, strategy=pick_last)
        assert is_fusion(fig2_machines_pair, result.backups, 1)
        assert calls  # the strategy was consulted


class TestFusionPredicates:
    def test_is_fusion_counterexample(self, fig2_machines_pair, fig2_product):
        # {M1, M6} is NOT a (2, 2)-fusion even though each is a (1, 1)-fusion.
        m1, m6 = _machine("M1", fig2_product), _machine("M6", fig2_product)
        assert is_fusion(fig2_machines_pair, [m1], 1)
        assert is_fusion(fig2_machines_pair, [m6], 1)
        assert not is_fusion(fig2_machines_pair, [m1, m6], 2)

    def test_fusion_state_space(self, fig2_product):
        machines = [_machine("M1", fig2_product), _machine("M2", fig2_product)]
        assert fusion_state_space(machines) == 9
        assert fusion_state_space([]) == 1

    def test_subset_theorem_on_basis_fusion(self, fig2_machines_pair, fig2_product):
        # Theorem 3: dropping t machines from an (f, m)-fusion leaves an
        # (f - t, m - t)-fusion.
        backups = [_machine("M1", fig2_product), _machine("M2", fig2_product)]
        assert check_subset_theorem(fig2_machines_pair, backups, f=2, t=1)
        assert check_subset_theorem(fig2_machines_pair, backups, f=2, t=2)

    def test_subset_theorem_requires_valid_fusion(self, fig2_machines_pair, fig2_product):
        backups = [_machine("M1", fig2_product), _machine("M6", fig2_product)]
        with pytest.raises(FusionError):
            check_subset_theorem(fig2_machines_pair, backups, f=2, t=1)

    def test_subset_theorem_bad_t(self, fig2_machines_pair, fig2_product):
        backups = [_machine("M1", fig2_product), _machine("M2", fig2_product)]
        with pytest.raises(ValueError):
            check_subset_theorem(fig2_machines_pair, backups, f=2, t=3)


class TestFusionOrder:
    def test_m1_m2_less_than_m1_top(self, fig2_machines_pair, fig2_product):
        # Section 4: {M1, M2} < {M1, top}, so {M1, top} is not minimal.
        top_machine = _machine("top", fig2_product)
        m1, m2 = _machine("M1", fig2_product), _machine("M2", fig2_product)
        smaller, larger = [m1, m2], [m1, top_machine]
        top = fig2_product.machine
        assert fusion_order_leq(smaller, larger, top)
        assert not fusion_order_leq(larger, smaller, top)

    def test_order_requires_equal_sizes(self, fig2_product):
        top = fig2_product.machine
        assert not fusion_order_leq([_machine("M1", fig2_product)], [], top)

    def test_order_reflexive(self, fig2_product):
        top = fig2_product.machine
        machines = [_machine("M1", fig2_product), _machine("M2", fig2_product)]
        assert fusion_order_leq(machines, machines, top)

    def test_empty_fusions_are_comparable(self, fig2_product):
        assert fusion_order_leq([], [], fig2_product.machine)


class TestSharedAlphabetScaling:
    def test_many_counters_need_single_backup(self):
        # The sensor-network scenario: many counters over a shared stream
        # still need only one backup machine for f = 1.
        counters = counters_family(3)
        result = generate_fusion(counters, f=1)
        assert result.num_backups == 1
        assert is_fusion(counters, result.backups, 1)
