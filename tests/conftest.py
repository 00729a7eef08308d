"""Shared fixtures: the paper's worked-example machines and common systems."""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

from repro import CrossProduct, FaultGraph, generate_fusion
from repro.machines import (
    fig1_counter_a,
    fig1_counter_b,
    fig1_fusion_f1,
    fig1_fusion_f2,
    fig2_cross_product,
    fig2_machine_a,
    fig2_machine_b,
    mesi,
    tcp,
)


@pytest.fixture
def machine_a():
    """Machine A of Figure 2."""
    return fig2_machine_a()


@pytest.fixture
def machine_b():
    """Machine B of Figure 2."""
    return fig2_machine_b()


@pytest.fixture
def fig2_machines_pair(machine_a, machine_b):
    return [machine_a, machine_b]


@pytest.fixture
def fig2_product(fig2_machines_pair):
    """The reachable cross product R({A, B}) of Figure 2(iii)."""
    return CrossProduct(fig2_machines_pair, name="top")


@pytest.fixture
def fig2_top(fig2_product):
    return fig2_product.machine


@pytest.fixture
def fig2_fault_graph(fig2_product):
    """G(top, {A, B}) of Figure 4(ii)."""
    return FaultGraph.from_cross_product(fig2_product)


@pytest.fixture
def fig1_counters():
    """The mod-3 counters A and B of Figure 1."""
    return [fig1_counter_a(), fig1_counter_b()]


@pytest.fixture
def fig1_hand_fusions():
    """The hand-built fusions F1 and F2 of Figure 1."""
    return [fig1_fusion_f1(), fig1_fusion_f2()]


@pytest.fixture
def mesi_machine():
    return mesi()


@pytest.fixture
def tcp_machine():
    return tcp()


@pytest.fixture
def fig1_fusion_result(fig1_counters):
    """Algorithm 2 output for the Figure 1 counters at f=1."""
    return generate_fusion(fig1_counters, f=1)


@pytest.fixture
def fig2_fusion_result(fig2_machines_pair):
    """Algorithm 2 output for the Figure 2 machines at f=2."""
    return generate_fusion(fig2_machines_pair, f=2)


# A heavier hypothesis profile for the "Oracles" CI step
# (``--hypothesis-profile=oracle``); tests that pin ``max_examples``
# themselves keep their own count.
settings.register_profile(
    "oracle", max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)
