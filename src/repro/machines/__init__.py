"""A library of deterministic finite state machines.

Contains every machine used in the paper's evaluation (MESI, TCP, mod-3
counters, parity checkers, toggle switch, pattern generator, shift
register, divider and the worked-example machines ``A``/``B`` of
Figure 2) plus a broader collection of textbook and protocol machines,
random-machine generators for property tests, and a registry to look any
of them up by name.  The named machine sets the tests and the benchmark
fuse live in :mod:`repro.machines.catalog`.
"""

from .cache import CACHE_EVENTS, mesi, moesi, msi
from .counters import (
    bounded_counter,
    difference_counter,
    divider,
    mod_counter,
    one_counter,
    sum_counter,
    up_down_counter,
    zero_counter,
)
from .misc import (
    elevator,
    sensor_threshold,
    sliding_mode_controller,
    token_ring_station,
    traffic_light,
    turnstile,
    vending_machine,
)
from .paper_examples import (
    FIG3_BLOCKS,
    PAPER_STATE_TUPLES,
    fig1_counter_a,
    fig1_counter_b,
    fig1_fusion_f1,
    fig1_fusion_f2,
    fig1_machines,
    fig2_cross_product,
    fig2_machine_a,
    fig2_machine_b,
    fig2_machines,
    fig3_partition,
    fig3_partition_blocks,
)
from .parity import (
    even_parity_checker,
    multi_parity_checker,
    odd_parity_checker,
    parity_checker,
    toggle_switch,
)
from .patterns import (
    pattern_detector,
    pattern_generator,
    shift_register,
    sliding_window_register,
)
from .random_machines import (
    random_connected_dfsm,
    random_counter_family,
    random_dfsm,
    random_machine_family,
)
from .registry import MACHINE_REGISTRY, available_machines, get_machine, register_machine
from .tcp import TCP_EVENTS, TCP_STATES, tcp, tcp_simplified

__all__ = [
    # cache
    "CACHE_EVENTS",
    "msi",
    "mesi",
    "moesi",
    # counters
    "mod_counter",
    "zero_counter",
    "one_counter",
    "sum_counter",
    "difference_counter",
    "divider",
    "bounded_counter",
    "up_down_counter",
    # parity
    "parity_checker",
    "even_parity_checker",
    "odd_parity_checker",
    "toggle_switch",
    "multi_parity_checker",
    # patterns
    "shift_register",
    "sliding_window_register",
    "pattern_generator",
    "pattern_detector",
    # tcp
    "TCP_EVENTS",
    "TCP_STATES",
    "tcp",
    "tcp_simplified",
    # misc
    "traffic_light",
    "turnstile",
    "vending_machine",
    "elevator",
    "token_ring_station",
    "sensor_threshold",
    "sliding_mode_controller",
    # paper examples
    "fig1_counter_a",
    "fig1_counter_b",
    "fig1_fusion_f1",
    "fig1_fusion_f2",
    "fig1_machines",
    "fig2_machine_a",
    "fig2_machine_b",
    "fig2_machines",
    "fig2_cross_product",
    "fig3_partition",
    "fig3_partition_blocks",
    "FIG3_BLOCKS",
    "PAPER_STATE_TUPLES",
    # random
    "random_dfsm",
    "random_connected_dfsm",
    "random_counter_family",
    "random_machine_family",
    # registry
    "MACHINE_REGISTRY",
    "available_machines",
    "get_machine",
    "register_machine",
]
