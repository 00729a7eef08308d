"""Catalog machine sets shared by the Algorithm 3 and simulation suites.

Beyond the shared-alphabet counters: the Fig. 1 pair, machines on
disjoint alphabets, a protocol mix with a shift register, and the zoo of
four heterogeneous machines on one alphabet.
"""

from __future__ import annotations

from repro.machines import fig1_counter_a, fig1_counter_b
from repro.machines.catalog import GENERATION_CASES, zoo

MACHINE_SETS = {
    "fig1": lambda: [fig1_counter_a(), fig1_counter_b()],
    "counters-3": GENERATION_CASES["counters-3 (top=27)"],
    "counters-5": GENERATION_CASES["counters-5 (top=243)"],
    "mesi+tcp": GENERATION_CASES["mesi+tcp (top=44)"],
    "mesi+counters+shift": GENERATION_CASES["mesi+counters+shift (top~252)"],
    "zoo": zoo,
}
