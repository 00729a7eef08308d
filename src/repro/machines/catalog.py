"""The workload catalog: the machine sets the tests and the benchmark fuse.

One definition of every named workload, so the frozen summaries, the
byte-identity pins, the smoke tests and ``perfbench`` all fuse the same
machines under the same labels:

* :func:`counters_family` — ``size`` mod-3 counters over a shared
  alphabet of ``size`` events, machine ``c<e>`` counting event ``e``; the
  reachable product is the full ``3^size`` tuple space;
* :func:`mesi_counters_mix` — MESI plus that family on disjoint events;
* :func:`zoo` — TCP, MESI, a parity checker and a counter over one
  shared three-event alphabet (``top`` has 120 states).

``GENERATION_CASES`` are the runtime study's workloads of growing
``|top|``; ``CASES`` adds the cases only the sparse engine can run, and
``EXPECTED_SUMMARIES`` freezes each case's :meth:`FusionResult.summary`
at ``f = 1``.  Callers iterate these dicts and look summaries up by
label, so keys, their order and the machines behind them are part of
the contract.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Sequence

from ..core.dfsm import DFSM
from .cache import mesi
from .counters import mod_counter
from .parity import parity_checker
from .patterns import shift_register
from .tcp import tcp, tcp_simplified

__all__ = [
    "CASES",
    "EXPECTED_SUMMARIES",
    "GENERATION_CASES",
    "ZOO_EVENTS",
    "counters_family",
    "mesi_counters_mix",
    "zoo",
]


def counters_family(size: int) -> List[DFSM]:
    """The shared-alphabet mod-3 counter family with ``size`` machines."""
    return [
        mod_counter(3, count_event=e, events=tuple(range(size)), name="c%d" % e)
        for e in range(size)
    ]


def mesi_counters_mix(size: int) -> List[DFSM]:
    """MESI plus a ``size``-machine counter family on disjoint events.

    The counters ignore MESI's events and vice versa, so the reachable
    product is the full ``4 * 3^size`` tuple space — a protocol mix
    whose failure-dominated lattice levels exercise the descent's
    rejections and dense prune at a scale the counter families never
    reach.
    """
    return [mesi()] + counters_family(size)


#: The zoo's shared alphabet.
ZOO_EVENTS = ("a", "b", "c")


def zoo() -> List[DFSM]:
    """Heterogeneous mid-size originals: protocol, cache, parity, counter."""
    return [
        tcp_simplified(events=ZOO_EVENTS),
        mesi(events=ZOO_EVENTS),
        parity_checker("a", events=ZOO_EVENTS, name="parity-a"),
        mod_counter(3, count_event="b", events=ZOO_EVENTS, name="count-b"),
    ]


def _mesi_counters_shift() -> List[DFSM]:
    events = mesi().events
    return [
        mesi(),
        mod_counter(3, "local_read", events=events, name="rd-ctr"),
        mod_counter(3, "local_write", events=events, name="wr-ctr"),
        shift_register(3, bit_events=("local_read", "local_write"), events=events, name="sr"),
    ]


#: Workloads of growing |top|: shared-alphabet counter families plus protocol mixes.
GENERATION_CASES: Dict[str, Callable[[], Sequence[DFSM]]] = {
    "counters-3 (top=27)": lambda: counters_family(3),
    "counters-5 (top=243)": lambda: counters_family(5),
    "mesi+tcp (top=44)": lambda: [mesi(), tcp()],
    "mesi+counters+shift (top~252)": _mesi_counters_shift,
    # Unlocked by the vectorised descent engine: another ~3x in |top|.
    "counters-6 (top=729)": lambda: counters_family(6),
}

#: The runtime study's workloads plus the tens-to-hundreds-of-thousands
#: of states cases only the sparse engine can run.
CASES: Dict[str, Callable[[], Sequence[DFSM]]] = dict(GENERATION_CASES)
CASES["counters-9 (top=19683)"] = lambda: counters_family(9)
CASES["counters-10 (top=59049)"] = lambda: counters_family(10)
CASES["mesi+counters-8 (top=26244)"] = lambda: mesi_counters_mix(8)
CASES["mesi+counters-9 (top=78732)"] = lambda: mesi_counters_mix(9)
CASES["mesi+counters-10 (top=236196)"] = lambda: mesi_counters_mix(10)


#: ``generate_fusion(CASES[label](), f=1).summary()`` for every case:
#: the semantic outputs every engine change must preserve exactly.
EXPECTED_SUMMARIES: Dict[str, Dict[str, object]] = {
    "counters-3 (top=27)": {
        "originals": ["c0", "c1", "c2"], "f": 1, "top_size": 27,
        "num_backups": 1, "backup_sizes": [3], "fusion_state_space": 3,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
    "mesi+tcp (top=44)": {
        "originals": ["MESI", "TCP"], "f": 1, "top_size": 44,
        "num_backups": 1, "backup_sizes": [44], "fusion_state_space": 44,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
    "counters-5 (top=243)": {
        "originals": ["c0", "c1", "c2", "c3", "c4"], "f": 1, "top_size": 243,
        "num_backups": 1, "backup_sizes": [3], "fusion_state_space": 3,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
    "mesi+counters+shift (top~252)": {
        "originals": ["MESI", "rd-ctr", "wr-ctr", "sr"], "f": 1, "top_size": 252,
        "num_backups": 1, "backup_sizes": [84], "fusion_state_space": 84,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
    "counters-6 (top=729)": {
        "originals": ["c0", "c1", "c2", "c3", "c4", "c5"], "f": 1, "top_size": 729,
        "num_backups": 1, "backup_sizes": [3], "fusion_state_space": 3,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
    "counters-9 (top=19683)": {
        "originals": ["c%d" % e for e in range(9)], "f": 1, "top_size": 19683,
        "num_backups": 1, "backup_sizes": [3], "fusion_state_space": 3,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
    "counters-10 (top=59049)": {
        "originals": ["c%d" % e for e in range(10)], "f": 1, "top_size": 59049,
        "num_backups": 1, "backup_sizes": [3], "fusion_state_space": 3,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
    "mesi+counters-8 (top=26244)": {
        "originals": ["MESI"] + ["c%d" % e for e in range(8)], "f": 1,
        "top_size": 26244,
        "num_backups": 1, "backup_sizes": [12], "fusion_state_space": 12,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
    "mesi+counters-9 (top=78732)": {
        "originals": ["MESI"] + ["c%d" % e for e in range(9)], "f": 1,
        "top_size": 78732,
        "num_backups": 1, "backup_sizes": [12], "fusion_state_space": 12,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
    "mesi+counters-10 (top=236196)": {
        "originals": ["MESI"] + ["c%d" % e for e in range(10)], "f": 1,
        "top_size": 236196,
        "num_backups": 1, "backup_sizes": [12], "fusion_state_space": 12,
        "initial_dmin": 1, "final_dmin": 2, "byzantine_faults_tolerated": 0,
    },
}
