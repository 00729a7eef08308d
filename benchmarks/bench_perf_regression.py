"""Perf-regression harness: per-stage timings with a persisted baseline.

Runs Algorithm 2 over the runtime-study workloads (plus the larger
cases each engine generation unlocked: ``counters-6`` for the vectorised
engine; ``counters-9``, ``|top| = 19683``, for the sparse engine; and
``counters-10``, ``|top| = 59049``, plus the ``mesi+counters-8``
protocol mix, ``|top| = 26244``, for the recursive-join / shared-memory
engine), records wall-clock and per-stage timings through
:class:`repro.utils.timing.Stopwatch`, and emits a machine-readable
``BENCH_perf.json`` at the repository root so subsequent PRs have a
trajectory to beat:

    PYTHONPATH=src python benchmarks/bench_perf_regression.py

The stage breakdown attributes the fault-graph cost explicitly:
``graph_assemble`` is graph construction plus folding in existing
backups, and ``ledger_build`` is the initial ``dmin`` — i.e. the sparse
pair ledger's Hamming ball around each top state (the dominant
pre-descent cost at large ``|top|``), or the condensed-vector min scan
on dense cases.

``PRE_PR_BASELINE_SECONDS`` pins the wall-clock numbers measured at the
seed commit (278f16b, pre-vectorisation) on the reference container, and
``EXPECTED_SUMMARIES`` freezes the semantic outputs (backup count, backup
sizes, dmin) every optimisation must reproduce byte-for-byte.  The pytest
entry points assert the semantic half strictly and the timing half with
generous absolute guards, so CI catches real regressions without being
flaky on slow runners.

Cases only the sparse engines can run have no seed-engine measurement,
so ``pre_pr_seconds`` is ``None`` there; for those,
``FIRST_RECORDED_SECONDS`` pins the *first* wall-clock ever recorded on
the reference container (the PR that introduced the case), and
``speedup_vs_first_recorded`` keeps their trajectory comparable across
PRs.  ``counters-9`` was first recorded at 4.66 s (PR 2's
single-process pigeonhole join); ``counters-10`` and the
``mesi+counters-8`` mix entered with PR 3's recursive-join numbers —
``counters-10`` previously exceeded the candidate budget outright (its
3-machine group joins materialise 64.5 M candidates; the recursive
refinement splits them below the leaf target).  ``mesi+counters-9``
(top=78732) enters with the incremental doomed-pair prune:
under PR 3's engine the case spent ~27 s of ~42 s inside the pruning
fixpoint on the reference container (up to ~40 s of ~68 s under load)
and was left out of the suite to respect the 60 s guard.

Besides the per-stage seconds, every case carries a ``prune_stats``
block: fixpoint rounds (backward and forward), budget units spent, keys
seeded from cross-level reuse, and — crucially — the ``truncated``
count, so silent under-pruning from the ``budget``/``max_rounds`` early
stop is visible in the trajectory instead of masquerading as a slow
``closure`` stage.

Schema ``repro-bench-perf/3`` (PR 5) additionally records
``exclusive_seconds`` per stage: ``prune`` and ``closure`` nest inside
``descent``, so inclusive per-stage seconds deliberately overlap;
the exclusive figures subtract nested measurements and therefore *add
up*, which is what the stage-attribution claims in ``docs/performance.md``
are based on.  ``stage_entries_are_consistent`` pins the invariant in
``--check`` and in tier-1 (``tests/unit/test_bench_schema.py``).
``mesi+counters-10 (top=236196)`` — the narrow-key flagship, whose
cap-3 ledger build alone previously blew the 60 s guard — enters the
suite with PR 5.

Schema ``repro-bench-perf/4`` (PR 6) adds a ``resilience_stats`` block
per case: worker crashes, watchdog timeouts, pool rebuilds, bundle
re-publications, wave replays, serial degradations and injected chaos
faults, as counted by the self-healing layer
(:mod:`repro.core.resilience`).  Fusion generation no longer uses a
worker pool, so the block is all-zero; it stays so the schema holds.

Schema ``repro-bench-perf/5`` (PR 7) adds a top-level ``runtime`` block
recorded by ``benchmarks/bench_runtime_throughput.py``: streaming
events/sec of the vectorized execution engine at 10^5–10^6 concurrent
instances plus batched Algorithm-3 recovery latency under injected
crash/Byzantine faults.  The two harnesses write the same file without
clobbering each other: this one preserves an existing ``runtime`` block
when it rewrites the fusion ``cases``, and the throughput harness only
replaces ``runtime``.

Schema ``repro-bench-perf/6`` (PR 8) adds a top-level ``store`` block
written by ``benchmarks/bench_store_smoke.py``: crash-durability
evidence for the artifact store (:mod:`repro.io.store`) — a seeded
``kill_between_levels`` SIGKILL mid-descent, the chaos-free resume that
reclaimed the stale lock and replayed from the committed checkpoint
byte-identically, and the warm-cache hit latency of a fully cached
call that skipped ``product_build``, ``ledger_build`` and ``descent``.
All three harnesses preserve each other's blocks; ``--check`` and
``tests/unit/test_bench_schema.py`` validate the committed evidence.

Schema ``repro-bench-perf/7`` (PR 9) adds a top-level ``network`` block
written by ``benchmarks/bench_network_chaos_smoke.py``: the adversarial
network fabric's resilience evidence — a seeded drop/reorder/partition
schedule injected between the coordinator and the machine-zoo fleet,
defeated by the delivery protocol (sequence numbers, exactly-once
application, retry with backoff, heartbeats) so both execution engines
finish byte-identical to a fabric-free reference, plus an ``f_sweep``
(``f = 1..3``) recording fusion-generation seconds and delivery counts
at increasing redundancy.  All four harnesses preserve each other's
blocks.

Schema ``repro-bench-perf/8`` (PR 10) adds a top-level ``resources``
block written by ``benchmarks/bench_resource_smoke.py``: the resource
governor's degradation evidence (:mod:`repro.core.budget`) — the
flagship run under a deliberately tiny ``REPRO_MEMORY_BUDGET``, forcing
at least one spill of the ledger merges to external sorted runs, and a
pooled fleet stepping while ``/dev/shm`` reports no free space, forcing
at least one publish to fall back to a file-backed segment, both
finishing byte-identical to their references with identical
``prune_stats`` and zero stranded segments.  All five harnesses preserve each other's blocks.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Callable, Dict, Sequence

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.fusion import generate_fusion
from repro.utils.timing import Stopwatch

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

from bench_runtime import GENERATION_CASES

from repro.machines import mesi, mod_counter


def _counters_family(size: int):
    """The shared-alphabet mod-3 counter family with ``size`` machines."""
    return [
        mod_counter(3, count_event=e, events=tuple(range(size)), name="c%d" % e)
        for e in range(size)
    ]


def _mesi_counters_mix(size: int):
    """MESI plus a ``size``-machine counter family on disjoint events.

    The counters ignore MESI's events and vice versa, so the reachable
    product is the full ``4 * 3^size`` tuple space — a protocol mix
    whose failure-dominated lattice levels exercise the sparse pruning
    fixpoint at a scale the counter families never reach.
    """
    return [mesi()] + [
        mod_counter(3, count_event=e, events=tuple(range(size)), name="c%d" % e)
        for e in range(size)
    ]

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_perf.json"
)

#: Current payload schema, shared with ``bench_runtime_throughput.py``
#: (which contributes the top-level ``runtime`` block),
#: ``bench_store_smoke.py`` (the top-level ``store`` block),
#: ``bench_network_chaos_smoke.py`` (the top-level ``network`` block)
#: and ``bench_resource_smoke.py`` (the top-level ``resources`` block),
#: asserted against the committed file by
#: ``tests/unit/test_bench_schema.py``.
SCHEMA = "repro-bench-perf/8"

#: Wall-clock seconds at the seed commit (pre-PR dense/Python engine),
#: measured on the reference container.  ``counters-6`` had no pre-PR
#: entry in the runtime study; its seed-engine time is recorded here from
#: the same measurement session for completeness.
PRE_PR_BASELINE_SECONDS: Dict[str, float] = {
    "counters-3 (top=27)": 0.0016,
    "mesi+tcp (top=44)": 0.403,
    "counters-5 (top=243)": 0.0162,
    "mesi+counters+shift (top~252)": 0.821,
    "counters-6 (top=729)": 0.0828,
    # No feasible pre-PR (dense-engine) measurement exists for the
    # sparse-engine cases; see the module docstring and
    # FIRST_RECORDED_SECONDS.
    "counters-9 (top=19683)": None,
    "counters-10 (top=59049)": None,
    "mesi+counters-8 (top=26244)": None,
    "mesi+counters-9 (top=78732)": None,
    "mesi+counters-10 (top=236196)": None,
}

#: First wall-clock ever recorded per sparse-engine case on the
#: reference container (the PR that introduced the case), so cases with
#: no seed-engine baseline still have a comparable perf trajectory.
FIRST_RECORDED_SECONDS: Dict[str, float] = {
    # PR 2: single-process pigeonhole join, serial graph_build ~3.6 s.
    "counters-9 (top=19683)": 4.655026,
    # PR 3 (recursive join + incremental ledger): previously the cases
    # exceeded the sparse candidate budget before producing any answer,
    # so these pin the introduction figures (speedup 1.0 by definition).
    "counters-10 (top=59049)": 10.4023,
    "mesi+counters-8 (top=26244)": 7.8105,
    # PR 4 (parallel/incremental doomed-pair prune): under PR 3's serial
    # fixpoint the case ran ~42 s on the reference container (27 s of it
    # in prune) and was kept out of the suite; the incremental engine's
    # introduction figure pins it here (speedup 1.0 by definition).
    "mesi+counters-9 (top=78732)": 22.802,
    # PR 5 (narrow keys + disjoint shift-packed leaves + parallel merge
    # tree): under PR 4's engine the case sat far outside the guard —
    # its cap-3 pigeonhole merge alone sorted ~90M duplicate-laden
    # int64 keys; the disjoint leaves cut that to 31M distinct packed
    # int32/int64 entries and the case enters here (speedup 1.0 by
    # definition).
    "mesi+counters-10 (top=236196)": 46.3655,
}

#: Semantic outputs every engine change must preserve exactly.
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


#: The runtime study's workloads are the perf baseline's workloads — one
#: definition, shared with ``bench_runtime.py``, so both suites always
#: measure the same machines under the same case names — plus the
#: tens-of-thousands-of-states case only the sparse engine can run.
CASES: Dict[str, Callable[[], Sequence]] = dict(GENERATION_CASES)
CASES["counters-9 (top=19683)"] = lambda: _counters_family(9)
CASES["counters-10 (top=59049)"] = lambda: _counters_family(10)
CASES["mesi+counters-8 (top=26244)"] = lambda: _mesi_counters_mix(8)
CASES["mesi+counters-9 (top=78732)"] = lambda: _mesi_counters_mix(9)
CASES["mesi+counters-10 (top=236196)"] = lambda: _mesi_counters_mix(10)

#: Fields every case's ``prune_stats`` block must carry (schema
#: ``repro-bench-perf/3``; checked by ``--check`` and by
#: ``tests/unit/test_bench_schema.py`` against the committed file).
PRUNE_STATS_FIELDS = (
    "calls", "rounds", "forward_rounds", "spent", "truncated", "seeded",
)

#: Fields every case's ``resilience_stats`` block must carry (schema
#: ``repro-bench-perf/4``) — the self-healing layer's counters, all zero
#: unless workers crashed, hung or were chaos-injected during the run.
RESILIENCE_STATS_FIELDS = (
    "crashes", "timeouts", "rebuilds", "republished", "retries", "degraded", "chaos",
)

#: Fields the top-level ``store`` block must carry (schema
#: ``repro-bench-perf/6``, written by ``bench_store_smoke.py``): the
#: crash-recovery evidence plus the warm-cache hit latency.
STORE_BLOCK_FIELDS = (
    "case", "chaos", "byte_identical", "resume_seconds", "resume_stats",
    "warm_hit_seconds", "warm_stages", "store_stats",
)


def store_block_is_consistent(block) -> bool:
    """Schema-v6 invariants for the crash-durability evidence.

    The block must attest a byte-identical resume that actually replayed
    a committed checkpoint (``resumed_levels >= 1``) after reclaiming
    the dead owner's lock, and a warm hit that recomputed none of
    ``product_build`` / ``ledger_build`` / ``descent`` and committed
    nothing.
    """
    if block is None or not all(field in block for field in STORE_BLOCK_FIELDS):
        return False
    if block["byte_identical"] is not True:
        return False
    if block["resume_stats"].get("resumed_levels", 0) < 1:
        return False
    if block["resume_stats"].get("stale_locks", 0) < 1:
        return False
    if not 0 < block["warm_hit_seconds"] < block["resume_seconds"]:
        return False
    if block["store_stats"].get("commits", 0) != 0:
        return False
    forbidden = {"product_build", "ledger_build", "descent"}
    return not forbidden & set(block["warm_stages"])


#: Fields the top-level ``network`` block must carry (schema
#: ``repro-bench-perf/7``, written by ``bench_network_chaos_smoke.py``):
#: the fabric's resilience evidence plus the f-sweep trajectory.
NETWORK_BLOCK_FIELDS = (
    "case", "chaos", "events", "engines", "fault_free_equivalent",
    "run_seconds", "delivery", "f_sweep", "shm_stranded",
)


def network_block_is_consistent(block) -> bool:
    """Schema-v7 invariants for the network-resilience evidence.

    The block must attest a fault-free-equivalent run on both execution
    engines under a chaos schedule that actually fired (``dropped > 0``
    in the delivery summary), an ``f_sweep`` covering ``f = 1..3`` in
    which every run stayed healthy with positive fusion-generation
    seconds, and zero stranded ``/dev/shm`` segments.
    """
    if block is None or not all(field in block for field in NETWORK_BLOCK_FIELDS):
        return False
    if block["fault_free_equivalent"] is not True:
        return False
    if set(block["engines"]) != {"vectorized", "python"}:
        return False
    delivery = block["delivery"]
    if delivery.get("delivered", 0) <= 0 or delivery.get("dropped", 0) <= 0:
        return False
    if block["shm_stranded"] != 0:
        return False
    sweep = {entry["f"]: entry for entry in block["f_sweep"]}
    if sorted(sweep) != [1, 2, 3]:
        return False
    for entry in sweep.values():
        if entry["status"] != "healthy":
            return False
        if not entry["fusion_seconds"] > 0 or entry["delivered"] <= 0:
            return False
        if entry["backups"] < 1 or entry["fleet"] <= entry["backups"]:
            return False
    return True


#: Fields the top-level ``resources`` block must carry (schema
#: ``repro-bench-perf/8``, written by ``bench_resource_smoke.py``): the
#: resource governor's graceful-degradation evidence.
RESOURCES_BLOCK_FIELDS = (
    "case", "budget", "shm_free_bytes", "workers", "byte_identical",
    "prune_stats_equal", "run_seconds", "stats", "shm_stranded",
)


def resources_block_is_consistent(block) -> bool:
    """Schema-v8 invariants for the resource-governor evidence.

    The block must attest a byte-identical budget-constrained run whose
    governor actually degraded: at least one merge spilled to external
    sorted runs, at least one ``/dev/shm`` publish fell back to a
    file-backed segment (the pooled fleet saw a full ``/dev/shm``), the
    ``prune_stats`` matched the unbounded reference exactly, and no
    ``/dev/shm`` segment was left behind.
    """
    if block is None or not all(field in block for field in RESOURCES_BLOCK_FIELDS):
        return False
    if block["byte_identical"] is not True:
        return False
    if block["prune_stats_equal"] is not True:
        return False
    if not block["run_seconds"] > 0:
        return False
    stats = block["stats"]
    if stats.get("spills", 0) < 1 or stats.get("spilled_bytes", 0) <= 0:
        return False
    if stats.get("shm_fallbacks", 0) < 1:
        return False
    return block["shm_stranded"] == 0


def stage_entries_are_consistent(stages: Dict[str, Dict[str, float]]) -> bool:
    """Schema-v3 stage invariants: every entry carries both clocks.

    Each stage must report ``exclusive_seconds`` with
    ``0 <= exclusive_seconds <= seconds`` (up to float tolerance), and a
    nested pair like ``prune``/``closure`` inside ``descent`` must
    account exactly: the parent's inclusive time is its exclusive time
    plus the children's inclusive times.
    """
    for entry in stages.values():
        exclusive = entry.get("exclusive_seconds")
        if exclusive is None:
            return False
        if not -1e-6 <= exclusive <= entry["seconds"] + 1e-6:
            return False
    if "descent" in stages:
        nested = sum(
            stages[name]["seconds"] for name in ("prune", "closure")
            if name in stages
        )
        descent = stages["descent"]
        if abs(descent["seconds"] - descent["exclusive_seconds"] - nested) > 1e-3:
            return False
    return True

#: Generous absolute wall-clock guards (seconds) for CI runners of
#: unknown speed.  The real trajectory lives in BENCH_perf.json.
WALL_CLOCK_GUARDS: Dict[str, float] = {
    "counters-3 (top=27)": 5.0,
    "mesi+tcp (top=44)": 10.0,
    "counters-5 (top=243)": 10.0,
    "mesi+counters+shift (top~252)": 15.0,
    "counters-6 (top=729)": 30.0,
    # The runtime study's practicality bound, applied strictly: the
    # sparse engine clears it by an order of magnitude on the reference
    # container (~2 s), and the dense engines cannot run the case at all.
    "counters-9 (top=19683)": 60.0,
    # Same strict bound for the recursive-join flagship (~10 s on the
    # reference container) and the large protocol mixes (~8 s / ~24 s).
    "counters-10 (top=59049)": 60.0,
    "mesi+counters-8 (top=26244)": 60.0,
    # Too close to the bound under PR 3 (~42 s on the reference
    # container, ~27 s of it in the serial pruning fixpoint — up to ~68 s
    # under load); the parallel/incremental prune halved the fixpoint
    # and brought the case comfortably inside the guard.
    "mesi+counters-9 (top=78732)": 60.0,
    # The narrow-key flagship: infeasible before PR 5 (the cap-3 ledger
    # merge alone blew the guard), now ~40 s on the reference container.
    "mesi+counters-10 (top=236196)": 60.0,
}


def _warm_up() -> None:
    """Pay one-time lazy-import and allocation costs outside the timers."""
    generate_fusion(CASES["counters-3 (top=27)"](), f=1)


def run_case(name: str, rounds: int = 1) -> Dict[str, object]:
    """Time one workload; returns wall-clock, per-stage breakdown and summary."""
    best = float("inf")
    record: Dict[str, object] = {}
    for _ in range(max(1, rounds)):
        machines = CASES[name]()
        watch = Stopwatch()
        start = time.perf_counter()
        result = generate_fusion(machines, f=1, stopwatch=watch)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            pre = PRE_PR_BASELINE_SECONDS.get(name)
            first = FIRST_RECORDED_SECONDS.get(name)
            stages = watch.as_dict()
            prune_stage = stages.get("prune", {})
            record = {
                "seconds": round(elapsed, 6),
                # "descent" contains "prune" and "closure"; the other
                # stages (product_build, graph_assemble, ledger_build)
                # partition the remaining wall-clock.
                "stages": stages,
                # Always present (zeros when the descent never pruned):
                # the fixpoint's structural outcome, so truncation-driven
                # under-pruning can never hide in the timing noise.
                "prune_stats": {
                    "calls": int(prune_stage.get("count", 0)),
                    "rounds": int(prune_stage.get("rounds", 0)),
                    "forward_rounds": int(prune_stage.get("forward_rounds", 0)),
                    "spent": int(prune_stage.get("spent", 0)),
                    "truncated": int(prune_stage.get("truncated", 0)),
                    "seeded": int(prune_stage.get("seeded", 0)),
                },
                # Always present (all-zero in a healthy run): what the
                # self-healing layer did — crashes healed, watchdog
                # timeouts, bundle re-publications, serial degradations
                # and injected chaos faults.
                "resilience_stats": {
                    field: int(stages.get("resilience", {}).get(field, 0))
                    for field in RESILIENCE_STATS_FIELDS
                },
                "summary": result.summary(),
                "engine": "sparse" if result.graph.is_sparse else "dense",
                # For sparse runs: stored low-weight pairs — the O(nnz)
                # the engine actually holds instead of the O(|top|^2)
                # condensed vector.
                "ledger_nnz": (
                    result.graph.ledger.nnz if result.graph.ledger is not None else None
                ),
                "pre_pr_seconds": pre,
                "speedup_vs_pre_pr": round(pre / elapsed, 2) if pre else None,
                # Sparse-engine cases have no feasible seed-engine
                # baseline; their trajectory is measured against the
                # first figure ever recorded for the case instead.
                "first_recorded_seconds": first,
                "speedup_vs_first_recorded": (
                    round(first / elapsed, 2) if first else None
                ),
            }
    return record


def run_suite(rounds: int = 1) -> Dict[str, object]:
    """Run every case and assemble the BENCH_perf.json payload."""
    _warm_up()
    cases = {name: run_case(name, rounds=rounds) for name in CASES}
    return {
        "schema": SCHEMA,
        "note": (
            "Wall-clock seconds per Algorithm-2 workload with per-stage "
            "breakdown (inclusive seconds plus nesting-corrected "
            "exclusive_seconds), doomed-pair prune_stats (rounds/spent/"
            "truncated/seeded) and self-healing resilience_stats (crashes/"
            "timeouts/rebuilds/retries/degraded/chaos, all-zero in a "
            "healthy run). pre_pr_seconds pins the seed-commit engine "
            "on the reference container; regenerate with "
            "PYTHONPATH=src python benchmarks/bench_perf_regression.py. "
            "The top-level runtime block is the streaming engine's "
            "throughput/recovery-latency trajectory, written by "
            "benchmarks/bench_runtime_throughput.py. The top-level store "
            "block is the artifact store's crash-durability evidence "
            "(SIGKILL mid-descent, byte-identical resume, warm-cache hit "
            "latency), written by benchmarks/bench_store_smoke.py. The "
            "top-level network block is the adversarial fabric's "
            "resilience evidence (seeded drop/reorder/partition schedule "
            "defeated byte-identically on both engines, f-sweep at "
            "f=1..3), written by benchmarks/bench_network_chaos_smoke.py. "
            "The top-level resources block is the resource governor's "
            "degradation evidence (forced merge spill under a tiny memory "
            "budget plus publish fallbacks under a full /dev/shm, "
            "byte-identical to the unbounded reference), written by "
            "benchmarks/bench_resource_smoke.py"
        ),
        "cases": cases,
    }


def write_results(rounds: int = 1, path: str = RESULT_PATH) -> Dict[str, object]:
    payload = run_suite(rounds=rounds)
    # Preserve the streaming-runtime trajectory contributed by
    # bench_runtime_throughput.py, the crash-durability evidence
    # contributed by bench_store_smoke.py, the network-resilience
    # evidence contributed by bench_network_chaos_smoke.py and the
    # resource-governor evidence contributed by
    # bench_resource_smoke.py; only the fusion cases are re-measured
    # here.
    if os.path.exists(path):
        with open(path) as handle:
            previous = json.load(handle)
        for block in ("runtime", "store", "network", "resources"):
            if block in previous:
                payload[block] = previous[block]
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")
    return payload


# ----------------------------------------------------------------------
# pytest entry points (run as part of the benchmark suite / CI smoke)
# ----------------------------------------------------------------------
@pytest.mark.parametrize("case", list(CASES))
def test_summaries_are_frozen(case):
    """The optimised engine must reproduce the seed engine's outputs exactly."""
    result = generate_fusion(CASES[case](), f=1)
    assert result.summary() == EXPECTED_SUMMARIES[case]


@pytest.mark.parametrize("case", list(CASES))
def test_wall_clock_guard(case):
    """Loose absolute bound so gross perf regressions fail fast in CI."""
    machines = CASES[case]()
    start = time.perf_counter()
    generate_fusion(machines, f=1)
    elapsed = time.perf_counter() - start
    assert elapsed < WALL_CLOCK_GUARDS[case], (
        "%s took %.2fs, guard is %.1fs" % (case, elapsed, WALL_CLOCK_GUARDS[case])
    )


def test_counters6_well_under_runtime_bound():
    """The new top=729 case must clear the runtime study's 60 s bound easily."""
    start = time.perf_counter()
    result = generate_fusion(CASES["counters-6 (top=729)"](), f=1)
    elapsed = time.perf_counter() - start
    assert result.summary() == EXPECTED_SUMMARIES["counters-6 (top=729)"]
    assert elapsed < 30.0


def test_counters9_sparse_engine_within_runtime_bound():
    """The top=19683 flagship: 60 s bound *and* no dense pair allocation.

    ``counters-9`` only exists because of the sparse engine — the dense
    condensed vector alone would be ~1.5 GB and the descent's ``(B, B)``
    pruning matrix ~3 GB more — so besides the wall-clock bound this
    asserts the run actually stayed sparse: the final graph is in ledger
    mode and refuses to materialise the ``O(n^2)`` dense export.
    """
    import pytest as _pytest

    from repro.core.exceptions import PartitionError

    start = time.perf_counter()
    result = generate_fusion(CASES["counters-9 (top=19683)"](), f=1)
    elapsed = time.perf_counter() - start
    assert result.summary() == EXPECTED_SUMMARIES["counters-9 (top=19683)"]
    assert elapsed < 60.0
    assert result.graph.is_sparse
    assert result.graph.ledger is not None and result.graph.ledger.nnz < 10**6
    with _pytest.raises(PartitionError):
        result.graph.condensed_weights


def test_mesi_counters9_prune_within_runtime_bound():
    """The top=78732 protocol mix: the incremental prune flagship.

    Infeasible to include under PR 3 — the serial doomed-pair fixpoint
    alone ate half the 60 s guard — this case now runs well inside the
    bound, stays sparse, seeds its lower levels from the upper ones, and
    reports an untruncated prune.
    """
    name = "mesi+counters-9 (top=78732)"
    machines = CASES[name]()
    watch = Stopwatch()
    start = time.perf_counter()
    result = generate_fusion(machines, f=1, stopwatch=watch)
    elapsed = time.perf_counter() - start
    assert result.summary() == EXPECTED_SUMMARIES[name]
    assert elapsed < 60.0
    assert result.graph.is_sparse
    prune = watch.as_dict()["prune"]
    assert prune["rounds"] >= 1
    assert prune["seeded"] > 0  # the incremental cross-level reuse engaged
    assert prune["truncated"] == 0


def test_mesi_counters10_narrow_key_within_runtime_bound():
    """The top=236196 narrow-key flagship: the largest case in the suite.

    Infeasible before PR 5: the cap-3 pigeonhole ledger alone merged
    ~90M duplicate-laden int64 keys (the build blew the 60 s guard by
    itself).  The disjoint exclusion-masked leaves cut the merge input
    to ~31M distinct entries, shift-packed narrow keys halve the bytes
    every sort and membership pass moves, and the case now clears the
    runtime-study bound with margin.  Generation is serial whatever
    ``REPRO_FUSION_WORKERS`` says, so no worker count changes this run.
    """
    name = "mesi+counters-10 (top=236196)"
    machines = CASES[name]()
    watch = Stopwatch()
    start = time.perf_counter()
    result = generate_fusion(machines, f=1, stopwatch=watch)
    elapsed = time.perf_counter() - start
    assert result.summary() == EXPECTED_SUMMARIES[name]
    assert elapsed < 60.0
    assert result.graph.is_sparse
    stages = watch.as_dict()
    assert stage_entries_are_consistent(stages)
    prune = stages["prune"]
    assert prune["seeded"] > 0
    # The top level deliberately truncates: converging it costs ~65 s of
    # expansion to save ~1.5 s of exact closure checks (see
    # fusion._PRUNE_BUDGET).  The trade must stay *visible* — exactly one
    # budgeted stop, reported — not silent or creeping.
    assert prune["truncated"] <= 1


def test_counters10_recursive_join_within_runtime_bound():
    """The top=59049 flagship of the recursive-join engine, 60 s bound.

    PR 2's single-level pigeonhole join could not run this case at all:
    its 3-machine group joins materialise 64.5 M candidate pairs, past
    the sparse candidate budget.  The Hamming ball looks up about 6 M
    shifted keys instead, so besides the runtime-study bound this
    asserts the run stayed sparse and the stored ledger stayed a small
    fraction of the 1.7 G-pair space.
    """
    start = time.perf_counter()
    result = generate_fusion(CASES["counters-10 (top=59049)"](), f=1)
    elapsed = time.perf_counter() - start
    assert result.summary() == EXPECTED_SUMMARIES["counters-10 (top=59049)"]
    assert elapsed < 60.0
    assert result.graph.is_sparse
    assert result.graph.ledger is not None and result.graph.ledger.nnz < 4 * 10**6


def main(argv: Sequence[str]) -> int:
    rounds = 3
    for arg in argv:
        if arg.startswith("--rounds="):
            try:
                rounds = int(arg.split("=", 1)[1])
            except ValueError:
                print("invalid --rounds value %r (want an integer)" % arg.split("=", 1)[1])
                return 2
    payload = write_results(rounds=rounds)
    for name, record in payload["cases"].items():
        speedup = record.get("speedup_vs_pre_pr")
        against = "pre-PR"
        if not speedup:
            speedup = record.get("speedup_vs_first_recorded")
            against = "first recorded"
        print(
            "%-32s %8.4fs  speedup vs %s: %s"
            % (name, record["seconds"], against, ("%.1fx" % speedup) if speedup else "n/a")
        )
    if "--check" in argv:
        failures = [
            name
            for name, record in payload["cases"].items()
            if record["summary"] != EXPECTED_SUMMARIES[name]
            or record["seconds"] >= WALL_CLOCK_GUARDS[name]
            or sorted(record.get("prune_stats", {})) != sorted(PRUNE_STATS_FIELDS)
            or sorted(record.get("resilience_stats", {}))
            != sorted(RESILIENCE_STATS_FIELDS)
            or not stage_entries_are_consistent(record["stages"])
        ]
        if not store_block_is_consistent(payload.get("store")):
            failures.append(
                "store block (run benchmarks/bench_store_smoke.py to "
                "regenerate the crash-durability evidence)"
            )
        if not network_block_is_consistent(payload.get("network")):
            failures.append(
                "network block (run benchmarks/bench_network_chaos_smoke.py "
                "to regenerate the network-resilience evidence)"
            )
        if not resources_block_is_consistent(payload.get("resources")):
            failures.append(
                "resources block (run benchmarks/bench_resource_smoke.py "
                "to regenerate the resource-governor evidence)"
            )
        if failures:
            print("FAILED cases: %s" % ", ".join(failures))
            return 1
    print("wrote %s" % RESULT_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
