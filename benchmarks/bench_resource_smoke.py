"""Resource smoke: starve the flagship, finish byte-identical.

The CI low-budget job proves the graceful-degradation contract of the
resource governor (:mod:`repro.core.budget`) and of the shared-segment
publish (:mod:`repro.core.shm`) on the ``counters-9 (top=19683)``
flagship:

1. an unbounded reference run records the ground-truth partition bytes
   and ``prune_stats``;
2. the same fusion reruns under a deliberately tiny memory budget — the
   ledger merge must spill at least one fold to external sorted runs on
   scratch;
3. a pooled 2-worker fleet of that fusion then steps while
   ``/dev/shm`` reports no free space (``shm.shm_free_bytes`` patched
   to 0) — the runtime's table and state publishes must fall back to
   file-backed mmap segments (fusion itself publishes no segments; a
   smoke that never degrades proves nothing);
4. the starved run must finish with partition bytes *and*
   ``prune_stats`` identical to the reference, and the fleet with state
   matrices identical to a serial fleet — graceful degradation may
   cost time, never correctness;
5. zero ``psm_*`` shared-memory segments and zero spill scratch files
   may survive the clean finish.

The spill/fallback evidence is recorded as the top-level ``resources``
block of ``BENCH_perf.json`` (schema ``repro-bench-perf/8``),
preserved by the other harnesses the same way they preserve each
other's blocks, and validated by ``bench_perf_regression.py --check``
and ``tests/unit/test_bench_schema.py``.  Run it exactly as CI does::

    PYTHONPATH=src python benchmarks/bench_resource_smoke.py

Exits non-zero on any violated guarantee.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys
import time

import numpy as np

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import repro.core.shm as shm_module
from repro.core.fusion import generate_fusion
from repro.core.resilience import assert_no_owned_segments
from repro.core.runtime import VectorizedRuntime
from repro.core.shm import SharedWorkerPool
from repro.machines import mod_counter
from repro.utils.timing import Stopwatch

RESULT_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCH_perf.json"
)

CASE = "counters-9 (top=19683)"

#: Small enough that the ledger merges overrun it and spill (their
#: transient peak is tens of MB on this case), large enough that the
#: spill windows still make progress.
MEMORY_BUDGET = "1M"

#: The free ``/dev/shm`` bytes the pooled fleet sees: none, so every
#: publish (the runtime's transition tables and state scratch) must go
#: to a file-backed segment instead.
SHM_FREE_BYTES = 0

WORKERS = 2

#: The runtime's default pool gate (2^16 instances): every step pools.
INSTANCES = 1 << 16


def _counters(size: int):
    return [
        mod_counter(3, count_event=e, events=tuple(range(size)), name="c%d" % e)
        for e in range(size)
    ]


def _labels_digest(result) -> str:
    digest = hashlib.sha256()
    for partition in result.partitions:
        digest.update(partition.labels.tobytes())
    return digest.hexdigest()


def _run_fleet(machines, pool):
    """Final ``(true, visible, status)`` matrices of one seeded fleet run."""
    rng = np.random.default_rng(17)
    matrix = rng.integers(0, 9, size=(4, INSTANCES))
    with VectorizedRuntime(machines, INSTANCES, pool=pool, workers=0) as runtime:
        runtime.apply_event_matrix(matrix)
        return runtime.true_states, runtime.visible_states, runtime.statuses


def _shm_segments():
    try:
        return sorted(f for f in os.listdir("/dev/shm") if f.startswith("psm_"))
    except OSError:
        return []


def record_resources_block(block: dict, path: str = RESULT_PATH) -> None:
    """Merge the ``resources`` block into BENCH_perf.json, preserving
    the blocks the other harnesses contribute."""
    payload = {}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload["resources"] = block
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


def main() -> int:
    os.environ.pop("REPRO_CHAOS", None)
    failures = []
    before_segments = _shm_segments()

    print("reference run (unbounded, workers=%d) ..." % WORKERS)
    reference_watch = Stopwatch()
    reference = generate_fusion(
        _counters(9), f=1, workers=WORKERS, stopwatch=reference_watch
    )
    reference_labels = _labels_digest(reference)
    reference_prune = reference_watch.extras("prune")

    print("starved run: memory=%s ..." % MEMORY_BUDGET)
    starved_watch = Stopwatch()
    start = time.perf_counter()
    starved = generate_fusion(
        _counters(9),
        f=1,
        workers=WORKERS,
        stopwatch=starved_watch,
        budget={"memory": MEMORY_BUDGET},
    )
    run_seconds = time.perf_counter() - start

    print(
        "pooled fleet (workers=%d) with %d bytes free on /dev/shm ..."
        % (WORKERS, SHM_FREE_BYTES)
    )
    fleet_machines = starved.all_machines
    serial_fleet = _run_fleet(fleet_machines, pool=None)
    free_bytes = shm_module.shm_free_bytes
    shm_module.shm_free_bytes = lambda path="/dev/shm": SHM_FREE_BYTES
    pool = SharedWorkerPool(WORKERS)
    try:
        pooled_fleet = _run_fleet(fleet_machines, pool)
    finally:
        pool.close()
        shm_module.shm_free_bytes = free_bytes

    stats = {k: int(v) for k, v in starved_watch.extras("resources").items()}
    stats["shm_fallbacks"] = pool.shm_fallbacks
    starved_prune = starved_watch.extras("prune")
    print("resource stats: %s" % stats)

    if _labels_digest(starved) != reference_labels:
        failures.append("starved partition bytes differ from the reference")
    if starved.summary() != reference.summary():
        failures.append(
            "starved summary differs from the reference: %r != %r"
            % (starved.summary(), reference.summary())
        )
    fleet_equal = all(
        np.array_equal(ours, theirs) for ours, theirs in zip(pooled_fleet, serial_fleet)
    )
    if not fleet_equal:
        failures.append("the degraded pooled fleet differs from the serial fleet")
    prune_equal = starved_prune == reference_prune
    if not prune_equal:
        failures.append(
            "starved prune_stats differ from the reference: %r != %r"
            % (starved_prune, reference_prune)
        )
    if stats.get("spills", 0) < 1:
        failures.append(
            "the memory budget never forced a spill; the smoke proved nothing"
        )
    if stats["shm_fallbacks"] < 1:
        failures.append(
            "a full /dev/shm never forced a file-backed fallback"
        )

    try:
        assert_no_owned_segments()
    except Exception as exc:  # noqa: BLE001 - any leak is a failure
        failures.append("owned /dev/shm segments leaked: %s" % exc)
    stranded = sorted(set(_shm_segments()) - set(before_segments))
    if stranded:
        failures.append("stranded /dev/shm segments: %s" % stranded)

    if not failures:
        record_resources_block({
            "note": (
                "Resource-degradation evidence from benchmarks/"
                "bench_resource_smoke.py: the %s fusion reran under "
                "REPRO_MEMORY_BUDGET=%s and its ledger merges spilled to "
                "external sorted runs; a %d-worker pooled fleet of the "
                "result then stepped while /dev/shm reported no free "
                "space, and its publishes fell back to file-backed "
                "segments.  "
                "Both finished byte-identical to their references (same "
                "prune_stats, same fleet states) with zero stranded "
                "segments." % (CASE, MEMORY_BUDGET, WORKERS)
            ),
            "case": CASE,
            "budget": {"memory": MEMORY_BUDGET},
            "shm_free_bytes": SHM_FREE_BYTES,
            "workers": WORKERS,
            "byte_identical": True,
            "prune_stats_equal": True,
            "run_seconds": round(run_seconds, 6),
            "stats": stats,
            "shm_stranded": len(stranded),
        })
        print("wrote resources block to %s" % RESULT_PATH)

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print(
        "OK: %d spill(s) (%d bytes) and %d shm fallback(s) under a %s "
        "budget, byte-identical in %.2fs"
        % (
            stats["spills"],
            stats["spilled_bytes"],
            stats["shm_fallbacks"],
            MEMORY_BUDGET,
            run_seconds,
        )
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
