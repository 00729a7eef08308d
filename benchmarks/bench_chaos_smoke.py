"""Chaos smoke: a seeded worker-kill mid-run must be survivable.

The CI chaos job steps a pooled fleet of the ``counters-9 (top=19683)``
fusion — the nine counters plus their backup, 2^16 instances, so every
step is a pooled ``runtime_step`` wave — with two pool workers and a
seeded ``REPRO_CHAOS`` worker-kill plan, then checks the three
guarantees the self-healing layer makes:

1. the fleet finishes with state matrices equal to a fault-free serial
   fleet (recovery is byte-identical, not merely "finishes");
2. the injected crash was actually observed *and* healed — a smoke that
   never kills anything proves nothing, so ``chaos``/``crashes``/
   ``rebuilds`` must all be non-zero in the pool's resilience counters;
3. zero ``/dev/shm`` segments owned by this process remain linked.

Run it exactly as CI does::

    REPRO_FUSION_WORKERS=2 \
    REPRO_CHAOS="worker_kill=1.0,stages=runtime_step,max=1,seed=7" \
    PYTHONPATH=src python benchmarks/bench_chaos_smoke.py

``REPRO_CHAOS`` may be overridden to smoke other fault mixes (e.g. a
``task_hang`` plan together with ``REPRO_FUSION_TASK_TIMEOUT``); the
assertions only require that at least one fault fired and was healed
without degradation.  Exits non-zero on any violated guarantee.
"""

from __future__ import annotations

import os
import sys

import numpy as np

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.core.fusion import generate_fusion
from repro.core.resilience import assert_no_owned_segments, chaos_from_env
from repro.core.runtime import VectorizedRuntime
from repro.core.shm import SharedWorkerPool, resolve_workers
from repro.machines import mod_counter

DEFAULT_CHAOS = "worker_kill=1.0,stages=runtime_step,max=1,seed=7"

#: The runtime's default pool gate (2^16 instances): every step pools.
INSTANCES = 1 << 16

#: Per-instance event-matrix depth, then one broadcast batch this long.
STEPS = 8


def _counters(size: int):
    return [
        mod_counter(3, count_event=e, events=tuple(range(size)), name="c%d" % e)
        for e in range(size)
    ]


def _run_fleet(machines, pool):
    """Final ``(true, visible, status)`` matrices of one seeded fleet run."""
    rng = np.random.default_rng(7)
    matrix = rng.integers(0, 9, size=(STEPS, INSTANCES))
    stream = list(rng.integers(0, 9, size=STEPS))
    with VectorizedRuntime(machines, INSTANCES, pool=pool, workers=0) as runtime:
        runtime.apply_event_matrix(matrix)
        runtime.crash_instances(0, list(range(0, INSTANCES, 97)))
        runtime.apply_stream(stream)
        return runtime.true_states, runtime.visible_states, runtime.statuses


def main() -> int:
    os.environ.setdefault("REPRO_CHAOS", DEFAULT_CHAOS)
    workers = resolve_workers()
    if workers < 2:
        print("FAIL: chaos smoke needs REPRO_FUSION_WORKERS >= 2, got %d" % workers)
        return 2
    if chaos_from_env() is None:
        print("FAIL: REPRO_CHAOS is unset or inactive")
        return 2

    machines = generate_fusion(_counters(9), f=1).all_machines
    print("reference run (serial fleet, fault-free) ...")
    reference = _run_fleet(machines, pool=None)

    print(
        "chaos run: workers=%d REPRO_CHAOS=%r ..."
        % (workers, os.environ["REPRO_CHAOS"])
    )
    pool = SharedWorkerPool(workers)
    try:
        states = _run_fleet(machines, pool)
        stats = pool.resilience.as_counters()
    finally:
        pool.close()
    print("resilience_stats: %s" % stats)

    failures = []
    if not all(np.array_equal(ours, theirs) for ours, theirs in zip(states, reference)):
        failures.append("recovered fleet states differ from the fault-free reference")
    if stats.get("chaos", 0) < 1:
        failures.append("no chaos fault was injected (chaos=0)")
    if stats.get("crashes", 0) + stats.get("timeouts", 0) < 1:
        failures.append("no worker fault was observed (crashes=timeouts=0)")
    if stats.get("rebuilds", 0) < 1:
        failures.append("the pool never healed (rebuilds=0)")
    if stats.get("degraded", 0) != 0:
        failures.append("a single bounded fault must heal, not degrade")
    try:
        assert_no_owned_segments()
    except Exception as exc:  # SegmentLeakError
        failures.append(str(exc))

    if failures:
        for failure in failures:
            print("FAIL: %s" % failure)
        return 1
    print("OK: killed a worker mid-run, healed, fleet byte-identical, no leaks")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
