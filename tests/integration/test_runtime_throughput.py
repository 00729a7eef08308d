"""The streaming runtime end to end on small fleets, serial and pooled.

The counters-3 family fused for ``f = 2`` with the Byzantine margin
(three originals, two backups) steps 2000 and 10000 instances through a
per-instance event matrix and a shared stream.  A 10 % faulty cohort then
has ``f`` machines of every instance crashed and healed by one batched
Algorithm 3 pass, then ``byzantine_f`` liars planted and healed again.
A counters-8 fleet (``top`` = 6561) repeats both recoveries, so the vote
also runs on a top past 4096 states.  The pooled run opens the pool gate
at 100 instances, so every step shards over a 2-worker pool.
"""

from __future__ import annotations

import time

import pytest

from repro.core.fusion import generate_fusion
from repro.core.runtime import BatchRecovery, VectorizedRuntime, recover_fleet
from repro.machines.catalog import counters_family
from repro.simulation.faults import FaultInjector, FaultKind
from repro.utils.rng import as_generator, derive_seed

SEED = 0x5EED
STEPS = 20


def _timed_recovery(runtime, recovery, faulty, expected_max_faults=None):
    start = time.perf_counter()
    recover_fleet(runtime, recovery, instances=faulty, expected_max_faults=expected_max_faults)
    assert 0 < time.perf_counter() - start < 60
    assert runtime.is_consistent()


def _crash_then_liars(runtime, fusion, generator, injector):
    """Crash a 10 % cohort and heal it, then plant liars in it and heal again."""
    recovery = BatchRecovery(fusion.product, fusion.backups)
    names = [m.name for m in fusion.all_machines]
    size = runtime.num_instances
    faulty = [int(i) for i in generator.choice(size, size=max(1, size // 10), replace=False)]
    crash_plan = injector.random_plan(num_crash=fusion.f, num_byzantine=0, workload_length=STEPS)
    for event in crash_plan.events:
        assert event.kind is FaultKind.CRASH
        runtime.crash_instances(names.index(event.server), faulty)
    _timed_recovery(runtime, recovery, faulty, expected_max_faults=fusion.f)
    byzantine_plan = injector.random_plan(
        num_crash=0, num_byzantine=fusion.byzantine_f, workload_length=STEPS
    )
    for event in byzantine_plan.events:
        assert event.kind is FaultKind.BYZANTINE
        runtime.corrupt_instances(names.index(event.server), faulty, rng=generator)
    _timed_recovery(runtime, recovery, faulty)
    return recovery


@pytest.mark.usefixtures("no_stray_segments")
@pytest.mark.parametrize("pooled", [False, True], ids=["serial", "pooled"])
def test_fleets_step_and_recover(pooled, monkeypatch):
    if pooled:
        monkeypatch.setenv("REPRO_FUSION_WORKERS", "2")
        monkeypatch.setenv("REPRO_RUNTIME_POOL_MIN_INSTANCES", "100")
    fusion = generate_fusion(counters_family(3), f=2, byzantine=True)
    names = [m.name for m in fusion.all_machines]
    for size in (2_000, 10_000):
        generator = as_generator(derive_seed(SEED, "runtime-throughput", size))
        matrix = generator.integers(0, 3, size=(STEPS, size))
        stream = [int(e) for e in generator.integers(0, 3, size=STEPS)]
        injector = FaultInjector(names, seed=derive_seed(SEED, "plan", size))
        with VectorizedRuntime(fusion.all_machines, size) as runtime:
            start = time.perf_counter()
            runtime.apply_event_matrix(matrix)
            matrix_seconds = time.perf_counter() - start
            start = time.perf_counter()
            runtime.apply_stream(stream)
            stream_seconds = time.perf_counter() - start
            assert size * STEPS / matrix_seconds > 10_000, "implausibly low matrix throughput"
            assert stream_seconds < matrix_seconds, "composed-map path slower than per-step path"
            _crash_then_liars(runtime, fusion, generator, injector)

    large = generate_fusion(counters_family(8), f=1, byzantine=True)
    generator = as_generator(derive_seed(SEED, "large-top"))
    matrix = generator.integers(0, 8, size=(STEPS, 2_000))
    injector = FaultInjector(
        [m.name for m in large.all_machines], seed=derive_seed(SEED, "large-top-plan")
    )
    with VectorizedRuntime(large.all_machines, 2_000) as runtime:
        runtime.apply_event_matrix(matrix)
        recovery = _crash_then_liars(runtime, large, generator, injector)
    assert recovery.top.num_states > 4096
