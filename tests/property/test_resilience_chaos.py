"""Chaos-injection property tests for the self-healing worker pool.

The acceptance contract of the resilience layer, exercised on its one
pooled stage — the ``runtime_step`` gather waves of a pooled
:class:`repro.core.runtime.VectorizedRuntime`: a seeded ``REPRO_CHAOS``
plan kills, hangs or slows workers, and the fleet's state matrices stay
byte-identical to a serial fleet, with zero ``/dev/shm`` segments left
behind and the recovery recorded in the pool's ``resilience`` counters.

Soundness of the replay is by construction: every pooled step is a pure
function of published read-only arrays plus a picklable slice, so waves
replayed against respawned segments produce the same bytes, and the
serial degradation path *is* the reference implementation.
"""

from __future__ import annotations

import glob
import os
import tempfile

import numpy as np
import pytest

import repro.core.runtime as runtime_module
import repro.core.shm as shm_module
from repro.core.fusion import generate_fusion
from repro.core.resilience import KNOWN_STAGES, OWNER_STAGES, live_owned_segments
from repro.core.runtime import VectorizedRuntime
from repro.core.shm import SharedWorkerPool, resolve_workers
from repro.machines.catalog import counters_family

INSTANCES = 64


@pytest.fixture(scope="module")
def machines():
    """A fused machine set: four counters plus their generated backup."""
    return generate_fusion(counters_family(4), f=1).all_machines


#: The two kinds of pooled gather wave a runtime submits.
WAVES = ("event_matrix", "broadcast")


def _run_fleet(monkeypatch, machines, workers, chaos="", timeout="", waves=WAVES):
    """Step a fleet through an event matrix, a crash and a broadcast
    (``waves`` picks which of the two stepping calls run).

    Returns the final ``(true, visible, status)`` matrices and the
    pool's resilience counters plus its ``shm_fallbacks`` (empty for
    the serial fleet).
    """
    monkeypatch.setattr(runtime_module, "_RUNTIME_POOL_MIN_INSTANCES", 1)
    if chaos:
        monkeypatch.setenv("REPRO_CHAOS", chaos)
    else:
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
    if timeout:
        monkeypatch.setenv("REPRO_FUSION_TASK_TIMEOUT", timeout)
    generator = np.random.default_rng(42)
    matrix = generator.integers(0, 4, size=(12, INSTANCES))
    stream = list(generator.integers(0, 4, size=10))
    # The pool reads REPRO_CHAOS and the retry/watchdog policy when it
    # is created, so it is created after the environment is set.
    pool = SharedWorkerPool(workers) if workers > 1 else None
    try:
        with VectorizedRuntime(machines, INSTANCES, pool=pool) as runtime:
            if "event_matrix" in waves:
                runtime.apply_event_matrix(matrix)
            runtime.crash_instances(1, [2, 9])
            if "broadcast" in waves:
                runtime.apply_stream(stream)
            states = (runtime.true_states, runtime.visible_states, runtime.statuses)
        stats = (
            dict(pool.resilience.as_counters(), shm_fallbacks=pool.shm_fallbacks)
            if pool is not None
            else {}
        )
    finally:
        if pool is not None:
            pool.close()
    return states, stats


@pytest.fixture()
def serial_fleet(monkeypatch, machines):
    return _run_fleet(monkeypatch, machines, workers=1)[0]


def _assert_identical(states, reference):
    for ours, theirs in zip(states, reference):
        assert np.array_equal(ours, theirs)


class TestChaosRecovery:
    def test_stage_vocabulary_is_complete(self):
        # Fusion generation runs in-process, so the streaming runtime's
        # gather wave is the only pooled stage.
        assert KNOWN_STAGES == ("runtime_step",)
        # The owner-side stages (artifact-store commits, descent
        # checkpoints, and the resource governor's spill check) are a
        # separate, disjoint vocabulary: worker kills never fire there,
        # owner-side kinds only there.
        assert set(OWNER_STAGES) == {
            "store_commit", "descent_level", "budget_check",
        }
        assert not set(OWNER_STAGES) & set(KNOWN_STAGES)

    def test_owner_kill_kinds_never_burn_budget_on_worker_stages(self):
        from repro.core.resilience import ChaosSpec

        spec = ChaosSpec.parse("kill_during_write=1.0,max=1,seed=2")
        for stage in KNOWN_STAGES:
            assert spec.draw(stage) is None
        assert spec.draw("store_commit") == ("kill_during_write", 0.0)

    def test_worker_kinds_never_fire_on_owner_stages(self):
        from repro.core.resilience import ChaosSpec

        spec = ChaosSpec.parse("worker_kill=1.0,max=1,seed=2")
        for stage in OWNER_STAGES:
            assert spec.draw(stage) is None
        assert spec.draw("runtime_step") == ("worker_kill", 0.0)

    @pytest.mark.parametrize("wave", WAVES)
    def test_worker_kill_in_each_wave_recovers_byte_identical(
        self, wave, machines, monkeypatch
    ):
        """The acceptance criterion, per wave kind of the one pooled
        stage (``runtime_step``): one seeded SIGKILL lands on the only
        wave the fleet runs — the per-instance event-matrix gather or
        the shared-stream composed map; the pool heals, replays, and the
        fleet equals the serial run with no /dev/shm leak."""
        reference, _ = _run_fleet(monkeypatch, machines, 1, waves=(wave,))
        states, stats = _run_fleet(
            monkeypatch,
            machines,
            2,
            "worker_kill=1.0,stages=runtime_step,max=1,seed=7",
            waves=(wave,),
        )
        _assert_identical(states, reference)
        assert stats["chaos"] == 1, "the chaos plan never fired"
        assert stats["crashes"] >= 1, "no worker crash was observed"
        assert stats["rebuilds"] >= 1 and stats["retries"] >= 1
        assert stats["degraded"] == 0, "a single kill must heal, not degrade"
        assert live_owned_segments() == ()

    def test_task_hang_recovered_by_watchdog(self, machines, serial_fleet, monkeypatch):
        """A hung task trips ``REPRO_FUSION_TASK_TIMEOUT``; the pool
        kills the stuck workers, heals and replays."""
        states, stats = _run_fleet(
            monkeypatch,
            machines,
            2,
            "task_hang=1.0,stages=runtime_step,max=1,seed=3,hang_s=60",
            timeout="2.0",
        )
        _assert_identical(states, serial_fleet)
        assert stats["timeouts"] >= 1
        assert stats["rebuilds"] >= 1
        assert live_owned_segments() == ()

    def test_slow_tasks_change_nothing_but_wall_clock(
        self, machines, serial_fleet, monkeypatch
    ):
        states, stats = _run_fleet(
            monkeypatch, machines, 2, "slow_task=0.5,max=4,seed=11,slow_s=0.01"
        )
        _assert_identical(states, serial_fleet)
        assert stats["chaos"] >= 1
        assert stats["crashes"] == 0 and stats["degraded"] == 0
        assert live_owned_segments() == ()

    def test_unbounded_kills_degrade_to_serial_stepping(
        self, machines, serial_fleet, monkeypatch
    ):
        """With every task killed (no ``max`` bound), the retry budget
        runs out and the stage degrades — the fleet still finishes
        serially with identical bytes, and the degradation is counted."""
        monkeypatch.setenv("REPRO_FUSION_MAX_RETRIES", "1")
        states, stats = _run_fleet(
            monkeypatch, machines, 2, "worker_kill=1.0,stages=runtime_step,seed=5"
        )
        _assert_identical(states, serial_fleet)
        assert stats["degraded"] >= 1
        assert stats["crashes"] >= 2  # initial fault + the exhausted retry
        assert live_owned_segments() == ()

    @pytest.mark.parametrize(
        "chaos",
        ["", "worker_kill=1.0,stages=runtime_step,max=1,seed=7"],
        ids=["healthy", "worker_kill"],
    )
    def test_full_dev_shm_steps_on_file_segments(
        self, chaos, machines, serial_fleet, monkeypatch
    ):
        """With no free space on ``/dev/shm`` every publish — and, after a
        kill, every respawn — falls back to a file-backed segment; the
        fleet still equals the serial run and no segment or file is
        left behind."""
        monkeypatch.setattr(shm_module, "shm_free_bytes", lambda path="/dev/shm": 0)
        states, stats = _run_fleet(monkeypatch, machines, 2, chaos)
        _assert_identical(states, serial_fleet)
        assert stats["shm_fallbacks"] >= 2, "tables and state scratch were not file-backed"
        assert stats["degraded"] == 0
        if chaos:
            assert stats["crashes"] >= 1 and stats["republished"] >= 1
        assert live_owned_segments() == ()
        stray = os.path.join(tempfile.gettempdir(), "repro-seg-%d-*" % os.getpid())
        assert glob.glob(stray) == []

    def test_chaos_plan_is_seed_deterministic(self, machines, monkeypatch):
        """Same seed, same spec ⇒ identical resilience counters."""
        runs = []
        for _ in range(2):
            _states, stats = _run_fleet(
                monkeypatch, machines, 2, "worker_kill=1.0,stages=runtime_step,max=1,seed=9"
            )
            runs.append(stats)
        assert runs[0] == runs[1]


def _run_counters9_fleet(machines, pool):
    """Final ``(true, visible, status)`` matrices of a seeded 2^16-instance
    fleet: an event matrix, a crash of every 97th instance, a stream."""
    instances = 1 << 16
    rng = np.random.default_rng(7)
    matrix = rng.integers(0, 9, size=(8, instances))
    stream = list(rng.integers(0, 9, size=8))
    with VectorizedRuntime(machines, instances, pool=pool, workers=0) as runtime:
        runtime.apply_event_matrix(matrix)
        runtime.crash_instances(0, list(range(0, instances, 97)))
        runtime.apply_stream(stream)
        return runtime.true_states, runtime.visible_states, runtime.statuses


@pytest.mark.usefixtures("no_stray_segments")
def test_worker_kill_heals_pooled_counters9_fleet(monkeypatch):
    """At the runtime's default pool gate (2^16 instances, so every step
    is a pooled wave) on the counters-9 fusion: a seeded worker kill is
    observed and healed without degrading, and the fleet equals a
    fault-free serial fleet."""
    monkeypatch.setenv("REPRO_FUSION_WORKERS", "2")
    monkeypatch.setenv("REPRO_CHAOS", "worker_kill=1.0,stages=runtime_step,max=1,seed=7")
    machines = generate_fusion(counters_family(9), f=1).all_machines
    reference = _run_counters9_fleet(machines, pool=None)
    pool = SharedWorkerPool(resolve_workers())
    try:
        states = _run_counters9_fleet(machines, pool)
        stats = pool.resilience.as_counters()
    finally:
        pool.close()
    _assert_identical(states, reference)
    assert stats["chaos"] >= 1, "the chaos plan never fired"
    assert stats["crashes"] + stats["timeouts"] >= 1, "no worker fault was observed"
    assert stats["rebuilds"] >= 1, "the pool never healed"
    assert stats["degraded"] == 0, "a single bounded fault must heal, not degrade"
    assert live_owned_segments() == ()
