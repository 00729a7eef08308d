"""Unit tests for the self-healing layer (:mod:`repro.core.resilience`).

Covers the chaos-spec parser and its seeded determinism, the retry and
watchdog policy read from the environment, the owned-segment registry
behind the ``/dev/shm`` leak check, and the pool/scratch guard rails:
negative worker counts, use-after-close, heal/respawn/degrade.
"""

from __future__ import annotations

import os
import subprocess
import sys
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as PoolTimeoutError
from multiprocessing import shared_memory

import numpy as np
import pytest

from repro.core.exceptions import FusionError, SpecParseError
from repro.core.resilience import (
    RECOVERABLE_POOL_ERRORS,
    ChaosSpec,
    EngineFaultKind,
    KNOWN_STAGES,
    ResilienceConfig,
    ResilienceStats,
    assert_no_owned_segments,
    chaos_from_env,
    execute_chaos_fault,
    forget_owned_segment,
    live_owned_segments,
    reap_owned_segments,
    register_owned_segment,
    stage_of,
)
from repro.core.shm import (
    SharedArrayBundle,
    SharedScratch,
    SharedWorkerPool,
    resolve_workers,
)


def _segment_exists(name: str) -> bool:
    try:
        segment = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    segment.close()
    return True


# ----------------------------------------------------------------------
# stage vocabulary
# ----------------------------------------------------------------------
class TestStageOf:
    @pytest.mark.parametrize(
        "task_name, stage",
        [
            ("_runtime_stream_task", "runtime_step"),
            ("_runtime_matrix_task", "runtime_step"),
        ],
    )
    def test_maps_every_worker_task(self, task_name, stage):
        fn = lambda: None  # noqa: E731 - name is all stage_of reads
        fn.__name__ = task_name
        assert stage_of(fn) == stage
        assert stage in KNOWN_STAGES

    def test_unknown_tasks_fall_back_to_generic_stage(self):
        assert stage_of(sum) == "task"


# ----------------------------------------------------------------------
# ResilienceConfig
# ----------------------------------------------------------------------
class TestResilienceConfig:
    def test_defaults(self, monkeypatch):
        monkeypatch.delenv("REPRO_FUSION_MAX_RETRIES", raising=False)
        monkeypatch.delenv("REPRO_FUSION_TASK_TIMEOUT", raising=False)
        config = ResilienceConfig.from_env()
        assert config.max_retries == 2
        assert config.task_timeout is None

    def test_reads_environment(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSION_MAX_RETRIES", "5")
        monkeypatch.setenv("REPRO_FUSION_TASK_TIMEOUT", "12.5")
        config = ResilienceConfig.from_env()
        assert config.max_retries == 5
        assert config.task_timeout == 12.5

    def test_zero_timeout_disables_watchdog(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSION_TASK_TIMEOUT", "0")
        assert ResilienceConfig.from_env().task_timeout is None

    @pytest.mark.parametrize("raw", ["nope", "-1", "2.5"])
    def test_invalid_retries_raise(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FUSION_MAX_RETRIES", raw)
        with pytest.raises(FusionError, match="REPRO_FUSION_MAX_RETRIES"):
            ResilienceConfig.from_env()

    @pytest.mark.parametrize("raw", ["soon", "-0.5"])
    def test_invalid_timeout_raises(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_FUSION_TASK_TIMEOUT", raw)
        with pytest.raises(FusionError, match="REPRO_FUSION_TASK_TIMEOUT"):
            ResilienceConfig.from_env()


# ----------------------------------------------------------------------
# ChaosSpec
# ----------------------------------------------------------------------
class TestChaosSpec:
    def test_parse_full_spec(self):
        spec = ChaosSpec.parse(
            "worker_kill=0.2,task_hang=0.1,slow_task=0.3,"
            "stages=runtime_step+budget_check,max=2,seed=7,hang_s=60,slow_s=0.01"
        )
        assert spec.active
        assert spec.injected == 0

    def test_inactive_without_probabilities(self):
        spec = ChaosSpec.parse("seed=3")
        assert not spec.active
        assert spec.draw("runtime_step") is None

    def test_zero_probability_is_inactive(self):
        assert not ChaosSpec.parse("worker_kill=0.0").active

    @pytest.mark.parametrize(
        "spec",
        [
            "worker_kill",  # no '='
            "worker_kill=maybe",  # not a float
            "max=few",  # not an int
            "frobnicate=1.0",  # unknown key
            "stages=warp_core",  # unknown stage
            "worker_kill=1.5",  # probability out of range
        ],
    )
    def test_invalid_specs_raise(self, spec):
        with pytest.raises(FusionError):
            ChaosSpec.parse(spec)

    def test_stage_filter_and_budget(self):
        spec = ChaosSpec.parse("worker_kill=1.0,stages=runtime_step,max=1,seed=1")
        assert spec.draw("task") is None  # filtered out
        assert spec.draw("runtime_step") == ("worker_kill", 0.0)
        assert spec.injected == 1
        assert spec.draw("runtime_step") is None  # budget spent

    @pytest.mark.parametrize(
        "stage",
        [
            "ledger_leaf", "merge_fold", "prune_shard", "closure_batch", "bfs_shard",
            "segment_publish",
        ],
    )
    def test_retired_fusion_stages_are_unknown(self, stage):
        """Fusion generation submits no tasks, and no publish draws a
        fault, so these old stage names are a typed parse error rather
        than a filter that never fires."""
        with pytest.raises(SpecParseError, match="unknown stages"):
            ChaosSpec.parse("worker_kill=1.0,stages=%s" % stage)

    def test_draws_are_seed_deterministic(self):
        stages = ["runtime_step", "task"] * 16
        draws = []
        for _ in range(2):
            spec = ChaosSpec.parse("worker_kill=0.3,task_hang=0.2,seed=42")
            draws.append([spec.draw(stage) for stage in stages])
        assert draws[0] == draws[1]
        assert any(fault is not None for fault in draws[0])

    def test_different_seeds_differ(self):
        stages = ["runtime_step"] * 64
        a = ChaosSpec.parse("worker_kill=0.5,seed=1")
        b = ChaosSpec.parse("worker_kill=0.5,seed=2")
        assert [a.draw(s) for s in stages] != [b.draw(s) for s in stages]

    def test_hang_and_slow_durations_travel_with_the_fault(self):
        spec = ChaosSpec.parse("task_hang=1.0,max=1,seed=0,hang_s=123.0")
        assert spec.draw("runtime_step") == ("task_hang", 123.0)
        spec = ChaosSpec.parse("slow_task=1.0,max=1,seed=0,slow_s=0.25")
        assert spec.draw("runtime_step") == ("slow_task", 0.25)

    def test_chaos_from_env(self, monkeypatch):
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        assert chaos_from_env() is None
        monkeypatch.setenv("REPRO_CHAOS", "worker_kill=0.0")
        assert chaos_from_env() is None  # parses but inactive
        monkeypatch.setenv("REPRO_CHAOS", "worker_kill=0.5,seed=3")
        assert chaos_from_env() is not None

    def test_execute_slow_fault_sleeps_and_returns(self):
        started = time.monotonic()
        execute_chaos_fault((EngineFaultKind.SLOW_TASK.value, 0.01))
        assert time.monotonic() - started >= 0.01


# ----------------------------------------------------------------------
# ResilienceStats
# ----------------------------------------------------------------------
class TestResilienceStats:
    def test_fault_classification(self):
        stats = ResilienceStats()
        stats.note_fault(BrokenExecutor("worker died"))
        stats.note_fault(PoolTimeoutError())
        assert stats.crashes == 1
        assert stats.timeouts == 1

    def test_degradation_records_the_stage(self):
        stats = ResilienceStats()
        stats.note_degraded("runtime_step")
        assert stats.degraded == 1
        assert stats.degraded_stages == ["runtime_step"]

    def test_counters_match_the_benchmark_schema(self):
        assert sorted(ResilienceStats().as_counters()) == [
            "chaos", "crashes", "degraded", "rebuilds",
            "republished", "retries", "timeouts",
        ]

    def test_recoverable_errors_are_exactly_infrastructure_faults(self):
        assert BrokenExecutor in RECOVERABLE_POOL_ERRORS
        assert PoolTimeoutError in RECOVERABLE_POOL_ERRORS
        assert not any(issubclass(ValueError, t) for t in RECOVERABLE_POOL_ERRORS)


# ----------------------------------------------------------------------
# Owned-segment registry
# ----------------------------------------------------------------------
class TestOwnedSegmentRegistry:
    def test_register_live_forget_round_trip(self):
        register_owned_segment("repro-test-registry-entry")
        try:
            assert "repro-test-registry-entry" in live_owned_segments()
            with pytest.raises(FusionError, match="stranded"):
                assert_no_owned_segments()
        finally:
            forget_owned_segment("repro-test-registry-entry")
        assert "repro-test-registry-entry" not in live_owned_segments()

    def test_reap_unlinks_registered_segments(self):
        segment = shared_memory.SharedMemory(create=True, size=64)
        register_owned_segment(segment.name)
        try:
            reaped = reap_owned_segments()
            assert segment.name in reaped
            assert not _segment_exists(segment.name)
            assert segment.name not in live_owned_segments()
        finally:
            segment.close()

    def test_bundle_lifecycle_keeps_registry_clean(self):
        bundle = SharedArrayBundle.create({"xs": np.arange(8)})
        name = bundle.meta["segment"]
        assert name in live_owned_segments()
        bundle.close()
        assert name not in live_owned_segments()
        assert_no_owned_segments()

    @pytest.mark.skipif(
        not os.path.isdir("/dev/shm") or not os.path.exists("/proc/self/ns/pid"),
        reason="needs /dev/shm and pid namespaces",
    )
    def test_pool_start_reaps_only_own_namespace_segments_of_dead_owners(self):
        """A segment whose recorded owner pid is dead in this pid
        namespace is unlinked when the next pool starts.  Live owners'
        segments, and a dead pid recorded under another namespace (a
        container sharing ``/dev/shm``, where that pid is another
        process) or in a name without a namespace, are left alone."""
        from multiprocessing import resource_tracker

        dead = subprocess.Popen([sys.executable, "-c", "pass"])
        dead.wait()
        namespace = os.stat("/proc/self/ns/pid").st_ino
        orphan = shared_memory.SharedMemory(
            name="psm_%d_%x_0badc0de" % (dead.pid, namespace), create=True, size=64
        )
        survivors = [
            shared_memory.SharedMemory(name=name, create=True, size=64)
            for name in (
                "psm_%d_%x_0badc0de" % (dead.pid, namespace + 1),
                "psm_%d_0badc0de" % dead.pid,
                "psm_%d_zz_0badc0de" % dead.pid,
            )
        ]
        bundle = SharedArrayBundle.create({"xs": np.arange(8)})
        assert bundle.name.startswith("psm_%d_%x_" % (os.getpid(), namespace))
        try:
            SharedWorkerPool(max_workers=2).close()
            assert not _segment_exists(orphan.name)
            for survivor in survivors:
                assert _segment_exists(survivor.name), survivor.name
            assert _segment_exists(bundle.name)
        finally:
            orphan.close()
            # The reaper unlinked it behind the tracker's back.
            resource_tracker.unregister(orphan._name, "shared_memory")
            for survivor in survivors:
                survivor.close()
                survivor.unlink()
            bundle.close()
        assert_no_owned_segments()


# ----------------------------------------------------------------------
# Worker-count validation (satellite: no silent clamping)
# ----------------------------------------------------------------------
class TestResolveWorkersValidation:
    def test_negative_argument_raises(self):
        with pytest.raises(FusionError, match="worker count must be >= 0"):
            resolve_workers(-1)

    def test_negative_environment_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_FUSION_WORKERS", "-4")
        with pytest.raises(FusionError, match="worker count must be >= 0"):
            resolve_workers()

    def test_serial_counts_pass_through(self):
        assert resolve_workers(0) == 0
        assert resolve_workers(1) == 1

    def test_large_counts_are_capped(self):
        assert resolve_workers(10_000) == 16


# ----------------------------------------------------------------------
# Use-after-close guards (satellite)
# ----------------------------------------------------------------------
class TestUseAfterCloseGuards:
    def test_publish_on_closed_pool_raises(self):
        pool = SharedWorkerPool(max_workers=2)
        pool.close()
        with pytest.raises(FusionError, match="closed SharedWorkerPool"):
            pool.publish({"xs": np.arange(4)})

    def test_heal_on_closed_pool_raises(self):
        pool = SharedWorkerPool(max_workers=2)
        pool.close()
        with pytest.raises(FusionError, match="cannot heal"):
            pool.heal()

    def test_submit_on_degraded_pool_raises(self):
        with SharedWorkerPool(max_workers=2) as pool:
            pool.degrade("runtime_step")
            with pytest.raises(FusionError, match="degraded SharedWorkerPool"):
                pool.submit(sum, (1, 2))

    def test_write_on_closed_scratch_raises(self):
        with SharedWorkerPool(max_workers=2) as pool:
            scratch = SharedScratch(pool)
            scratch.write(np.arange(4))
            scratch.close()
            with pytest.raises(FusionError, match="closed SharedScratch"):
                scratch.write(np.arange(4))


# ----------------------------------------------------------------------
# Respawn / heal / degrade mechanics
# ----------------------------------------------------------------------
class TestRespawnAndHeal:
    def test_respawn_preserves_content_under_a_fresh_name(self):
        bundle = SharedArrayBundle.create({"xs": np.arange(16), "ys": np.ones(3)})
        try:
            old_name = bundle.meta["segment"]
            expected = {k: v.copy() for k, v in bundle.arrays.items()}
            bundle.respawn()
            new_name = bundle.meta["segment"]
            assert new_name != old_name
            assert not _segment_exists(old_name)
            assert _segment_exists(new_name)
            for key, value in expected.items():
                np.testing.assert_array_equal(bundle.arrays[key], value)
        finally:
            bundle.close()
        assert_no_owned_segments()

    def test_respawn_of_closed_bundle_raises(self):
        bundle = SharedArrayBundle.create({"xs": np.arange(4)})
        bundle.close()
        with pytest.raises(FusionError):
            bundle.respawn()

    def test_attached_side_cannot_respawn(self):
        bundle = SharedArrayBundle.create({"xs": np.arange(4)})
        try:
            remote = SharedArrayBundle.attach(bundle.meta)
            with pytest.raises(FusionError):
                remote.respawn()
            remote.close()
        finally:
            bundle.close()

    def test_heal_counts_rebuilds_and_republished(self):
        with SharedWorkerPool(max_workers=2) as pool:
            pool.publish({"xs": np.arange(4)})
            pool.publish({"ys": np.arange(8)})
            pool.heal()
            assert pool.resilience.rebuilds == 1
            assert pool.resilience.republished == 2
        assert_no_owned_segments()

    def test_degrade_is_idempotent_and_flips_usable(self):
        with SharedWorkerPool(max_workers=2) as pool:
            assert pool.usable
            pool.degrade("runtime_step")
            pool.degrade("runtime_step")
            assert not pool.usable
            assert pool.resilience.degraded == 1
            assert pool.resilience.degraded_stages == ["runtime_step"]

    def test_run_wave_on_degraded_pool_takes_the_fallback(self):
        with SharedWorkerPool(max_workers=2) as pool:
            pool.degrade("runtime_step")

            def never_called():
                raise AssertionError("degraded pool must not submit")

            assert pool.run_wave("runtime_step", never_called, lambda: "serial") == "serial"
            assert pool.run_wave("runtime_step", never_called) is None
