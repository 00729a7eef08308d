"""Unit tests for the vectorized streaming runtime and batched recovery.

The equivalence *properties* live in ``tests/property``; this file pins
the unit-level contract — constructor and argument validation, fault
injection semantics, the env knobs and shared-memory hygiene.  The
chaos coverage of the ``runtime_step`` pool stage lives in
``tests/property/test_resilience_chaos.py``.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.runtime as runtime_module
from repro.core.exceptions import RecoveryError, SimulationError
from repro.core.fusion import generate_fusion
from repro.core.resilience import live_owned_segments
from repro.core.runtime import (
    BYZANTINE,
    CRASHED,
    HEALTHY,
    BatchRecovery,
    VectorizedRuntime,
    recover_fleet,
)
from repro.machines import mod_counter


def _counters(size=3, modulus=3):
    events = tuple(range(size))
    return [
        mod_counter(modulus, count_event=e, events=events, name="c%d" % e)
        for e in events
    ]


class TestConstruction:
    def test_needs_machines(self):
        with pytest.raises(SimulationError):
            VectorizedRuntime([])

    def test_needs_positive_instances(self):
        with pytest.raises(SimulationError):
            VectorizedRuntime(_counters(), 0)

    def test_initial_states_and_shapes(self):
        with VectorizedRuntime(_counters(), 5, workers=1) as runtime:
            assert runtime.num_machines == 3
            assert runtime.num_instances == 5
            assert runtime.alphabet == (0, 1, 2)
            assert runtime.true_states.shape == (3, 5)
            assert not runtime.true_states.any()
            assert not runtime.statuses.any()
            assert runtime.is_consistent()

    def test_matrices_are_copies(self):
        with VectorizedRuntime(_counters(), 2, workers=1) as runtime:
            runtime.visible_states[0, 0] = 99
            assert runtime.visible_states[0, 0] == 0


class TestArgumentValidation:
    def test_encode_events_rejects_unknown_labels(self):
        with VectorizedRuntime(_counters(), 1, workers=1) as runtime:
            with pytest.raises(SimulationError, match="unknown event"):
                runtime.encode_events([0, "nope"])

    def test_event_matrix_shape_checked(self):
        with VectorizedRuntime(_counters(), 4, workers=1) as runtime:
            with pytest.raises(SimulationError, match="event matrix"):
                runtime.apply_event_matrix(np.zeros((2, 3), dtype=np.int64))

    def test_event_matrix_index_range_checked(self):
        with VectorizedRuntime(_counters(), 2, workers=1) as runtime:
            with pytest.raises(SimulationError, match="event index out of range"):
                runtime.apply_event_matrix(np.full((1, 2), 7))

    def test_instance_selector_range_checked(self):
        with VectorizedRuntime(_counters(), 2, workers=1) as runtime:
            with pytest.raises(SimulationError, match="instance index"):
                runtime.select_instances([2])

    def test_restore_matrix_shape_checked(self):
        with VectorizedRuntime(_counters(), 2, workers=1) as runtime:
            with pytest.raises(SimulationError, match="restore matrix"):
                runtime.restore_matrix(np.zeros((1, 2), dtype=np.int64))

    def test_restore_rejects_unknown_state_index(self):
        with VectorizedRuntime(_counters(), 2, workers=1) as runtime:
            with pytest.raises(SimulationError, match="unknown state"):
                runtime.restore_instances(0, [17], [0])


class TestFaultSemantics:
    def test_crash_freezes_visible_not_true(self):
        with VectorizedRuntime(_counters(), 3, workers=1) as runtime:
            runtime.apply_stream([0])
            runtime.crash_instances(0, [1])
            runtime.apply_stream([0])
            assert runtime.visible_states[0, 1] == -1
            assert runtime.true_states[0, 1] == 2
            assert runtime.statuses[0, 1] == CRASHED
            # Untouched instances keep stepping.
            assert runtime.visible_states[0, 0] == 2

    def test_corrupted_machine_keeps_stepping(self):
        with VectorizedRuntime(_counters(), 1, workers=1) as runtime:
            chosen = runtime.corrupt_instances(
                0, [0], rng=np.random.default_rng(5)
            )
            assert chosen[0] != 0
            assert runtime.statuses[0, 0] == BYZANTINE
            runtime.apply_stream([0])
            assert runtime.visible_states[0, 0] == (chosen[0] + 1) % 3

    def test_cannot_corrupt_crashed_instance(self):
        with VectorizedRuntime(_counters(), 1, workers=1) as runtime:
            runtime.crash_instances(0)
            with pytest.raises(SimulationError, match="crashed"):
                runtime.corrupt_instances(0)

    def test_cannot_corrupt_single_state_machine(self):
        single = mod_counter(1, count_event=0, events=(0,), name="solo")
        with VectorizedRuntime([single], 1, workers=1) as runtime:
            with pytest.raises(SimulationError, match="single state"):
                runtime.corrupt_instances(0)

    def test_explicit_corruption_targets_validated(self):
        with VectorizedRuntime(_counters(), 2, workers=1) as runtime:
            with pytest.raises(SimulationError, match="per instance"):
                runtime.corrupt_instances(0, [0, 1], targets=[1])
            with pytest.raises(SimulationError, match="different valid state"):
                runtime.corrupt_instances(0, [0], targets=[0])  # == current
            runtime.corrupt_instances(0, [0, 1], targets=[1, 2])
            assert list(runtime.visible_states[0]) == [1, 2]

    def test_restore_heals_status(self):
        with VectorizedRuntime(_counters(), 2, workers=1) as runtime:
            runtime.crash_instances(1)
            runtime.restore_instances(1, [0], instances=None)
            assert (runtime.statuses[1] == HEALTHY).all()
            assert runtime.is_consistent()

    def test_consistent_instances_is_per_column(self):
        with VectorizedRuntime(_counters(), 3, workers=1) as runtime:
            runtime.crash_instances(2, [1])
            assert list(runtime.consistent_instances()) == [True, False, True]


class TestEnvKnobs:
    def test_pool_min_instances_env_override(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME_POOL_MIN_INSTANCES", "123")
        assert runtime_module._pool_min_instances() == 123

    def test_pool_min_instances_env_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_RUNTIME_POOL_MIN_INSTANCES", "lots")
        with pytest.raises(SimulationError, match="must be an integer"):
            runtime_module._pool_min_instances()

    def test_small_fleets_never_route_to_the_pool(self):
        # workers=1 resolves to no pool at all; the serial path is the
        # only route regardless of the threshold.
        with VectorizedRuntime(_counters(), 2, workers=1) as runtime:
            assert not runtime._pooled_route()


class TestBatchRecoveryValidation:
    @pytest.fixture(scope="class")
    def fusion(self):
        return generate_fusion(_counters(), f=1)

    @pytest.fixture(scope="class")
    def recovery(self, fusion):
        return BatchRecovery(fusion.product, fusion.backups)

    def test_reported_shape_checked(self, recovery):
        with pytest.raises(RecoveryError, match="reported matrix"):
            recovery.recover_batch(np.zeros((2, 1), dtype=np.int64))

    def test_reported_state_range_checked(self, recovery):
        reported = np.zeros((recovery.num_machines, 1), dtype=np.int64)
        reported[0, 0] = 99
        with pytest.raises(RecoveryError, match="cannot be in state index"):
            recovery.recover_batch(reported)

    def test_report_below_crash_sentinel_rejected(self, recovery):
        reported = np.zeros((recovery.num_machines, 3), dtype=np.int64)
        reported[1, 2] = -7
        with pytest.raises(RecoveryError, match=r"'c1' reported state index -7"):
            recovery.recover_batch(reported)

    def test_outcome_dtypes_are_pinned(self, recovery):
        reported = np.zeros((recovery.num_machines, 4), dtype=np.int64)
        reported[0, 1] = -1
        outcome = recovery.recover_batch(reported, expected_max_faults=1)
        assert outcome.counts.dtype == np.int16
        assert outcome.top_indices.dtype == np.int64
        assert outcome.machine_states.dtype == np.int64
        assert outcome.crashed.dtype == np.bool_
        assert outcome.suspected_byzantine.dtype == np.bool_

    def test_all_crashed_instance_rejected(self, recovery):
        reported = np.full((recovery.num_machines, 2), -1, dtype=np.int64)
        reported[:, 0] = 0
        with pytest.raises(RecoveryError, match="every machine crashed"):
            recovery.recover_batch(reported)

    def test_one_dimensional_reports_are_one_instance(self, recovery):
        outcome = recovery.recover_batch(
            np.zeros(recovery.num_machines, dtype=np.int64)
        )
        assert outcome.num_instances == 1
        assert outcome.top_indices[0] == 0

    def test_recover_fleet_checks_machine_count(self, recovery):
        with VectorizedRuntime(_counters(2), 1, workers=1) as runtime:
            with pytest.raises(RecoveryError, match="machines"):
                recover_fleet(runtime, recovery)

    def test_recover_fleet_subset_heals_only_selected(self, fusion, recovery):
        with VectorizedRuntime(fusion.all_machines, 4, workers=1) as runtime:
            runtime.apply_stream([0, 1])
            runtime.crash_instances(0, [1, 3])
            recover_fleet(runtime, recovery, instances=[1], expected_max_faults=1)
            assert list(runtime.consistent_instances()) == [
                True, True, True, False,
            ]


class TestLifecycle:
    def test_close_is_idempotent_and_leak_free(self):
        runtime = VectorizedRuntime(_counters(), 2, workers=1)
        runtime.apply_stream([0, 1, 2])
        runtime.close()
        runtime.close()
        assert live_owned_segments() == ()

    def test_borrowed_pool_survives_runtime_close(self, monkeypatch):
        monkeypatch.setattr(runtime_module, "_RUNTIME_POOL_MIN_INSTANCES", 1)
        from repro.core.shm import SharedWorkerPool

        pool = SharedWorkerPool(2)
        try:
            with VectorizedRuntime(_counters(), 9, pool=pool) as runtime:
                runtime.apply_stream([0, 1])
            assert pool.usable
        finally:
            pool.close()
        assert live_owned_segments() == ()
