"""Unit tests for the resource-exhaustion governor (:mod:`repro.core.budget`).

Covers the typed size/spec parsing (every ``REPRO_*`` knob must raise a
:class:`SpecParseError` naming the offending token, never a bare
``ValueError``), the external-merge spill machinery's byte-identity,
the governor's watermark decisions, and the store's ENOSPC
retry-then-typed-raise plan with the run left resumable.  (The
``/dev/shm`` publish fallback is :mod:`repro.core.shm`'s and is tested
in ``test_shm.py``.)
"""

from __future__ import annotations

import os

import numpy as np
import pytest

from repro.core.budget import (
    DISK_BUDGET_ENV,
    MEMORY_BUDGET_ENV,
    BudgetStats,
    ResourceBudget,
    ResourceGovernor,
    _dedup_sorted,
    activate,
    current_governor,
    external_sort_unique,
    parse_byte_size,
)
from repro.core.exceptions import (
    FusionError,
    NetworkSpecParseError,
    ResourceExhaustedError,
    SimulationError,
    SpecParseError,
)
from repro.core.resilience import ChaosSpec, EngineFaultKind
from repro.machines.catalog import counters_family
from repro.utils.rng import as_generator


class TestParseByteSize:
    def test_plain_and_suffixed_sizes(self):
        assert parse_byte_size("1048576", "X") == 1 << 20
        assert parse_byte_size("64k", "X") == 64 << 10
        assert parse_byte_size("64K", "X") == 64 << 10
        assert parse_byte_size("2MiB", "X") == 2 << 20
        assert parse_byte_size("1.5g", "X") == int(1.5 * (1 << 30))
        assert parse_byte_size(" 3 GB ", "X") == 3 << 30
        assert parse_byte_size("1T", "X") == 1 << 40

    @pytest.mark.parametrize("bad", ["64q", "12 furlongs", "M", "-5k", "0", "0.0M", ""])
    def test_malformed_sizes_raise_typed_with_token(self, bad):
        with pytest.raises(SpecParseError) as excinfo:
            parse_byte_size(bad, "REPRO_MEMORY_BUDGET")
        err = excinfo.value
        assert isinstance(err, FusionError)
        assert err.knob == "REPRO_MEMORY_BUDGET"
        assert err.token == bad
        assert "REPRO_MEMORY_BUDGET" in str(err)
        assert repr(bad) in str(err)


class TestResourceBudget:
    @pytest.mark.parametrize(
        "knob,attr",
        [
            (MEMORY_BUDGET_ENV, "memory"),
            (DISK_BUDGET_ENV, "disk"),
        ],
    )
    def test_each_env_knob_parses(self, knob, attr, monkeypatch):
        monkeypatch.setenv(knob, "8M")
        budget = ResourceBudget.from_env()
        assert getattr(budget, attr) == 8 << 20
        assert budget.bounded

    @pytest.mark.parametrize(
        "knob", [MEMORY_BUDGET_ENV, DISK_BUDGET_ENV]
    )
    def test_each_env_knob_rejects_garbage_with_token(self, knob, monkeypatch):
        monkeypatch.setenv(knob, "sixty-four megs")
        with pytest.raises(SpecParseError) as excinfo:
            ResourceBudget.from_env()
        assert excinfo.value.knob == knob
        assert excinfo.value.token == "sixty-four megs"

    def test_unset_env_is_unbounded(self, monkeypatch):
        for knob in (MEMORY_BUDGET_ENV, DISK_BUDGET_ENV):
            monkeypatch.delenv(knob, raising=False)
        budget = ResourceBudget.from_env()
        assert budget == ResourceBudget()
        assert not budget.bounded

    def test_mapping_accepts_ints_and_strings(self):
        budget = ResourceBudget.from_mapping({"memory": "1M", "disk": 4096})
        assert budget.memory == 1 << 20
        assert budget.disk == 4096

    @pytest.mark.parametrize("key", ["memroy", "shm"])
    def test_mapping_rejects_unknown_keys_and_nonpositive(self, key):
        # ``shm`` is no budget: publishes fall back on free space alone.
        with pytest.raises(SpecParseError) as excinfo:
            ResourceBudget.from_mapping({key: "1M"})
        assert excinfo.value.token == key
        with pytest.raises(SpecParseError):
            ResourceBudget.from_mapping({"memory": 0})

    def test_coerce(self):
        budget = ResourceBudget(memory=1)
        assert ResourceBudget.coerce(budget) is budget
        assert ResourceBudget.coerce({"disk": 7}).disk == 7


class TestSpecStringParseErrors:
    """Satellite: every chaos/budget env knob fails with a typed error."""

    # ``shm_full`` is no fault kind: publishes fall back on free space.
    @pytest.mark.parametrize("kind", ["wroker_kill", "shm_full"])
    def test_chaos_unknown_key_names_token(self, kind):
        with pytest.raises(SpecParseError) as excinfo:
            ChaosSpec.parse("%s=0.5" % kind)
        assert excinfo.value.knob == "REPRO_CHAOS"
        assert excinfo.value.token == kind

    def test_chaos_bad_value_names_token(self):
        with pytest.raises(SpecParseError) as excinfo:
            ChaosSpec.parse("worker_kill=lots")
        assert excinfo.value.token == "lots"

    def test_chaos_missing_equals_names_chunk(self):
        with pytest.raises(SpecParseError) as excinfo:
            ChaosSpec.parse("worker_kill")
        assert excinfo.value.token == "worker_kill"

    def test_chaos_unknown_stage_names_token(self):
        with pytest.raises(SpecParseError) as excinfo:
            ChaosSpec.parse("worker_kill=1.0,stages=warp_core")
        assert excinfo.value.token == "warp_core"

    def test_net_chaos_errors_are_both_spec_and_simulation_errors(self):
        from repro.simulation.fabric import NetworkChaosSpec

        for spec, token in [
            ("drop", "drop"),
            ("warp=0.5", "warp"),
            ("drop=many", "many"),
        ]:
            with pytest.raises(NetworkSpecParseError) as excinfo:
                NetworkChaosSpec.parse(spec)
            err = excinfo.value
            assert isinstance(err, SpecParseError)
            assert isinstance(err, SimulationError)
            assert err.knob == "REPRO_NET_CHAOS"
            assert err.token == token


class TestDedupSorted:
    """The one neighbour-diff dedup shared by the merges and the spill."""

    @pytest.mark.parametrize("dtype", [np.int16, np.int32, np.int64, np.uint64])
    def test_matches_numpy_unique(self, dtype):
        rng = as_generator(77)
        keys = np.sort(rng.integers(0, 300, size=2000).astype(dtype))
        out = _dedup_sorted(keys)
        assert out.dtype == np.dtype(dtype)
        assert out.tobytes() == np.unique(keys).tobytes()

    def test_short_arrays_pass_through(self):
        for keys in (np.empty(0, np.int64), np.array([7], np.int32)):
            assert _dedup_sorted(keys) is keys

    def test_sparse_merges_use_this_copy(self):
        import repro.core.sparse as sparse_module

        assert sparse_module._dedup_sorted is _dedup_sorted


class TestExternalSortUnique:
    def test_empty_and_single_part(self, tmp_path):
        assert external_sort_unique([], str(tmp_path)).size == 0
        out = external_sort_unique([np.array([5, 1, 5], np.int64)], str(tmp_path))
        np.testing.assert_array_equal(out, [1, 5])

    @pytest.mark.parametrize("dtype", [np.int64, np.int32])
    @pytest.mark.parametrize("window", [2, 7, 64])
    def test_matches_in_memory_union(self, tmp_path, dtype, window):
        rng = as_generator(1234 + window)
        parts = [
            rng.integers(0, 500, size=int(rng.integers(0, 400))).astype(dtype)
            for _ in range(int(rng.integers(2, 6)))
        ]
        merged = external_sort_unique(parts, str(tmp_path), window=window)
        expected = np.unique(np.concatenate(parts))
        assert merged.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(merged, expected)
        assert merged.tobytes() == expected.astype(dtype).tobytes()

    def test_leaves_no_run_files_behind(self, tmp_path):
        parts = [np.arange(100, dtype=np.int64), np.arange(50, 150, dtype=np.int64)]
        external_sort_unique(parts, str(tmp_path), window=8)
        assert os.listdir(str(tmp_path)) == []


class TestGovernor:
    def test_inactive_outside_fusion(self):
        assert current_governor() is None
        governor = ResourceGovernor(budget={"memory": 100})
        with activate(governor):
            assert current_governor() is governor
            inner = ResourceGovernor(budget={"memory": 1})
            with activate(inner):
                assert current_governor() is inner
            assert current_governor() is governor
        assert current_governor() is None

    def test_should_spill_watermark(self):
        governor = ResourceGovernor(budget={"memory": 1000}, chaos=ChaosSpec({}))
        assert not governor.should_spill(1000)
        assert governor.should_spill(1001)
        assert governor.stats.mem_peak == 1001

    def test_unbounded_never_spills(self):
        governor = ResourceGovernor(budget={}, chaos=ChaosSpec({}))
        assert not governor.should_spill(1 << 40)

    def test_mem_pressure_chaos_forces_spill(self):
        chaos = ChaosSpec(
            {EngineFaultKind.MEM_PRESSURE: 1.0},
            stages=("budget_check",),
            max_faults=1,
            seed=9,
        )
        governor = ResourceGovernor(budget={}, chaos=chaos)
        assert governor.should_spill(10)
        assert governor.stats.chaos == 1
        assert not governor.should_spill(10)  # max_faults exhausted

    def test_spill_merge_counts_and_matches(self, tmp_path):
        governor = ResourceGovernor(budget={"memory": 1}, chaos=ChaosSpec({}))
        governor.set_spill_dir(str(tmp_path))
        parts = [np.array([9, 2, 4], np.int64), np.array([4, 8], np.int64)]
        merged = governor.spill_merge(parts)
        np.testing.assert_array_equal(merged, [2, 4, 8, 9])
        assert governor.stats.spills == 1
        assert governor.stats.spilled_bytes == sum(p.nbytes for p in parts)

    def test_close_removes_private_spill_dir(self):
        governor = ResourceGovernor(budget={})
        scratch = governor.spill_dir()
        assert os.path.isdir(scratch)
        governor.close()
        assert not os.path.exists(scratch)

    def test_stats_counters_are_ints(self):
        for value in BudgetStats().as_counters().values():
            assert isinstance(value, int)


class TestStoreDiskRetry:
    """Tentpole: ENOSPC commits sweep, back off, retry, then raise typed."""

    def _machines(self):
        return counters_family(3)

    def test_injected_disk_full_retries_and_succeeds(self, tmp_path):
        from repro.io.store import ArtifactStore

        chaos = ChaosSpec(
            {EngineFaultKind.DISK_FULL: 1.0},
            stages=("store_commit",),
            max_faults=1,
            seed=6,
        )
        store = ArtifactStore(str(tmp_path), chaos=chaos)
        digest = store.open_namespace(self._machines())
        store.commit(digest, "thing.npz", {"x": np.arange(5)}, {"kind": "test"})
        assert store.stats.disk_retries >= 1
        assert store.stats.quarantined == 0
        loaded = store.load(digest, "thing.npz")
        assert loaded is not None
        np.testing.assert_array_equal(loaded[0]["x"], np.arange(5))

    def test_budget_overrun_raises_typed_and_stays_resumable(self, tmp_path):
        from repro.io.store import ArtifactStore

        store = ArtifactStore(str(tmp_path), chaos=ChaosSpec({}))
        digest = store.open_namespace(self._machines())
        store.commit(digest, "small.npz", {"x": np.arange(4)}, {"kind": "test"})
        governor = ResourceGovernor(budget={"disk": 1}, chaos=ChaosSpec({}))
        with activate(governor):
            with pytest.raises(ResourceExhaustedError) as excinfo:
                store.commit(
                    digest, "big.npz", {"x": np.arange(100)}, {"kind": "test"}
                )
        err = excinfo.value
        assert err.resource == "disk"
        assert err.watermark == 1
        assert "resumable" in str(err)
        # Nothing quarantined, nothing torn: the earlier artifact still
        # verifies, the failed name simply does not exist, and with the
        # budget lifted the same commit goes through.
        assert store.stats.quarantined == 0
        assert store.load(digest, "small.npz") is not None
        assert store.load(digest, "big.npz") is None
        assert not [f for f in os.listdir(store.root) if ".tmp-" in f]
        store.commit(digest, "big.npz", {"x": np.arange(100)}, {"kind": "test"})
        assert store.load(digest, "big.npz") is not None

    def test_scratch_sweep_removes_only_dead_owner_files(self, tmp_path):
        from repro.io.store import ArtifactStore

        store = ArtifactStore(str(tmp_path), chaos=ChaosSpec({}))
        scratch = store.scratch_dir()
        own = os.path.join(scratch, "run-%d-0-0.bin" % os.getpid())
        dead = os.path.join(scratch, "run-999999999-0-0.bin")
        junk = os.path.join(scratch, "notarun.txt")
        for path in (own, dead, junk):
            with open(path, "wb") as handle:
                handle.write(b"x")
        removed = store.sweep_scratch()
        assert removed == 1
        assert os.path.exists(own)
        assert not os.path.exists(dead)
        assert os.path.exists(junk)
        assert store.stats.swept_scratch == 1


class TestFaultWiring:
    """The two resource kinds flow through FaultKind and the injector."""

    def test_fault_kind_mirrors_engine_kinds(self):
        from repro.simulation.faults import FaultKind

        for name in ("DISK_FULL", "MEM_PRESSURE"):
            kind = FaultKind[name]
            assert kind.value == EngineFaultKind[name].value
            assert kind.targets_engine
            assert not kind.targets_network

    def test_injector_builds_resource_chaos_spec(self):
        from repro.simulation.faults import FaultInjector

        injector = FaultInjector(["s1", "s2"], seed=1)
        spec = injector.engine_chaos(
            seed=5, disk_full=1.0, mem_pressure=1.0, max_faults=2
        )
        assert spec.active
        drawn = {
            spec.draw(stage)[0]
            for stage in ("store_commit", "budget_check")
        }
        assert drawn == {"disk_full", "mem_pressure"}

    def test_resource_kinds_draw_only_at_their_owner_stage(self):
        spec = ChaosSpec(
            {EngineFaultKind.DISK_FULL: 1.0}, max_faults=10, seed=0
        )
        assert spec.draw("budget_check") is None
        fault = spec.draw("store_commit")
        assert fault is not None and fault[0] == "disk_full"
