"""Unit tests for the checksummed container format and the artifact store.

The durability contract under test: every artifact commits atomically
and verifies on load; anything torn or bit-flipped is quarantined and
recomputed, never read; locks from dead owners are reclaimed; and a
second ``generate_fusion`` on an unchanged machine set warm-loads —
skipping ``product_build`` and ``ledger_build`` outright — with a
byte-identical result.
"""

from __future__ import annotations

import errno
import hashlib
import json
import os

import numpy as np
import pytest

from repro.core.exceptions import (
    ResourceExhaustedError,
    StoreCorruptionError,
    StoreLockTimeoutError,
)
from repro.core.fusion import generate_fusion
from repro.core.product import CrossProduct
from repro.core.sparse import PairLedger
from repro.io.npz_io import (
    load_machines,
    machine_set_digest,
    read_container,
    save_machines,
    write_container,
)
from repro.io.store import ArtifactStore
from repro.machines import fig2_machines, mesi, tcp
from repro.machines.catalog import counters_family
from repro.utils.timing import Stopwatch


class TestContainerFormat:
    def test_roundtrip_arrays_and_meta(self, tmp_path):
        path = str(tmp_path / "a.npz")
        arrays = {
            "order": np.arange(12, dtype=np.int64).reshape(4, 3),
            "flags": np.array([True, False, True]),
            "weights": np.linspace(0.0, 1.0, 5),
        }
        write_container(path, arrays, {"kind": "test", "n": 4})
        loaded, meta = read_container(path)
        assert meta["kind"] == "test" and meta["n"] == 4
        assert sorted(loaded) == sorted(arrays)
        for name in arrays:
            assert loaded[name].dtype == arrays[name].dtype
            assert np.array_equal(loaded[name], arrays[name])

    def test_loaded_arrays_are_zero_copy_views(self, tmp_path):
        path = str(tmp_path / "a.npz")
        write_container(path, {"x": np.arange(1000, dtype=np.int64)})
        loaded, _ = read_container(path)
        assert not loaded["x"].flags.writeable  # memory-mapped read-only

    def test_bit_flip_in_blob_detected(self, tmp_path):
        path = str(tmp_path / "a.npz")
        write_container(path, {"x": np.arange(64, dtype=np.int64)})
        with open(path, "r+b") as handle:
            handle.seek(-5, os.SEEK_END)
            byte = handle.read(1)
            handle.seek(-5, os.SEEK_END)
            handle.write(bytes([byte[0] ^ 0xFF]))
        with pytest.raises(StoreCorruptionError):
            read_container(path)

    def test_truncation_detected(self, tmp_path):
        path = str(tmp_path / "a.npz")
        write_container(path, {"x": np.arange(64, dtype=np.int64)})
        size = os.path.getsize(path)
        os.truncate(path, size * 3 // 4)
        with pytest.raises(StoreCorruptionError):
            read_container(path)

    def test_header_tamper_detected(self, tmp_path):
        path = str(tmp_path / "a.npz")
        write_container(path, {"x": np.arange(8, dtype=np.int64)})
        with open(path, "r+b") as handle:
            handle.seek(20)
            handle.write(b"!")
        with pytest.raises(StoreCorruptionError):
            read_container(path)

    def test_wrong_magic_rejected(self, tmp_path):
        path = str(tmp_path / "a.npz")
        with open(path, "wb") as handle:
            handle.write(b"NOTAFILE" + b"\x00" * 64)
        with pytest.raises(StoreCorruptionError):
            read_container(path)

    def test_container_bytes_are_pinned(self, tmp_path):
        # Checksums and blobs are taken from buffer views, not copies;
        # the file must stay byte-for-byte what the format always wrote
        # (mixed dtypes, a transposed input, a 0-d and an empty array).
        path = str(tmp_path / "pin.npz")
        arrays = {
            "order": np.arange(12, dtype=np.int64).reshape(4, 3),
            "transposed": np.arange(6, dtype=np.int32).reshape(2, 3).T,
            "flags": np.array([True, False, True]),
            "weights": np.linspace(0.0, 1.0, 5),
            "scalar": np.array(7, dtype=np.uint16),
            "empty": np.zeros((0, 3), dtype=np.int8),
        }
        write_container(path, arrays, {"kind": "pin", "n": 4}, fsync=False)
        with open(path, "rb") as handle:
            digest = hashlib.sha256(handle.read()).hexdigest()
        assert digest == (
            "e1727fde36b22207775389c9cecb39f0e0cb5982aedd0c61da28c2b28cc8b051"
        )
        loaded, _ = read_container(path)
        for name, arr in arrays.items():
            # ravel: the format has always stored a 0-d array as shape [1].
            assert np.array_equal(loaded[name].ravel(), arr.ravel())

    def test_product_container_bytes_are_pinned(self, tmp_path):
        machines = counters_family(4)
        digest = machine_set_digest(machines)
        store = ArtifactStore(str(tmp_path))
        store.save_product(digest, CrossProduct(machines))
        with open(os.path.join(str(tmp_path), digest, "product.npz"), "rb") as handle:
            pinned = hashlib.sha256(handle.read()).hexdigest()
        assert pinned == (
            "9104c3b5261dda879ba65ecc3aecc92b49950e37f43aede359bf64fecbe7fc1b"
        )

    def test_truncated_write_stops_at_the_byte(self, tmp_path):
        whole = str(tmp_path / "whole.npz")
        torn = str(tmp_path / "torn.npz")
        arrays = {"x": np.arange(64, dtype=np.int64), "y": np.arange(5, dtype=np.int8)}
        write_container(whole, arrays, fsync=False)
        size = os.path.getsize(whole)
        for cut in (0, 10, size - 300, size - 1, size + 50):
            write_container(torn, arrays, fsync=False, truncate_at=cut)
            with open(whole, "rb") as a, open(torn, "rb") as b:
                assert b.read() == a.read()[: max(0, cut)]

    def test_machine_set_roundtrip(self, tmp_path):
        machines = [mesi(), tcp()] + list(fig2_machines())
        path = str(tmp_path / "m.npz")
        save_machines(path, machines)
        loaded = load_machines(path)
        assert loaded == list(machines)

    def test_digest_is_order_and_content_sensitive(self):
        a = counters_family(3)
        assert machine_set_digest(a) == machine_set_digest(counters_family(3))
        assert machine_set_digest(a) != machine_set_digest(list(reversed(a)))
        assert machine_set_digest(a) != machine_set_digest(counters_family(4))


class TestArtifactStore:
    def test_commit_then_load(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = store.open_namespace(counters_family(3))
        store.commit(digest, "x.npz", {"v": np.arange(5)}, {"k": 1})
        loaded = store.load(digest, "x.npz")
        assert loaded is not None
        arrays, meta = loaded
        assert np.array_equal(arrays["v"], np.arange(5)) and meta["k"] == 1
        assert store.stats.commits >= 1 and store.stats.hits == 1

    def test_missing_artifact_is_a_miss(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = store.open_namespace(counters_family(3))
        assert store.load(digest, "absent.npz") is None
        assert store.stats.misses == 1

    def test_corrupt_artifact_quarantined_not_loaded(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = store.open_namespace(counters_family(3))
        store.commit(digest, "x.npz", {"v": np.arange(100)})
        path = store.artifact_path(digest, "x.npz")
        os.truncate(path, os.path.getsize(path) // 2)
        assert store.load(digest, "x.npz") is None
        assert not os.path.exists(path), "torn artifact must be renamed aside"
        quarantine = os.path.join(os.path.dirname(path), "quarantine")
        assert len(os.listdir(quarantine)) == 1
        assert store.stats.quarantined == 1 and store.stats.misses == 1

    def test_namespace_is_self_describing(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        machines = counters_family(3)
        digest = store.open_namespace(machines)
        assert store.load_machine_set(digest) == machines

    def test_stale_temp_files_swept(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        machines = counters_family(3)
        digest = store.open_namespace(machines)
        dead = os.path.join(
            str(tmp_path), digest, "x.npz.tmp-999999999-0"
        )  # pid far beyond pid_max: guaranteed dead
        with open(dead, "wb") as handle:
            handle.write(b"partial")
        fresh = ArtifactStore(str(tmp_path))
        fresh.open_namespace(machines)
        assert not os.path.exists(dead)
        assert fresh.stats.swept_tmp == 1

    def test_run_key_is_deterministic_and_parameter_sensitive(self, tmp_path):
        key = ArtifactStore.run_key(f=2, strategy="first")
        assert key == ArtifactStore.run_key(f=2, strategy="first")
        assert key != ArtifactStore.run_key(f=3, strategy="first")
        assert key != ArtifactStore.run_key(f=2, strategy="fewest_blocks")

    def test_product_roundtrip_byte_identical(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        machines = counters_family(4)
        digest = store.open_namespace(machines)
        product = CrossProduct(machines)
        store.save_product(digest, product)
        warm = store.load_product(digest, machines)
        assert warm is not None
        assert np.array_equal(
            warm.machine.transition_table, product.machine.transition_table
        )
        assert np.array_equal(warm.exploration_arrays[0], product.exploration_arrays[0])

    def test_ledger_roundtrip(self, tmp_path):
        store = ArtifactStore(str(tmp_path))
        digest = store.open_namespace(counters_family(3))
        ledger = PairLedger(
            10,
            3,
            np.array([0, 1, 2], dtype=np.int64),
            np.array([3, 4, 5], dtype=np.int64),
            np.array([1, 2, 1], dtype=np.int64),
        )
        store.save_base_ledger(digest, ledger)
        loaded = store.load_base_ledgers(digest)
        assert set(loaded) == {3}
        assert loaded[3].num_states == 10
        assert np.array_equal(loaded[3].rows, ledger.rows)
        assert np.array_equal(loaded[3].weights, ledger.weights)


class TestAdvisoryLocks:
    def test_lock_excludes_and_releases(self, tmp_path):
        store = ArtifactStore(str(tmp_path), lock_timeout=0.2)
        digest = store.open_namespace(counters_family(3))
        with store.lock(digest, "run"):
            other = ArtifactStore(str(tmp_path), lock_timeout=0.2)
            with pytest.raises(StoreLockTimeoutError):
                with other.lock(digest, "run"):
                    pass
            assert other.stats.lock_waits == 1
        # Released on exit: immediately acquirable again.
        with store.lock(digest, "run"):
            pass

    def test_dead_owner_lock_reclaimed(self, tmp_path):
        store = ArtifactStore(str(tmp_path), lock_timeout=5.0)
        digest = store.open_namespace(counters_family(3))
        path = os.path.join(str(tmp_path), digest, "run.lock")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": 999999999, "start": 12345}))
        with store.lock(digest, "run"):
            pass  # acquired without waiting out the timeout
        assert store.stats.stale_locks == 1

    def test_recycled_pid_detected_via_start_time(self, tmp_path):
        # Same pid as a live process (ours) but an impossible start time:
        # the owner is a *previous incarnation* of the pid, hence dead.
        store = ArtifactStore(str(tmp_path), lock_timeout=5.0)
        digest = store.open_namespace(counters_family(3))
        path = os.path.join(str(tmp_path), digest, "run.lock")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(json.dumps({"pid": os.getpid(), "start": 1}))
        with store.lock(digest, "run"):
            pass
        assert store.stats.stale_locks == 1

    def test_unreadable_lock_payload_treated_as_stale(self, tmp_path):
        store = ArtifactStore(str(tmp_path), lock_timeout=5.0)
        digest = store.open_namespace(counters_family(3))
        path = os.path.join(str(tmp_path), digest, "run.lock")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{torn")
        with store.lock(digest, "run"):
            pass
        assert store.stats.stale_locks == 1

    def test_contender_never_sees_a_half_written_lock(self, tmp_path, monkeypatch):
        # A contender that probes the lock while its owner is still
        # writing the payload must not reclaim it as a dead owner's: the
        # owner would go on believing it holds the lock beside the
        # contender.  The probe runs from inside the owner's payload
        # write (its start-time lookup).
        import repro.io.store as store_module

        store = ArtifactStore(str(tmp_path), lock_timeout=5.0)
        digest = store.open_namespace(counters_family(3))
        other = ArtifactStore(str(tmp_path), lock_timeout=5.0)
        real_start_time = store_module._process_start_time
        probed = []

        def start_time(pid):
            if not probed:
                probed.append(pid)
                with other.lock(digest, "run"):
                    pass
            return real_start_time(pid)

        monkeypatch.setattr(store_module, "_process_start_time", start_time)
        with store.lock(digest, "run"):
            pass
        assert probed
        assert other.stats.stale_locks == 0
        assert store.stats.stale_locks == 0
        assert sorted(os.listdir(os.path.join(str(tmp_path), digest))) == [
            "machines.npz"
        ]

    @pytest.mark.parametrize(
        "target, code, expected",
        [
            ("fsync", errno.ENOSPC, ResourceExhaustedError),
            ("fsync", errno.EDQUOT, ResourceExhaustedError),
            ("link", errno.EPERM, PermissionError),
            ("link", errno.ENOTSUP, OSError),
        ],
    )
    def test_failed_lock_write_raises_instead_of_spinning(
        self, tmp_path, monkeypatch, target, code, expected
    ):
        # A lock file that cannot be written (full disk, no hard links)
        # must surface as an error, not as a lock held by nobody that the
        # waiter reclaims and retries forever.
        store = ArtifactStore(str(tmp_path), lock_timeout=1.0)
        digest = store.open_namespace(counters_family(3))
        calls = []

        def failing(*args, **kwargs):
            calls.append(target)
            raise OSError(code, os.strerror(code))

        monkeypatch.setattr(os, target, failing)
        with pytest.raises(expected):
            with store.lock(digest, "run"):
                pass
        monkeypatch.undo()
        assert calls == [target]
        assert sorted(os.listdir(os.path.join(str(tmp_path), digest))) == [
            "machines.npz"
        ]


class TestWarmFusion:
    def test_second_call_skips_product_and_ledger_build(self, tmp_path):
        machines = counters_family(5)
        reference = generate_fusion(machines, 2)
        cold_watch = Stopwatch()
        generate_fusion(machines, 2, stopwatch=cold_watch, store=str(tmp_path))
        assert "product_build" in cold_watch.as_dict()

        warm_watch = Stopwatch()
        store = ArtifactStore(str(tmp_path))
        warm = generate_fusion(machines, 2, stopwatch=warm_watch, store=store)
        stages = warm_watch.as_dict()
        # The acceptance criterion: a warm hit computes nothing.
        assert "product_build" not in stages
        assert "ledger_build" not in stages
        assert "descent" not in stages
        assert store.stats.hits >= 2 and store.stats.commits == 0

        assert warm.summary() == reference.summary()
        for ours, theirs in zip(warm.backups, reference.backups):
            assert ours.name == theirs.name
            assert np.array_equal(ours.transition_table, theirs.transition_table)
        assert [tuple(p.labels) for p in warm.partitions] == [
            tuple(p.labels) for p in reference.partitions
        ]

    def test_store_stage_counters_recorded(self, tmp_path):
        machines = counters_family(4)
        watch = Stopwatch()
        generate_fusion(machines, 2, stopwatch=watch, store=str(tmp_path))
        extras = watch.extras("store")
        assert extras["commits"] >= 3  # product + per-backup + result at least
        assert extras["checkpoints"] >= 1
        assert extras["quarantined"] == 0

    def test_corrupt_product_recomputed_transparently(self, tmp_path):
        machines = counters_family(4)
        reference = generate_fusion(machines, 2)
        store = ArtifactStore(str(tmp_path))
        generate_fusion(machines, 2, store=store)
        digest = machine_set_digest(machines)
        # Tear both the product and the result: the rerun must quarantine
        # them, recompute, and still produce identical bytes.
        for name in os.listdir(os.path.join(str(tmp_path), digest)):
            if name.startswith(("product", "result")):
                path = os.path.join(str(tmp_path), digest, name)
                os.truncate(path, os.path.getsize(path) - 7)
        rerun_store = ArtifactStore(str(tmp_path))
        rerun = generate_fusion(machines, 2, store=rerun_store)
        assert rerun_store.stats.quarantined >= 2
        assert rerun.summary() == reference.summary()
        for ours, theirs in zip(rerun.backups, reference.backups):
            assert np.array_equal(ours.transition_table, theirs.transition_table)

    def test_checkpoint_resume_is_byte_identical(self, tmp_path):
        machines = counters_family(5)
        reference = generate_fusion(machines, 2)
        generate_fusion(machines, 2, store=str(tmp_path))
        digest = machine_set_digest(machines)
        namespace = os.path.join(str(tmp_path), digest)
        # Simulate a crash mid-descent: drop the finished artifacts but
        # keep the level checkpoints, then rerun.
        removed = 0
        for name in os.listdir(namespace):
            if name.startswith(("result", "backup")):
                os.unlink(os.path.join(namespace, name))
                removed += 1
        assert removed, "the cold run must have committed result artifacts"
        store = ArtifactStore(str(tmp_path))
        resumed = generate_fusion(machines, 2, store=store)
        assert store.stats.resumed_levels >= 1
        assert resumed.summary() == reference.summary()
        assert [tuple(p.labels) for p in resumed.partitions] == [
            tuple(p.labels) for p in reference.partitions
        ]

    def test_env_var_enables_store(self, tmp_path, monkeypatch):
        machines = counters_family(3)
        monkeypatch.setenv("REPRO_ARTIFACT_DIR", str(tmp_path))
        generate_fusion(machines, 1)
        digest = machine_set_digest(machines)
        names = os.listdir(os.path.join(str(tmp_path), digest))
        assert any(name.startswith("result-") for name in names)

    def test_no_store_means_no_files(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_ARTIFACT_DIR", raising=False)
        generate_fusion(counters_family(3), 1)
        assert os.listdir(str(tmp_path)) == []
