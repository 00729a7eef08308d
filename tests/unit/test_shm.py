"""Unit tests for the shared-memory layer (``repro.core.shm``).

The property suite establishes that parallel and serial engines compute
identical results; these tests pin the *lifecycle* contracts instead —
bundles round-trip arrays, attached views are read-only, segments are
unlinked from ``/dev/shm`` on every exit path (normal close, context
manager with an exception in flight, garbage collection, Ctrl-C during
a wave), the pool refuses use-after-close instead of leaking, and its
workers die with their owner.
"""

from __future__ import annotations

import ctypes
import errno
import gc
import multiprocessing
import os
import pickle
import signal
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import repro.core.shm as shm_module
from repro.core.exceptions import FusionError, ResourceExhaustedError
from repro.core.resilience import live_owned_segments
from repro.core.shm import (
    SharedArrayBundle,
    SharedScratch,
    SharedWorkerPool,
    _die_with_owner,
    attached_arrays,
    resolve_workers,
)

#: ``prctl`` option: read the calling process's parent-death signal.
_PR_GET_PDEATHSIG = 2

linux_only = pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux-only"
)


def _parent_death_signal() -> int:
    """Worker task: the signal this process receives when its parent dies."""
    value = ctypes.c_int(0)
    libc = ctypes.CDLL(None, use_errno=True)
    assert libc.prctl(_PR_GET_PDEATHSIG, ctypes.byref(value), 0, 0, 0) == 0
    return value.value


def _payload_sum(meta) -> int:
    """Worker task: the sum of a published bundle's ``xs`` array."""
    return int(attached_arrays(meta)["xs"].sum())


def _segment_exists(name: str) -> bool:
    """True while a POSIX shared-memory segment with this name is linked."""
    from multiprocessing import shared_memory

    try:
        handle = shared_memory.SharedMemory(name=name)
    except FileNotFoundError:
        return False
    handle.close()
    return True


class TestSharedArrayBundle:
    def test_round_trip_and_layout(self):
        arrays = {
            "table": np.arange(12, dtype=np.int64).reshape(3, 4),
            "labels": np.array([2, 0, 1], dtype=np.int32),
        }
        with SharedArrayBundle.create(arrays) as bundle:
            attached = SharedArrayBundle.attach(bundle.meta)
            try:
                for name, array in arrays.items():
                    assert np.array_equal(attached.arrays[name], array)
                    assert attached.arrays[name].dtype == array.dtype
            finally:
                attached.close()

    def test_attached_views_are_read_only(self):
        with SharedArrayBundle.create({"xs": np.zeros(4)}) as bundle:
            attached = SharedArrayBundle.attach(bundle.meta)
            try:
                with pytest.raises(ValueError):
                    attached.arrays["xs"][0] = 1.0
            finally:
                attached.close()

    def test_owner_writes_are_visible_through_attachments(self):
        """Scratch regions rewritten by the owner need no re-attach."""
        with SharedArrayBundle.create({"xs": np.zeros(4, dtype=np.int64)}) as bundle:
            attached = SharedArrayBundle.attach(bundle.meta)
            try:
                bundle.arrays["xs"][...] = np.array([5, 6, 7, 8])
                assert attached.arrays["xs"].tolist() == [5, 6, 7, 8]
            finally:
                attached.close()

    def test_meta_is_picklable(self):
        with SharedArrayBundle.create({"xs": np.arange(3)}) as bundle:
            meta = pickle.loads(pickle.dumps(bundle.meta))
            attached = SharedArrayBundle.attach(meta)
            try:
                assert attached.arrays["xs"].tolist() == [0, 1, 2]
            finally:
                attached.close()

    def test_close_unlinks_segment(self):
        bundle = SharedArrayBundle.create({"xs": np.arange(3)})
        name = bundle.name
        assert _segment_exists(name)
        bundle.close()
        assert not _segment_exists(name)
        bundle.close()  # idempotent

    def test_context_manager_unlinks_on_error(self):
        """The satellite requirement: no /dev/shm leak on error paths."""
        name = None
        with pytest.raises(RuntimeError):
            with SharedArrayBundle.create({"xs": np.arange(3)}) as bundle:
                name = bundle.name
                assert _segment_exists(name)
                raise RuntimeError("interrupted mid-use")
        assert name is not None and not _segment_exists(name)

    def test_garbage_collection_backstop_unlinks(self):
        bundle = SharedArrayBundle.create({"xs": np.arange(3)})
        name = bundle.name
        del bundle
        gc.collect()
        assert not _segment_exists(name)


class TestSharedWorkerPool:
    def test_rejects_serial_worker_counts(self):
        for count in (0, 1, -2):
            with pytest.raises(FusionError):
                SharedWorkerPool(count)

    def test_close_unlinks_published_bundles(self):
        pool = SharedWorkerPool(2)
        bundle = pool.publish({"xs": np.arange(5)})
        name = bundle.name
        assert _segment_exists(name)
        pool.close()
        assert not _segment_exists(name)
        assert not pool.usable

    def test_use_after_close_is_refused(self):
        pool = SharedWorkerPool(2)
        pool.close()
        with pytest.raises(FusionError):
            pool.publish({"xs": np.arange(2)})
        with pytest.raises(FusionError):
            pool.submit(len, ())
        pool.close()  # idempotent

    def test_retire_unlinks_early(self):
        with SharedWorkerPool(2) as pool:
            bundle = pool.publish({"xs": np.arange(2)})
            name = bundle.name
            pool.retire(bundle)
            assert not _segment_exists(name)

    def test_context_manager_closes_on_error(self):
        name = None
        with pytest.raises(RuntimeError):
            with SharedWorkerPool(2) as pool:
                name = pool.publish({"xs": np.arange(2)}).name
                raise RuntimeError("interrupted mid-fusion")
        assert name is not None and not _segment_exists(name)

    def test_submit_round_trip(self):
        """The lazily-spawned executor really runs tasks."""
        with SharedWorkerPool(2) as pool:
            assert pool.submit(sum, (1, 2, 3)).result() == 6

    def test_keyboard_interrupt_in_a_wave_tears_the_pool_down(self, monkeypatch):
        """Ctrl-C while a wave is collected kills the workers and unlinks
        the bundles before re-raising; the fallback never runs."""
        pool = SharedWorkerPool(2)
        name = pool.publish({"xs": np.arange(4)}).name

        def interrupted(_futures):
            raise KeyboardInterrupt

        monkeypatch.setattr(pool, "_collect_wave", interrupted)
        fallback_calls = []
        with pytest.raises(KeyboardInterrupt):
            pool.run_wave(
                "runtime_step",
                lambda: [pool.submit(sum, (1, 2))],
                serial_fallback=lambda: fallback_calls.append(1),
            )
        assert fallback_calls == []
        assert not pool.usable
        assert not _segment_exists(name)
        with pytest.raises(FusionError):
            pool.submit(sum, (1,))
        pool.close()  # already torn down: a no-op, not a join

    @linux_only
    def test_workers_die_with_their_owner(self):
        """Every worker carries ``PR_SET_PDEATHSIG = SIGKILL``."""
        with SharedWorkerPool(2) as pool:
            signals = [pool.submit(_parent_death_signal) for _ in range(4)]
            assert {future.result() for future in signals} == {int(signal.SIGKILL)}

    @linux_only
    def test_worker_of_an_already_dead_owner_kills_itself(self):
        """The initializer's race guard: a worker whose parent is not
        the recorded owner (the owner died before ``prctl`` took
        effect) SIGKILLs itself instead of running orphaned."""
        child = multiprocessing.get_context("fork").Process(
            target=_die_with_owner, args=(0,)
        )
        child.start()
        child.join(timeout=10)
        assert child.exitcode == -signal.SIGKILL

    @pytest.mark.skipif(
        "forkserver" not in multiprocessing.get_all_start_methods(),
        reason="needs the forkserver start method",
    )
    def test_workers_are_forked_whatever_the_default_start_method(self):
        """The initializer takes the worker's parent to be the owner.
        With ``forkserver`` as the interpreter default (Python 3.14 on
        Linux), a pool that followed the default would fork its workers
        from the server, and each would SIGKILL itself at start."""
        script = textwrap.dedent(
            """
            import multiprocessing, os
            from repro.core.shm import SharedWorkerPool
            multiprocessing.set_start_method("forkserver", force=True)
            with SharedWorkerPool(2) as pool:
                pids = {pool.submit(os.getppid).result(timeout=60) for _ in range(4)}
            print(pids == {os.getpid()})
            """
        )
        src = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(shm_module.__file__)))
        )
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "True"


class TestShmFallback:
    """A ``/dev/shm`` that cannot hold a segment degrades the publish to
    a file-backed mmap segment; only a failed fallback raises."""

    def _arrays(self):
        return {"xs": np.arange(100, dtype=np.int64), "ys": np.linspace(0.0, 1.0, 33)}

    def test_no_free_space_falls_back_to_a_file_segment(self, monkeypatch):
        monkeypatch.setattr(shm_module, "shm_free_bytes", lambda path="/dev/shm": 0)
        bundle = SharedArrayBundle.create(self._arrays())
        try:
            meta = bundle.meta
            assert bundle.file_backed and meta["backing"] == "file"
            assert live_owned_segments() == ()
            attached = SharedArrayBundle.attach(meta)
            for name, array in self._arrays().items():
                np.testing.assert_array_equal(attached.arrays[name], array)
            attached.close()
        finally:
            bundle.close()
        assert not os.path.exists(meta["segment"])

    def test_kernel_enospc_falls_back_too(self, monkeypatch):
        def full(size):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shm_module, "_create_named_segment", full)
        with SharedArrayBundle.create(self._arrays()) as bundle:
            assert bundle.file_backed

    def test_pool_counts_fallbacks_and_workers_read_them(self, monkeypatch):
        with SharedWorkerPool(2) as pool:
            pool.publish({"xs": np.arange(4)})
            assert pool.shm_fallbacks == 0
            monkeypatch.setattr(shm_module, "shm_free_bytes", lambda path="/dev/shm": 0)
            bundle = pool.publish({"xs": np.arange(10)})
            assert bundle.file_backed and pool.shm_fallbacks == 1
            assert pool.submit(_payload_sum, bundle.meta).result(timeout=60) == 45

    def test_failed_fallback_raises_typed_with_segment_size(self, monkeypatch):
        def refuse(cls, size, directory):
            raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(shm_module, "shm_free_bytes", lambda path="/dev/shm": 0)
        monkeypatch.setattr(shm_module._FileSegment, "create", classmethod(refuse))
        with pytest.raises(ResourceExhaustedError) as excinfo:
            SharedArrayBundle.create(self._arrays())
        err = excinfo.value
        assert err.resource == "shm" and err.watermark is None
        assert err.observed > 0
        assert "%d bytes" % err.observed in str(err)


class TestSharedScratch:
    def test_write_read_and_grow_in_place(self):
        with SharedWorkerPool(2) as pool:
            scratch = SharedScratch(pool)
            meta, length = scratch.write(np.arange(4, dtype=np.int64))
            first_name = meta["segment"]
            assert length == 4
            assert attached_arrays(meta)["data"][:length].tolist() == [0, 1, 2, 3]
            # A smaller payload reuses the same segment...
            meta2, length2 = scratch.write(np.array([7], dtype=np.int64))
            assert meta2["segment"] == first_name and length2 == 1
            # ...while outgrowing the capacity recreates it with headroom.
            meta3, length3 = scratch.write(np.arange(100, dtype=np.int64))
            assert meta3["segment"] != first_name
            assert length3 == 100 and scratch.capacity >= 100
            scratch.close()

    def test_first_write_may_be_empty(self):
        with SharedWorkerPool(2) as pool:
            scratch = SharedScratch(pool)
            meta, length = scratch.write(np.empty(0, dtype=np.int64))
            assert length == 0
            assert attached_arrays(meta)["data"][:length].size == 0
            scratch.close()

    def test_close_unlinks_backing_segment(self):
        with SharedWorkerPool(2) as pool:
            scratch = SharedScratch(pool)
            meta, _length = scratch.write(np.arange(3, dtype=np.int64))
            assert _segment_exists(meta["segment"])
            scratch.close()
            assert not _segment_exists(meta["segment"])
            scratch.close()  # idempotent


def _two_bundle_task(first_meta, second_meta):
    """Views of the first bundle must stay valid after attaching the
    second — even when the second attach evicts the first from the
    worker's cache (the PR 5 regression: an immediate unmap let the OS
    reuse the address range and the live views silently read the wrong
    segment's bytes)."""
    arrays = attached_arrays(first_meta)
    payload = arrays["payload"]
    before = int(payload.sum())
    _other = attached_arrays(second_meta)["payload"]
    after = int(payload.sum())
    return before, after


class TestAttachCacheEvictionSafety:
    def test_views_survive_mid_task_eviction(self, monkeypatch):
        import repro.core.shm as shm_module

        # Cache of 1: every second attach evicts the first bundle while
        # the task still holds views of it.
        monkeypatch.setattr(shm_module, "_ATTACH_CACHE_LIMIT", 1)
        with SharedWorkerPool(2) as pool:
            first = pool.publish({"payload": np.arange(1000, dtype=np.int64)})
            expected = int(np.arange(1000).sum())
            for round_index in range(6):
                # Fresh second bundle per round: constant segment churn.
                second = pool.publish(
                    {"payload": np.full(2000, round_index, dtype=np.int64)}
                )
                before, after = pool.submit(
                    _two_bundle_task, first.meta, second.meta
                ).result()
                assert before == expected, round_index
                assert after == expected, round_index
                pool.retire(second)

    def test_cache_is_lru_not_fifo(self):
        import repro.core.shm as shm_module

        bundles = [
            SharedArrayBundle.create({"payload": np.arange(3, dtype=np.int64)})
            for _ in range(3)
        ]
        saved_cache = dict(shm_module._ATTACH_CACHE)
        shm_module._ATTACH_CACHE.clear()
        try:
            for bundle in bundles:
                attached_arrays(bundle.meta)
            attached_arrays(bundles[0].meta)  # touch: most recently used
            order = list(shm_module._ATTACH_CACHE)
            assert order[-1] == bundles[0].name
        finally:
            shm_module._drain_pending_closes()
            for name in list(shm_module._ATTACH_CACHE):
                if name not in saved_cache:
                    shm_module._ATTACH_CACHE.pop(name).close()
            shm_module._ATTACH_CACHE.update(saved_cache)
            for bundle in bundles:
                bundle.close()


class TestResolveWorkersReExport:
    def test_fusion_re_export_is_the_same_function(self):
        from repro.core import fusion

        assert fusion.resolve_workers is resolve_workers

    def test_package_export(self):
        import repro

        assert repro.resolve_workers is resolve_workers
