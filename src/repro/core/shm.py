"""Shared-memory buffers and the worker pool behind the pooled runtime.

:class:`repro.core.runtime.VectorizedRuntime` shards the state gathers
of large fleets over worker processes (the ``runtime_step`` stage).
The tasks read the fleet's transition tables and state matrices, which
this module publishes **once** through ``multiprocessing.shared_memory``
instead of pickling them into every task.  Fusion generation itself
runs in-process and uses none of this.

* :class:`SharedArrayBundle` — several named arrays packed into one
  shared segment, with a picklable :attr:`~SharedArrayBundle.meta`
  descriptor workers attach by name.  The owner side is a context
  manager and carries a ``weakref.finalize`` backstop, so segments are
  unlinked from ``/dev/shm`` even on error or interrupt.
* :func:`attached_arrays` — the worker-side attach cache: one
  ``shm_open``/``mmap`` per segment per worker process, evicting old
  segments so long sessions cannot accumulate mappings.
* :class:`SharedWorkerPool` — a lazily-spawned ``ProcessPoolExecutor``
  plus the bundles its tasks read, closed together in one ``finally``.
  Its workers die with their owner (``PR_SET_PDEATHSIG`` on Linux), and
  a pool start reaps ``psm_*`` segments left by owners in its pid
  namespace that died.
* :class:`SharedScratch` — a reusable, growable shared array for
  per-step payloads (the fleet's state matrices), rewritten in place
  between task waves instead of churning one fresh segment per step
  through every worker's attach cache.
* :func:`resolve_workers` — the worker-count policy
  (``repro.core.fusion.resolve_workers`` remains as a re-export).

Workers only ever *read* published arrays (scratch regions are written
by the owner strictly between task waves), so no locking is needed; the
pooled steps stay byte-identical to the serial ones by construction.
"""

from __future__ import annotations

import atexit
import ctypes
import errno
import itertools
import mmap
import multiprocessing
import os
import signal
import sys
import tempfile
import time
import weakref
from concurrent.futures import Future, ProcessPoolExecutor
from concurrent.futures import wait as _futures_wait
from multiprocessing import shared_memory
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

from .exceptions import FusionError, PoolDegradedError, ResourceExhaustedError
from .resilience import (
    RECOVERABLE_POOL_ERRORS,
    ChaosSpec,
    ResilienceConfig,
    ResilienceStats,
    chaos_from_env,
    execute_chaos_fault,
    forget_owned_segment,
    owned_segment_name,
    reap_dead_owner_segments,
    register_owned_segment,
    stage_of,
)

__all__ = [
    "SharedArrayBundle",
    "SharedScratch",
    "SharedWorkerPool",
    "attached_arrays",
    "resolve_workers",
]

#: Hard ceiling on worker processes however the count is configured.
_MAX_WORKERS = 16


def resolve_workers(workers: Optional[int] = None) -> int:
    """Resolve the worker count of the pooled runtime.

    ``workers`` wins when given; otherwise the ``REPRO_FUSION_WORKERS``
    environment variable; otherwise the CPU count — except under pytest
    (``PYTEST_CURRENT_TEST`` set), where the default is the serial path
    so test runs stay single-process and deterministic to debug.  Values
    of 0 or 1 mean serial; anything larger is capped at
    :data:`_MAX_WORKERS`; negative values are a configuration error and
    raise :class:`FusionError` instead of being silently clamped to the
    serial path.  Pooled and serial stepping are byte-identical —
    workers only change wall-clock.  ``generate_fusion`` validates its
    ``workers=`` argument here too, but never forks.
    """
    if workers is None:
        env = os.environ.get("REPRO_FUSION_WORKERS", "").strip()
        if env:
            try:
                workers = int(env)
            except ValueError:
                raise FusionError(
                    "REPRO_FUSION_WORKERS must be an integer, got %r" % env
                ) from None
        elif "PYTEST_CURRENT_TEST" in os.environ:
            workers = 0
        else:
            workers = os.cpu_count() or 1
    workers = int(workers)
    if workers < 0:
        raise FusionError(
            "worker count must be >= 0 (0/1 = serial), got %d; "
            "check REPRO_FUSION_WORKERS or the workers= argument" % workers
        )
    return min(workers, _MAX_WORKERS)


def _align(offset: int, alignment: int = 64) -> int:
    return (offset + alignment - 1) // alignment * alignment


#: ``OSError`` numbers that mean "``/dev/shm`` cannot hold this segment"
#: (full filesystem, file-descriptor exhaustion, kernel memory) — the
#: triggers for the file-backed fallback.  Anything else propagates.
_SHM_FULL_ERRNOS = frozenset(
    {errno.ENOSPC, errno.EMFILE, errno.ENFILE, errno.ENOMEM}
)

#: Monotonic suffix for file-backed segment names within this process.
_FILE_SEGMENT_SEQ = itertools.count()


class _FileSegment:
    """A file-backed mmap stand-in for ``shared_memory.SharedMemory``.

    The graceful-degradation target when ``/dev/shm`` is full: same
    ``buf``/``name``/``size``/``close``/``unlink`` surface, but the
    bytes live in a regular file (in the system temp directory), so
    publishing survives shm exhaustion at the cost of going through the
    page cache.  Workers are forked and open the same path, so shared
    ``mmap`` semantics — owner writes visible to attached readers —
    are identical to a ``/dev/shm`` segment.
    """

    __slots__ = ("_path", "_file", "_mmap", "_buf", "size", "_owner")

    def __init__(self, path: str, size: int, owner: bool) -> None:
        self._path = path
        self._owner = owner
        self.size = int(size)
        if owner:
            handle = open(path, "wb+")
            try:
                handle.truncate(self.size)
                self._mmap = mmap.mmap(
                    handle.fileno(), self.size, access=mmap.ACCESS_WRITE
                )
            except BaseException:
                handle.close()
                try:
                    os.unlink(path)
                except OSError:
                    pass
                raise
        else:
            handle = open(path, "rb")
            try:
                self._mmap = mmap.mmap(
                    handle.fileno(), self.size, access=mmap.ACCESS_READ
                )
            except BaseException:
                handle.close()
                raise
        self._file = handle
        self._buf = memoryview(self._mmap)

    @classmethod
    def create(cls, size: int, directory: str) -> "_FileSegment":
        path = os.path.join(
            directory,
            "repro-seg-%d-%d.bin" % (os.getpid(), next(_FILE_SEGMENT_SEQ)),
        )
        return cls(path, max(int(size), 1), owner=True)

    @classmethod
    def attach(cls, path: str) -> "_FileSegment":
        return cls(path, os.path.getsize(path), owner=False)

    @property
    def buf(self):
        return self._buf

    @property
    def name(self) -> str:
        return self._path

    def close(self) -> None:
        try:
            self._buf.release()
        except Exception:
            pass
        try:
            self._mmap.close()
        except Exception:  # pragma: no cover - live exported views
            pass
        try:
            self._file.close()
        except Exception:  # pragma: no cover - teardown best effort
            pass

    def unlink(self) -> None:
        if self._owner:
            try:
                os.unlink(self._path)
            except OSError:  # already removed elsewhere
                pass


def shm_free_bytes(path: str = "/dev/shm") -> Optional[int]:
    """Free bytes on the shared-memory filesystem, or ``None`` off-Linux."""
    try:
        stats = os.statvfs(path)
    except (OSError, AttributeError):  # pragma: no cover - non-Linux
        return None
    return stats.f_bavail * stats.f_frsize


def _create_named_segment(size: int) -> shared_memory.SharedMemory:
    """A fresh ``/dev/shm`` segment whose name records this process's pid.

    The pid and pid namespace in the name (:func:`owned_segment_name`)
    are what let a later pool start reap the segment if this process
    dies without unlinking it.
    """
    while True:
        try:
            return shared_memory.SharedMemory(
                name=owned_segment_name(), create=True, size=size
            )
        except FileExistsError:  # pragma: no cover - 32-bit token collision
            continue


def _create_segment(size: int):
    """Create a shared segment of ``size`` bytes, degrading gracefully.

    The free-space pre-check runs *before* the segment is created, so a
    doomed publish never fails halfway through the ``memmove``: a
    segment larger than the free space on ``/dev/shm`` goes to the
    file-backed fallback (in the system temp directory) up front.  A
    real ENOSPC/EMFILE from the kernel falls back the same way.  Only
    when the fallback *also* fails does this raise — a typed
    :class:`ResourceExhaustedError` naming the segment size.
    """
    size = max(int(size), 1)
    free = shm_free_bytes()
    reason = (
        "/dev/shm has only %d bytes free" % free
        if free is not None and size > free
        else None
    )
    if reason is None:
        try:
            segment = _create_named_segment(size)
        except OSError as exc:
            if exc.errno not in _SHM_FULL_ERRNOS:
                raise
            reason = "creating the segment failed with %s" % (
                errno.errorcode.get(exc.errno, str(exc.errno)),
            )
        else:
            register_owned_segment(segment.name)
            return segment
    try:
        return _FileSegment.create(size, tempfile.gettempdir())
    except OSError as exc:
        raise ResourceExhaustedError.for_resource(
            "shm",
            None,
            size,
            "a shared segment of %d bytes could not be published (%s) and "
            "the file-backed fallback failed (%s)" % (size, reason, exc),
        ) from exc


class SharedArrayBundle:
    """Named NumPy arrays packed into one shared-memory segment.

    The creating side owns the segment (``close()`` also unlinks it);
    attached sides only unmap.  ``meta`` is a small picklable dict —
    segment name plus per-array dtype/shape/offset — which is all a
    worker needs to rebuild zero-copy views with :meth:`attach`.

    >>> bundle = SharedArrayBundle.create({"xs": np.arange(4)})
    >>> remote = SharedArrayBundle.attach(bundle.meta)
    >>> remote.arrays["xs"].tolist()
    [0, 1, 2, 3]
    >>> remote.close(); bundle.close()
    """

    def __init__(
        self,
        segment: shared_memory.SharedMemory,
        layout: Dict[str, Tuple[str, Tuple[int, ...], int]],
        owner: bool,
    ) -> None:
        self._segment = segment
        self._layout = layout
        self._owner = owner
        self._closed = False
        self.arrays: Dict[str, np.ndarray] = {}
        for name, (dtype, shape, offset) in layout.items():
            view = np.ndarray(shape, dtype=np.dtype(dtype), buffer=segment.buf, offset=offset)
            if not owner:
                view.setflags(write=False)
            self.arrays[name] = view
        # Backstop: unlink even if close() is never reached (error paths,
        # interpreter teardown).  ``weakref.finalize`` runs at atexit as
        # well, so repeated pytest runs cannot accumulate /dev/shm
        # segments.
        self._finalizer = weakref.finalize(
            self, _cleanup_segment, segment, owner
        )

    # ------------------------------------------------------------------
    @classmethod
    def create(cls, arrays: Dict[str, np.ndarray]) -> "SharedArrayBundle":
        """Pack ``arrays`` (copied) into a fresh shared segment.

        Pre-checks free ``/dev/shm`` space before creating the segment;
        an over-capacity publish falls back to a file-backed mmap
        segment instead of failing mid-``memmove``, and only a failed
        fallback raises — a typed :class:`ResourceExhaustedError`
        naming the segment size.
        """
        layout: Dict[str, Tuple[str, Tuple[int, ...], int]] = {}
        offset = 0
        sources: Dict[str, np.ndarray] = {}
        for name, array in arrays.items():
            array = np.ascontiguousarray(array)
            sources[name] = array
            offset = _align(offset)
            layout[name] = (array.dtype.str, tuple(array.shape), offset)
            offset += array.nbytes
        segment = _create_segment(max(offset, 1))
        bundle = cls(segment, layout, owner=True)
        for name, array in sources.items():
            bundle.arrays[name][...] = array
        return bundle

    @classmethod
    def attach(cls, meta: Dict[str, object]) -> "SharedArrayBundle":
        """Rebuild read-only views of a published bundle from its ``meta``.

        Attaching re-registers the name with the resource tracker, which
        is harmless here: pool workers are *forked*, so they talk to the
        owner's tracker, whose registry is a set (the re-add is a
        no-op) that the owner's ``unlink()`` clears exactly once.

        A ``meta`` carrying ``backing="file"`` attaches the file-backed
        fallback segment instead (same zero-copy views, same visibility
        of owner writes — both are shared mappings).
        """
        if meta.get("backing") == "file":
            segment = _FileSegment.attach(str(meta["segment"]))
        else:
            segment = shared_memory.SharedMemory(name=meta["segment"])
        return cls(segment, dict(meta["layout"]), owner=False)  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    @property
    def meta(self) -> Dict[str, object]:
        """Picklable descriptor: pass this to workers instead of arrays."""
        meta: Dict[str, object] = {
            "segment": self._segment.name,
            "layout": dict(self._layout),
        }
        if self.file_backed:
            meta["backing"] = "file"
        return meta

    @property
    def name(self) -> str:
        return self._segment.name

    @property
    def file_backed(self) -> bool:
        """True when the payload lives in the file-backed fallback."""
        return isinstance(self._segment, _FileSegment)

    @property
    def closed(self) -> bool:
        return self._closed

    def close(self) -> None:
        """Release the mapping; the owner also unlinks the segment."""
        if self._closed:
            return
        self._closed = True
        self.arrays = {}
        self._finalizer.detach()
        _cleanup_segment(self._segment, self._owner)

    def respawn(self) -> None:
        """Re-publish the same payload under a fresh segment name.

        The self-healing path: after a worker crash the pool rebuilds
        its executor and respawns every live bundle, because a hung or
        half-dead worker may still map the old segment — a fresh name
        guarantees replayed tasks attach clean mappings (and naturally
        invalidates any worker-side memo keyed by segment name).  The
        bundle object keeps its identity; only ``meta`` changes, which
        is why owner-side call sites re-read ``bundle.meta`` at submit
        time instead of caching it.
        """
        if self._closed:
            raise FusionError("cannot respawn a closed SharedArrayBundle")
        if not self._owner:
            raise FusionError("only the owning side can respawn a bundle")
        old_segment = self._segment
        fresh = _create_segment(old_segment.size)
        nbytes = min(len(fresh.buf), len(old_segment.buf))
        fresh.buf[:nbytes] = old_segment.buf[:nbytes]
        self._finalizer.detach()
        _cleanup_segment(old_segment, owner=True)
        self._segment = fresh
        self.arrays = {
            name: np.ndarray(
                shape, dtype=np.dtype(dtype), buffer=fresh.buf, offset=offset
            )
            for name, (dtype, shape, offset) in self._layout.items()
        }
        self._finalizer = weakref.finalize(self, _cleanup_segment, fresh, True)

    def __enter__(self) -> "SharedArrayBundle":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


def _cleanup_segment(segment, owner: bool) -> None:
    try:
        segment.close()
    except Exception:  # pragma: no cover - teardown best effort
        pass
    if owner:
        try:
            segment.unlink()
        except Exception:  # already unlinked elsewhere
            pass
        forget_owned_segment(segment.name)


# ----------------------------------------------------------------------
# Worker-side attach cache
# ----------------------------------------------------------------------
#: Per-process LRU cache of attached bundles, keyed by segment name.
#: Small: a worker touches a runtime's tables plus its state scratch;
#: older segments are evicted least-recently-used.
#:
#: CRITICAL: eviction must NOT close (unmap) the bundle immediately.  A
#: task that has already taken NumPy views of one bundle (say, the
#: published transition tables) and then attaches another (the state
#: scratch) can trigger an eviction of the first *mid-task*;
#: unmapping succeeds despite the live views, the OS reuses the address
#: range for the next mapping, and the stale views silently read the
#: wrong segment's bytes.  Evicted bundles therefore go to a
#: pending-close list that the pool's task shell drains only *between*
#: tasks, when no task-local views can exist.
_ATTACH_CACHE: Dict[str, SharedArrayBundle] = {}
_ATTACH_CACHE_LIMIT = 8
_PENDING_CLOSE: List[SharedArrayBundle] = []


def attached_arrays(meta: Dict[str, object]) -> Dict[str, np.ndarray]:
    """Worker-side view of a published bundle, attached once per process.

    Shared mappings see the owner's writes directly, so scratch regions
    the owner rewrites between task waves never need re-attachment.
    """
    name = meta["segment"]  # type: ignore[index]
    bundle = _ATTACH_CACHE.get(name)
    if bundle is None or bundle.closed:
        while len(_ATTACH_CACHE) >= _ATTACH_CACHE_LIMIT:
            # Deferred: closed by _drain_pending_closes between tasks.
            _PENDING_CLOSE.append(_ATTACH_CACHE.pop(next(iter(_ATTACH_CACHE))))
        bundle = SharedArrayBundle.attach(meta)
    else:
        del _ATTACH_CACHE[name]  # re-insert: LRU order, hot bundles stay
    _ATTACH_CACHE[name] = bundle
    return bundle.arrays


def _drain_pending_closes() -> None:
    """Unmap bundles evicted during previous tasks (task-boundary only)."""
    while _PENDING_CLOSE:
        _PENDING_CLOSE.pop().close()


def _task_shell(chaos_fault, fn: Callable, *args):
    """Run one pool task; drains deferred unmaps first, when it is safe
    (no live task-local views of evicted segments can exist between
    tasks — results are pickled before the next task starts).

    ``chaos_fault`` is the owner-drawn engine fault (or ``None``): it is
    executed *before* the task body, so a killed worker never produced a
    result and replaying the wave is byte-identical."""
    _drain_pending_closes()
    if chaos_fault is not None:
        execute_chaos_fault(chaos_fault)
    return fn(*args)


@atexit.register
def _drain_attach_cache() -> None:  # pragma: no cover - interpreter teardown
    _drain_pending_closes()
    for bundle in list(_ATTACH_CACHE.values()):
        bundle.close()
    _ATTACH_CACHE.clear()


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
#: ``prctl`` option: deliver a signal to this process when its parent dies.
_PR_SET_PDEATHSIG = 1

#: Workers are always forked, whatever the interpreter's default start
#: method (``forkserver`` on Linux from Python 3.14): the worker
#: initializer takes its parent to be the owner, and the attach path
#: relies on sharing the owner's resource tracker.  ``None`` (the
#: default) where ``fork`` does not exist.
_FORK_CONTEXT = (
    multiprocessing.get_context("fork")
    if "fork" in multiprocessing.get_all_start_methods()
    else None
)


def _die_with_owner(owner_pid: int) -> None:
    """Worker initializer: SIGKILL this worker when its owner dies.

    Without it a SIGKILLed owner orphans its workers, and they keep the
    owner's stdout pipe and the resource tracker's pipe open — so the
    tracker never unlinks the owner's segments.  The signal fires when
    the thread that forked the worker exits, so a pool must be used
    from the thread that submits to it.  The race guard below takes the
    parent to be the owner, which holds because workers are forked
    (:data:`_FORK_CONTEXT`).  Linux only (``prctl`` through ``ctypes``);
    elsewhere this does nothing.
    """
    if not sys.platform.startswith("linux"):
        return
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        libc.prctl(_PR_SET_PDEATHSIG, signal.SIGKILL, 0, 0, 0)
    except (OSError, AttributeError):  # pragma: no cover - no libc prctl
        return
    if os.getppid() != owner_pid:
        # The owner died before prctl took effect.
        os.kill(os.getpid(), signal.SIGKILL)


class SharedWorkerPool:
    """A ``ProcessPoolExecutor`` plus the shared bundles its tasks read.

    A pooled :class:`repro.core.runtime.VectorizedRuntime` submits every
    large step to the same workers, so process spawn costs are paid
    once, and published arrays travel to workers as segment names
    instead of pickles.  The executor is only spawned on first
    :meth:`submit` (small runs never fork), and :meth:`close` tears down
    the executor and every live bundle in one place — call it from a
    ``finally`` block; a ``weakref.finalize`` on each bundle backstops
    segment unlinking regardless.  Creating a pool first unlinks the
    ``psm_*`` segments of owners in its pid namespace that died without
    unlinking them.
    """

    def __init__(
        self,
        max_workers: int,
        config: Optional[ResilienceConfig] = None,
        chaos: Optional[ChaosSpec] = None,
    ) -> None:
        if max_workers < 2:
            raise FusionError(
                "a SharedWorkerPool needs at least 2 workers (got %d); "
                "use the serial path instead" % max_workers
            )
        self._max_workers = int(max_workers)
        self._executor: Optional[ProcessPoolExecutor] = None
        self._bundles: List[SharedArrayBundle] = []
        self._closed = False
        self._degraded = False
        self._config = config if config is not None else ResilienceConfig.from_env()
        self._chaos = chaos if chaos is not None else chaos_from_env()
        self.resilience = ResilienceStats()
        #: Publishes that fell back to a file-backed segment.
        self.shm_fallbacks = 0
        reap_dead_owner_segments()

    # ------------------------------------------------------------------
    @property
    def workers(self) -> int:
        return self._max_workers

    @property
    def usable(self) -> bool:
        """False once closed or degraded — callers then fall back to the
        serial path (which computes the same bytes)."""
        return not self._closed and not self._degraded

    @property
    def task_timeout(self) -> Optional[float]:
        """The per-task watchdog in seconds (``None`` = no watchdog)."""
        return self._config.task_timeout

    def publish(self, arrays: Dict[str, np.ndarray]) -> SharedArrayBundle:
        """Create a bundle whose lifetime is tied to this pool.

        A full ``/dev/shm`` transparently produces a file-backed bundle
        (see :func:`_create_segment`), counted in :attr:`shm_fallbacks`;
        when even the fallback fails the typed
        :class:`ResourceExhaustedError` propagates, and :meth:`run_wave`
        degrades the stage to its byte-identical serial path.
        """
        if self._closed:
            raise FusionError("cannot publish on a closed SharedWorkerPool")
        bundle = SharedArrayBundle.create(arrays)
        if bundle.file_backed:
            self.shm_fallbacks += 1
        self._bundles.append(bundle)
        return bundle

    def retire(self, bundle: SharedArrayBundle) -> None:
        """Unlink a bundle early (e.g. when a runtime using the pool closes).

        The segment persists for workers that still map it; their attach
        caches evict it on their own schedule.
        """
        if bundle in self._bundles:
            self._bundles.remove(bundle)
        bundle.close()

    def submit(self, fn: Callable, *args) -> Future:
        if self._closed:
            raise FusionError("cannot submit to a closed SharedWorkerPool")
        if self._degraded:
            raise PoolDegradedError(
                "cannot submit to a degraded SharedWorkerPool; "
                "check pool.usable and take the serial path"
            )
        if self._executor is None:
            self._executor = ProcessPoolExecutor(
                max_workers=self._max_workers,
                mp_context=_FORK_CONTEXT,
                initializer=_die_with_owner,
                initargs=(os.getpid(),),
            )
        chaos_fault = None
        if self._chaos is not None:
            chaos_fault = self._chaos.draw(stage_of(fn))
            if chaos_fault is not None:
                self.resilience.chaos += 1
        # _task_shell drains the attach cache's deferred unmaps at the
        # task boundary — never mid-task, where live views would dangle.
        return self._executor.submit(_task_shell, chaos_fault, fn, *args)

    # ------------------------------------------------------------------
    # Self-healing
    # ------------------------------------------------------------------
    def heal(self) -> None:
        """Rebuild the executor and re-publish every live bundle.

        Called after a worker crash or watchdog timeout.  Workers are
        hard-killed first (a hung worker never exits on its own), the
        broken executor is discarded (a fresh one spawns lazily on the
        next :meth:`submit`), and every live bundle respawns under a
        fresh segment name so replayed tasks cannot race a half-dead
        worker's stale mappings.
        """
        if self._closed:
            raise FusionError("cannot heal a closed SharedWorkerPool")
        self._discard_executor()
        for bundle in self._bundles:
            bundle.respawn()
        self.resilience.rebuilds += 1
        self.resilience.republished += len(self._bundles)

    def degrade(self, stage: str) -> None:
        """Give up on parallelism for the rest of this pool's lifetime.

        The retry budget is exhausted: kill the workers, mark the pool
        unusable (``usable`` turns False, so every later stage takes its
        serial path) and record which stage degraded.  Bundles stay
        alive until :meth:`close` — the owner side may still read them.
        """
        if self._degraded:
            return
        self._degraded = True
        self._discard_executor()
        self.resilience.note_degraded(stage)

    def run_wave(
        self,
        stage: str,
        build_futures: Callable[[], List[Future]],
        serial_fallback: Optional[Callable[[], object]] = None,
    ):
        """Submit one task wave and collect results, healing on faults.

        ``build_futures`` is re-invoked on every attempt — it must
        (re-)write scratch payloads and re-read bundle ``meta`` so a
        replay sees the respawned segments.  On a recoverable fault
        (worker crash, watchdog timeout) the pool heals, backs off
        exponentially and replays, up to the configured retry budget;
        past it the stage degrades and ``serial_fallback`` (when given)
        supplies the result — byte-identical because every pooled stage
        is a pure function of the published arrays and the batch.
        Returns ``None`` after degradation when no fallback is given.

        Ctrl-C during a wave tears the pool down with :meth:`interrupt`
        before re-raising, so a later :meth:`close` cannot join a hung
        task.
        """
        attempt = 0
        while self.usable:
            try:
                futures = build_futures()
                return self._collect_wave(futures)
            except RECOVERABLE_POOL_ERRORS as exc:
                self.resilience.note_fault(exc)
                attempt += 1
                if attempt > self._config.max_retries or not self.usable:
                    self.degrade(stage)
                    break
                time.sleep(self._config.backoff_seconds * (2 ** (attempt - 1)))
                try:
                    self.heal()
                except ResourceExhaustedError:
                    # Respawning the bundles ran out of both /dev/shm and
                    # the file fallback: healing cannot succeed.
                    self.degrade(stage)
                    break
                self.resilience.retries += 1
            except ResourceExhaustedError:
                # Publishing is impossible even through the file-backed
                # fallback: degrade to the serial path, which needs no
                # shared segments and computes the same bytes.
                self.degrade(stage)
                break
            except KeyboardInterrupt:
                self.interrupt()
                raise
        return serial_fallback() if serial_fallback is not None else None

    def _collect_wave(self, futures: List[Future]) -> List[object]:
        """Results in submission order, under the watchdog timeout."""
        timeout = self._config.task_timeout
        try:
            return [future.result(timeout=timeout) for future in futures]
        except RECOVERABLE_POOL_ERRORS:
            # Infrastructure fault: the caller heals, which kills every
            # worker — no in-flight task can race the replay's scratch
            # rewrites, so there is nothing to wait for here.
            raise
        except KeyboardInterrupt:
            # Ctrl-C must not join a possibly-hung wave — run_wave tears
            # the pool down with :meth:`interrupt`, which kills the
            # workers instead of waiting for them.
            raise
        except BaseException:
            # A genuine task exception: drain the wave before raising so
            # no task is still reading a bundle the caller may unlink.
            _futures_wait(futures)
            raise

    def _discard_executor(self) -> None:
        """Hard-kill workers and drop the executor (best effort)."""
        executor = self._executor
        self._executor = None
        if executor is None:
            return
        for process in list(getattr(executor, "_processes", {}).values()):
            try:
                process.kill()
            except Exception:  # pragma: no cover - already dead
                pass
        try:
            executor.shutdown(wait=True, cancel_futures=True)
        except Exception:  # pragma: no cover - broken-pool teardown
            pass

    def interrupt(self) -> None:
        """Tear down after Ctrl-C: hard-kill workers, then unlink bundles.

        :meth:`close` joins in-flight tasks — the right shutdown on
        every normal path, but a deadlock when Ctrl-C arrives while a
        task hangs (the join waits out the hang, and a second Ctrl-C
        would kill the process with every segment still linked).  Here
        the workers are killed first, so nothing can still be reading
        the bundles when they are unlinked and no join can block.
        """
        self._closed = True
        self._discard_executor()
        for bundle in self._bundles:
            bundle.close()
        self._bundles = []

    def close(self) -> None:
        """Shut the executor down and unlink every live bundle."""
        if self._closed:
            return
        self._closed = True
        if self._executor is not None:
            # Cancel queued tasks but join in-flight ones: an un-joined
            # pool trips over its own atexit hook at interpreter
            # shutdown, and joining guarantees no worker still reads a
            # bundle we are about to unlink.
            self._executor.shutdown(wait=True, cancel_futures=True)
            self._executor = None
        for bundle in self._bundles:
            bundle.close()
        self._bundles = []

    def __enter__(self) -> "SharedWorkerPool":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


class SharedScratch:
    """A reusable, growable shared array for per-step task payloads.

    The pooled runtime ships the fleet's state matrices to the workers
    every step.  A fresh segment per step would churn segment names
    through every worker's attach cache; a scratch keeps one segment
    alive and rewrites it in place between task waves — legal because
    the owner only writes while no tasks are in flight — recreating with
    headroom only when a payload outgrows the capacity.
    """

    __slots__ = ("_pool", "_dtype", "_headroom", "_bundle", "_closed")

    def __init__(
        self,
        pool: SharedWorkerPool,
        dtype: np.dtype = np.int64,
        headroom: float = 1.5,
    ) -> None:
        self._pool = pool
        self._dtype = np.dtype(dtype)
        self._headroom = float(headroom)
        self._bundle: Optional[SharedArrayBundle] = None
        self._closed = False

    @property
    def capacity(self) -> int:
        """Elements the current segment can hold (0 before first write)."""
        if self._bundle is None or self._bundle.closed:
            return 0
        return int(self._bundle.arrays["data"].size)

    def write(self, array: np.ndarray) -> Tuple[Dict[str, object], int]:
        """Copy ``array`` into the scratch; returns ``(meta, length)``.

        Workers slice the payload back out as
        ``attached_arrays(meta)["data"][:length]``.  May only be called
        with no tasks reading the previous payload in flight.

        The scratch adapts to the payload's dtype: a write whose dtype
        differs from the current segment's recreates the segment, exactly
        like outgrowing the capacity does.
        """
        if self._closed:
            raise FusionError("cannot write to a closed SharedScratch")
        array = np.ascontiguousarray(array)
        if array.dtype != self._dtype:
            self._dtype = array.dtype
            if self._bundle is not None:
                self._pool.retire(self._bundle)
                self._bundle = None
        if array.size > self.capacity or self._bundle is None or self._bundle.closed:
            if self._bundle is not None:
                self._pool.retire(self._bundle)
            grown = max(int(array.size * self._headroom), array.size, 1)
            self._bundle = self._pool.publish(
                {"data": np.zeros(grown, dtype=self._dtype)}
            )
        self._bundle.arrays["data"][: array.size] = array
        return self._bundle.meta, int(array.size)

    def close(self) -> None:
        """Unlink the backing segment (safe to call repeatedly).

        Further :meth:`write` calls raise :class:`FusionError` — a
        retired scratch must never resurrect a segment mid-teardown.
        """
        self._closed = True
        if self._bundle is not None:
            self._pool.retire(self._bundle)
            self._bundle = None
