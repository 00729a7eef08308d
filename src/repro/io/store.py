"""Crash-durable, content-addressed artifact store for fusion runs.

The paper's practicality claim assumes a batch run that either finishes
or is rerun from scratch; this store removes the "from scratch".  Every
expensive artifact of a fusion — the reachable cross product, the
sparse pair ledgers, each descent level, the finished result — lives
under a directory keyed by the canonical digest of the machine set
(:func:`repro.io.npz_io.machine_set_digest`), so an unchanged input set
warm-loads instead of recomputing, and a killed run resumes from its
last committed descent level.

Durability protocol, per artifact:

* **atomic commit** — write to ``<name>.tmp-<pid>-<seq>``, ``fsync``,
  ``os.replace`` onto the final name, ``fsync`` the directory.  A crash
  at any point leaves either the old artifact, the new artifact, or a
  stale temp file (swept on the next open) — never a torn final file
  under the atomic protocol.
* **verified load** — every container carries a SHA-256 header digest
  and per-blob CRC32s (:mod:`repro.io.npz_io`); a file that fails
  verification is *quarantined* (renamed into ``quarantine/``, counted
  in :class:`StoreStats`) and transparently recomputed — never a crash,
  never a silent wrong read.
* **advisory locks** — writers hold a lock file, hard-linked into
  place from a complete temp file, recording ``{pid, start}`` (the owner's
  ``/proc/<pid>/stat`` start time, so a recycled pid is not mistaken
  for a live owner).  Waiters retry with bounded exponential backoff;
  a lock whose owner is dead is reclaimed and counted as stale.

Chaos hooks: commits draw the owner-side ``store_commit`` stage from
the process chaos plan (``REPRO_CHAOS``), and descent checkpoints draw
``descent_level`` — the ``kill_during_write`` / ``kill_between_levels``
fault kinds SIGKILL this process there, which is how the crash-recovery
guarantees are tested rather than assumed.
"""

from __future__ import annotations

import errno
import hashlib
import itertools
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..core.budget import ResourceBudget, current_governor
from ..core.dfsm import DFSM
from ..core.exceptions import (
    ResourceExhaustedError,
    StoreCorruptionError,
    StoreLockTimeoutError,
)
from ..core.product import CrossProduct
from ..core.resilience import (
    ChaosSpec,
    EngineFaultKind,
    chaos_from_env,
    execute_chaos_fault,
    pid_alive,
)
from ..core.sparse import PairLedger
from .npz_io import (
    MAGIC,
    machine_set_digest,
    read_container,
    save_machines,
    write_container,
)

__all__ = ["ArtifactStore", "StoreStats", "ARTIFACT_DIR_ENV"]

#: Environment variable naming the default store root for
#: ``generate_fusion`` (see :func:`ArtifactStore.from_env`).
ARTIFACT_DIR_ENV = "REPRO_ARTIFACT_DIR"

#: Environment variable bounding the advisory-lock wait, in seconds.
LOCK_TIMEOUT_ENV = "REPRO_STORE_LOCK_TIMEOUT"

_DEFAULT_LOCK_TIMEOUT = 30.0
_BACKOFF_START = 0.01
_BACKOFF_CAP = 0.25

_MACHINES_NAME = "machines.npz"
_PRODUCT_NAME = "product.npz"
_QUARANTINE_DIR = "quarantine"
_SCRATCH_DIR = "scratch"

#: ``errno`` values that mean "the filesystem is out of space/quota" —
#: the conditions a commit retries through (after scratch sweeping)
#: instead of quarantining anything.
_DISK_FULL_ERRNOS = frozenset({errno.ENOSPC, errno.EDQUOT})

#: How many times a commit that hit ENOSPC/EDQUOT is retried (each
#: retry preceded by a scratch sweep and a backoff sleep) before the
#: typed :class:`ResourceExhaustedError` is raised.
_COMMIT_DISK_RETRIES = 3


def _process_start_time(pid: int) -> Optional[int]:
    """The kernel start time of ``pid`` (clock ticks since boot).

    Field 22 of ``/proc/<pid>/stat``; together with the pid it names a
    process incarnation uniquely, which is what makes stale-lock
    detection immune to pid reuse.  ``None`` where /proc is unreadable
    (detection then falls back to pid liveness alone).
    """
    try:
        with open("/proc/%d/stat" % pid, "rb") as handle:
            data = handle.read()
        return int(data.rsplit(b")", 1)[1].split()[19])
    except (OSError, IndexError, ValueError):
        return None


@dataclass
class StoreStats:
    """What the store did during one process's use of it.

    Folded into the fusion stopwatch as the ``store`` stage, the way
    prune outcomes land as ``prune_stats`` — so benchmark records and
    the chaos harness can assert on cache behaviour (a warm run
    must show hits and zero quarantines; a post-crash run must show the
    reclaimed lock and the resumed level).
    """

    hits: int = 0  #: artifacts loaded and verified successfully
    misses: int = 0  #: artifacts absent (or quarantined) at load time
    commits: int = 0  #: atomic commits completed
    quarantined: int = 0  #: corrupt/torn artifacts renamed aside
    lock_waits: int = 0  #: lock acquisitions that had to back off
    stale_locks: int = 0  #: dead-owner locks reclaimed
    swept_tmp: int = 0  #: stale temp files removed at namespace open
    checkpoints: int = 0  #: descent-level checkpoints committed
    resumed_levels: int = 0  #: descent levels skipped thanks to a checkpoint
    chaos: int = 0  #: chaos faults drawn against store stages
    disk_retries: int = 0  #: commits retried after ENOSPC/EDQUOT
    swept_scratch: int = 0  #: stale scratch files removed while retrying

    def as_counters(self) -> Dict[str, int]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "commits": self.commits,
            "quarantined": self.quarantined,
            "lock_waits": self.lock_waits,
            "stale_locks": self.stale_locks,
            "swept_tmp": self.swept_tmp,
            "checkpoints": self.checkpoints,
            "resumed_levels": self.resumed_levels,
            "chaos": self.chaos,
            "disk_retries": self.disk_retries,
            "swept_scratch": self.swept_scratch,
        }


class ArtifactStore:
    """Content-addressed, crash-durable store of fusion artifacts.

    Parameters
    ----------
    root:
        Directory holding one subdirectory per machine-set digest.
        Created on demand.
    lock_timeout:
        Bound, in seconds, on waiting for a live advisory lock before
        :class:`StoreLockTimeoutError`; defaults to
        ``REPRO_STORE_LOCK_TIMEOUT`` or 30 s.
    chaos:
        Chaos plan whose ``store_commit``/``descent_level`` stages this
        store draws; defaults to the process plan (``REPRO_CHAOS``).
    """

    def __init__(
        self,
        root: str,
        lock_timeout: Optional[float] = None,
        chaos: Optional[ChaosSpec] = None,
    ) -> None:
        self._root = os.path.abspath(str(root))
        os.makedirs(self._root, exist_ok=True)
        if lock_timeout is None:
            raw = os.environ.get(LOCK_TIMEOUT_ENV, "").strip()
            lock_timeout = float(raw) if raw else _DEFAULT_LOCK_TIMEOUT
        self._lock_timeout = float(lock_timeout)
        self._chaos = chaos if chaos is not None else chaos_from_env()
        self._seq = itertools.count()
        self._swept: set = set()
        self._committed_bytes = 0
        self._env_disk_budget = ResourceBudget.from_env().disk
        self.stats = StoreStats()

    # ------------------------------------------------------------------
    @classmethod
    def from_env(cls) -> Optional["ArtifactStore"]:
        """The store named by ``REPRO_ARTIFACT_DIR``, or ``None``."""
        root = os.environ.get(ARTIFACT_DIR_ENV, "").strip()
        return cls(root) if root else None

    @property
    def root(self) -> str:
        return self._root

    # ------------------------------------------------------------------
    # Namespaces and paths
    # ------------------------------------------------------------------
    def open_namespace(self, machines: Sequence[DFSM]) -> str:
        """Digest of ``machines``; ensures its directory, sweeps, seeds.

        The machine-set container itself is committed on first open so
        the directory is self-describing (a digest can be decoded back
        to its machines without the original caller).
        """
        digest = machine_set_digest(machines)
        directory = self._namespace_dir(digest)
        os.makedirs(directory, exist_ok=True)
        if digest not in self._swept:
            self._sweep_stale_temps(directory)
            self._swept.add(digest)
        if not os.path.exists(os.path.join(directory, _MACHINES_NAME)):
            tmp = self._temp_path(directory, _MACHINES_NAME)
            try:
                save_machines(tmp, machines)
                os.replace(tmp, os.path.join(directory, _MACHINES_NAME))
                self._fsync_dir(directory)
                self.stats.commits += 1
            finally:
                self._remove_quietly(tmp)
        return digest

    def load_machine_set(self, digest: str) -> List[DFSM]:
        """Decode the machine set a digest directory describes."""
        from .npz_io import load_machines

        return load_machines(os.path.join(self._namespace_dir(digest), _MACHINES_NAME))

    @staticmethod
    def run_key(**params: Any) -> str:
        """Short digest naming one run configuration (f, strategy, ...)."""
        payload = json.dumps(params, sort_keys=True, default=str)
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]

    def artifact_path(self, digest: str, name: str) -> str:
        return os.path.join(self._namespace_dir(digest), name)

    def _namespace_dir(self, digest: str) -> str:
        return os.path.join(self._root, digest)

    def _temp_path(self, directory: str, name: str) -> str:
        return os.path.join(
            directory, "%s.tmp-%d-%d" % (name, os.getpid(), next(self._seq))
        )

    @staticmethod
    def _fsync_dir(directory: str) -> None:
        try:
            fd = os.open(directory, os.O_RDONLY)
        except OSError:  # pragma: no cover - exotic filesystems
            return
        try:
            os.fsync(fd)
        except OSError:  # pragma: no cover
            pass
        finally:
            os.close(fd)

    @staticmethod
    def _remove_quietly(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    def _sweep_stale_temps(self, directory: str) -> None:
        """Remove temp files whose writer is dead (crashed mid-commit)."""
        try:
            entries = os.listdir(directory)
        except OSError:
            return
        for entry in entries:
            if ".tmp-" not in entry:
                continue
            try:
                pid = int(entry.rsplit(".tmp-", 1)[1].split("-")[0])
            except (IndexError, ValueError):
                continue
            if pid != os.getpid() and pid_alive(pid):
                continue
            if pid == os.getpid():
                continue  # our own in-flight commits are not stale
            self._remove_quietly(os.path.join(directory, entry))
            self.stats.swept_tmp += 1

    # ------------------------------------------------------------------
    # Spill scratch space
    # ------------------------------------------------------------------
    def scratch_dir(self) -> str:
        """Directory for the resource governor's spilled sort runs.

        ``generate_fusion`` hands this to
        :meth:`repro.core.budget.ResourceGovernor.set_spill_dir` so that
        external-merge runs land next to the artifacts they protect
        (same filesystem, swept by the same store) instead of in
        ``/tmp``.
        """
        path = os.path.join(self._root, _SCRATCH_DIR)
        os.makedirs(path, exist_ok=True)
        return path

    def sweep_scratch(self) -> int:
        """Remove scratch files left behind by dead processes.

        Spill runs are named ``run-<pid>-...``; a file whose writer no
        longer exists is an orphan from a crashed run and is reclaimed.
        Live processes' runs (including our own in-flight merges) are
        never touched.  Returns the number of files removed.
        """
        path = os.path.join(self._root, _SCRATCH_DIR)
        try:
            entries = os.listdir(path)
        except OSError:
            return 0
        removed = 0
        for entry in entries:
            parts = entry.split("-")
            try:
                pid = int(parts[1])
            except (IndexError, ValueError):
                continue
            if pid == os.getpid() or pid_alive(pid):
                continue
            self._remove_quietly(os.path.join(path, entry))
            removed += 1
        self.stats.swept_scratch += removed
        return removed

    # ------------------------------------------------------------------
    # Chaos
    # ------------------------------------------------------------------
    def _draw(self, stage: str) -> Optional[Tuple[str, float]]:
        if self._chaos is None:
            return None
        fault = self._chaos.draw(stage)
        if fault is not None:
            self.stats.chaos += 1
        return fault

    # ------------------------------------------------------------------
    # Atomic commit + verified load + quarantine
    # ------------------------------------------------------------------
    def commit(
        self,
        digest: str,
        name: str,
        arrays: Dict[str, np.ndarray],
        meta: Optional[Dict[str, Any]] = None,
    ) -> None:
        """Commit one artifact atomically (temp + fsync + rename).

        Draws the ``store_commit`` chaos stage first: a drawn
        ``kill_during_write`` writes a deliberately *torn* file at the
        final name and SIGKILLs the process — the harshest mid-commit
        crash (a non-atomic writer losing power), which the next run
        must detect via checksums, quarantine and recompute.  A drawn
        ``disk_full`` makes the first write attempt fail with a
        simulated ``ENOSPC``, exercising the same retry plan a real
        full filesystem would: nothing is quarantined, stale scratch is
        swept, the write backs off and retries, and only past the retry
        budget does the typed :class:`ResourceExhaustedError` surface —
        with every previously committed artifact intact, so the run
        stays resumable from its last checkpoint.
        """
        directory = self._namespace_dir(digest)
        os.makedirs(directory, exist_ok=True)
        final = os.path.join(directory, name)
        fault = self._draw("store_commit")
        inject_enospc = False
        if fault is not None:
            if fault[0] == EngineFaultKind.KILL_DURING_WRITE.value:
                write_container(final, arrays, meta, fsync=False)
                size = os.path.getsize(final)
                os.truncate(final, max(len(MAGIC) + 9, size * 3 // 4))
                execute_chaos_fault(fault)  # SIGKILL — never returns
            elif fault[0] == EngineFaultKind.DISK_FULL.value:
                inject_enospc = True
        budget = self._disk_budget()
        delay = _BACKOFF_START
        observed = self._committed_bytes
        for attempt in range(_COMMIT_DISK_RETRIES + 1):
            tmp = self._temp_path(directory, name)
            try:
                if inject_enospc:
                    inject_enospc = False
                    raise OSError(
                        errno.ENOSPC, "No space left on device (injected disk_full fault)"
                    )
                write_container(tmp, arrays, meta, fsync=True)
                size = os.path.getsize(tmp)
                observed = self._committed_bytes + size
                if budget is not None and observed > budget:
                    raise OSError(
                        errno.ENOSPC,
                        "REPRO_DISK_BUDGET would be exceeded by %d bytes" % size,
                    )
                os.replace(tmp, final)
                self._fsync_dir(directory)
                break
            except OSError as exc:
                self._remove_quietly(tmp)
                if exc.errno not in _DISK_FULL_ERRNOS:
                    raise
                if attempt >= _COMMIT_DISK_RETRIES:
                    raise ResourceExhaustedError.for_resource(
                        "disk",
                        budget,
                        observed,
                        "committing %r failed with %s after %d retries; nothing was "
                        "quarantined and the run is resumable from its last checkpoint"
                        % (name, errno.errorcode.get(exc.errno, exc.errno), attempt),
                    ) from exc
                self.stats.disk_retries += 1
                self._sweep_stale_temps(directory)
                self.sweep_scratch()
                governor = current_governor()
                if governor is not None:
                    governor.note_disk_retry()
                    governor.note_sweep()
                time.sleep(delay)
                delay = min(delay * 2, _BACKOFF_CAP)
            finally:
                self._remove_quietly(tmp)
        self._committed_bytes += os.path.getsize(final)
        self.stats.commits += 1

    def _disk_budget(self) -> Optional[int]:
        """The disk watermark in force: the active governor's, else env."""
        governor = current_governor()
        if governor is not None:
            return governor.budget.disk
        return self._env_disk_budget

    def load(
        self, digest: str, name: str
    ) -> Optional[Tuple[Dict[str, np.ndarray], Dict[str, Any]]]:
        """Load + verify one artifact; quarantine and miss on corruption."""
        final = self.artifact_path(digest, name)
        if not os.path.exists(final):
            self.stats.misses += 1
            return None
        try:
            arrays, meta = read_container(final)
        except StoreCorruptionError:
            self.quarantine(digest, name)
            self.stats.misses += 1
            return None
        self.stats.hits += 1
        return arrays, meta

    def quarantine(self, digest: str, name: str) -> Optional[str]:
        """Rename a corrupt artifact aside; it is recomputed, never read."""
        final = self.artifact_path(digest, name)
        qdir = os.path.join(self._namespace_dir(digest), _QUARANTINE_DIR)
        os.makedirs(qdir, exist_ok=True)
        target = os.path.join(
            qdir, "%s.%d-%d" % (name, os.getpid(), next(self._seq))
        )
        try:
            os.replace(final, target)
        except OSError:
            return None
        self.stats.quarantined += 1
        return target

    # ------------------------------------------------------------------
    # Advisory locks
    # ------------------------------------------------------------------
    def _lock_path(self, digest: str, name: str) -> str:
        return os.path.join(self._namespace_dir(digest), "%s.lock" % name)

    @staticmethod
    def _read_lock(path: str) -> Optional[Tuple[int, Optional[int]]]:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                info = json.loads(handle.read())
            return int(info["pid"]), info.get("start")
        except (OSError, ValueError, KeyError, TypeError):
            return None

    @staticmethod
    def _owner_dead(owner: Optional[Tuple[int, Optional[int]]]) -> bool:
        if owner is None:
            # Unreadable payload: ``_try_acquire`` only ever links a
            # complete one into place, so this lock was not written by a
            # live acquirer; reclaim it.
            return True
        pid, start = owner
        if not pid_alive(pid):
            return True
        if start is not None:
            return _process_start_time(pid) != start
        return False

    def _try_acquire(self, path: str) -> bool:
        # The payload is written and fsynced under a temp name, then
        # hard-linked onto the lock name, which fails if the lock exists.
        # A waiter therefore never reads a lock whose payload is still
        # being written, and never mistakes a live owner for a dead one.
        # Only an existing lock means "held"; any other failure (a full
        # disk, a filesystem without hard links) is raised, not retried.
        tmp = self._temp_path(os.path.dirname(path), os.path.basename(path))
        try:
            with open(tmp, "w", encoding="utf-8") as handle:
                handle.write(
                    json.dumps(
                        {"pid": os.getpid(), "start": _process_start_time(os.getpid())}
                    )
                )
                handle.flush()
                os.fsync(handle.fileno())
            os.link(tmp, path)
        except FileExistsError:
            return False
        except OSError as exc:
            if exc.errno in _DISK_FULL_ERRNOS:
                raise ResourceExhaustedError.for_resource(
                    "disk",
                    self._disk_budget(),
                    self._committed_bytes,
                    "writing lock %r failed with %s"
                    % (os.path.basename(path), errno.errorcode.get(exc.errno, exc.errno)),
                ) from exc
            raise
        finally:
            self._remove_quietly(tmp)
        return True

    @contextmanager
    def lock(
        self, digest: str, name: str, timeout: Optional[float] = None
    ) -> Iterator[None]:
        """Hold the advisory lock ``name`` in ``digest``'s namespace.

        Blocks with exponential backoff (bounded by ``timeout``) while a
        *live* owner holds it; a dead owner's lock — crashed process,
        recycled pid — is reclaimed immediately and counted in
        :attr:`StoreStats.stale_locks`.
        """
        path = self._lock_path(digest, name)
        os.makedirs(self._namespace_dir(digest), exist_ok=True)
        deadline = time.monotonic() + (
            timeout if timeout is not None else self._lock_timeout
        )
        delay = _BACKOFF_START
        waited = False
        while True:
            if self._try_acquire(path):
                break
            owner = self._read_lock(path)
            retry_now = self._owner_dead(owner)
            if retry_now:
                # Re-read immediately before reclaiming so a lock that
                # just changed hands is not unlinked.  (Advisory: the
                # artifact commits themselves are atomic regardless.)
                if self._read_lock(path) == owner and os.path.exists(path):
                    self._remove_quietly(path)
                    self.stats.stale_locks += 1
            if time.monotonic() >= deadline:
                raise StoreLockTimeoutError(
                    "lock %r in %s held by pid %s beyond the %.1fs budget"
                    % (name, digest[:12], owner[0] if owner else "?", self._lock_timeout)
                )
            if retry_now:
                continue
            if not waited:
                self.stats.lock_waits += 1
                waited = True
            time.sleep(delay)
            delay = min(delay * 2, _BACKOFF_CAP)
        try:
            yield
        finally:
            self._remove_quietly(path)

    # ------------------------------------------------------------------
    # Typed artifacts
    # ------------------------------------------------------------------
    def save_product(self, digest: str, product: CrossProduct) -> None:
        order, table = product.exploration_arrays
        self.commit(
            digest,
            _PRODUCT_NAME,
            {"order": np.ascontiguousarray(order), "table": np.ascontiguousarray(table)},
            {"kind": "product", "num_states": int(product.num_states)},
        )

    def load_product(
        self, digest: str, machines: Sequence[DFSM], name: str = "top"
    ) -> Optional[CrossProduct]:
        loaded = self.load(digest, _PRODUCT_NAME)
        if loaded is None:
            return None
        arrays, _meta = loaded
        try:
            return CrossProduct.from_arrays(
                machines,
                np.asarray(arrays["order"]),
                np.asarray(arrays["table"]),
                name=name,
            )
        except Exception:  # noqa: BLE001 - mismatched artifact: recompute
            self.quarantine(digest, _PRODUCT_NAME)
            return None

    def save_base_ledger(self, digest: str, ledger: PairLedger) -> None:
        self.commit(
            digest,
            "ledger-cap%d.npz" % int(ledger.cap),
            {
                "rows": np.asarray(ledger.rows),
                "cols": np.asarray(ledger.cols),
                "weights": np.asarray(ledger.weights),
            },
            {
                "kind": "ledger",
                "num_states": int(ledger.num_states),
                "cap": int(ledger.cap),
            },
        )

    def load_base_ledgers(self, digest: str) -> Dict[int, PairLedger]:
        """Every persisted base ledger of the namespace, keyed by cap."""
        directory = self._namespace_dir(digest)
        try:
            entries = sorted(os.listdir(directory))
        except OSError:
            return {}
        ledgers: Dict[int, PairLedger] = {}
        for entry in entries:
            if not (entry.startswith("ledger-cap") and entry.endswith(".npz")):
                continue
            loaded = self.load(digest, entry)
            if loaded is None:
                continue
            arrays, meta = loaded
            try:
                cap = int(meta["cap"])
                num_states = int(meta["num_states"])
                ledgers[cap] = PairLedger(
                    num_states, cap, arrays["rows"], arrays["cols"], arrays["weights"]
                )
            except (KeyError, TypeError, ValueError):
                self.quarantine(digest, entry)
        return ledgers

    # -- descent checkpoints and run outputs ---------------------------
    @staticmethod
    def _checkpoint_name(runkey: str, index: int) -> str:
        return "descent-%s-b%d.npz" % (runkey, index)

    @staticmethod
    def _backup_name(runkey: str, index: int) -> str:
        return "backup-%s-b%d.npz" % (runkey, index)

    @staticmethod
    def _result_name(runkey: str) -> str:
        return "result-%s.npz" % runkey

    def save_checkpoint(
        self, digest: str, runkey: str, index: int, level: int, labels: np.ndarray
    ) -> None:
        """Commit one descent level, then draw the between-levels chaos.

        The ``descent_level`` draw comes *after* the commit: a drawn
        ``kill_between_levels`` dies with the level durably on disk,
        which is precisely the state a resumed run must pick up from.
        """
        self.commit(
            digest,
            self._checkpoint_name(runkey, index),
            {"labels": np.asarray(labels)},
            {"kind": "checkpoint", "level": int(level)},
        )
        self.stats.checkpoints += 1
        fault = self._draw("descent_level")
        if fault is not None:
            execute_chaos_fault(fault)

    def load_checkpoint(
        self, digest: str, runkey: str, index: int
    ) -> Optional[Tuple[int, np.ndarray]]:
        loaded = self.load(digest, self._checkpoint_name(runkey, index))
        if loaded is None:
            return None
        arrays, meta = loaded
        try:
            return int(meta["level"]), np.asarray(arrays["labels"])
        except (KeyError, TypeError, ValueError):
            self.quarantine(digest, self._checkpoint_name(runkey, index))
            return None

    def save_backup(
        self, digest: str, runkey: str, index: int, labels: np.ndarray
    ) -> None:
        self.commit(
            digest,
            self._backup_name(runkey, index),
            {"labels": np.asarray(labels)},
            {"kind": "backup"},
        )

    def load_backup(
        self, digest: str, runkey: str, index: int
    ) -> Optional[np.ndarray]:
        loaded = self.load(digest, self._backup_name(runkey, index))
        if loaded is None:
            return None
        arrays, _meta = loaded
        labels = arrays.get("labels")
        if labels is None:
            self.quarantine(digest, self._backup_name(runkey, index))
            return None
        return np.asarray(labels)

    def save_result(
        self,
        digest: str,
        runkey: str,
        meta: Dict[str, Any],
        backup_labels: Sequence[np.ndarray],
    ) -> None:
        arrays = {
            "backup_%d" % i: np.asarray(labels)
            for i, labels in enumerate(backup_labels)
        }
        payload = dict(meta)
        payload["kind"] = "result"
        payload["num_backups"] = len(arrays)
        self.commit(digest, self._result_name(runkey), arrays, payload)

    def load_result(
        self, digest: str, runkey: str
    ) -> Optional[Tuple[Dict[str, Any], List[np.ndarray]]]:
        loaded = self.load(digest, self._result_name(runkey))
        if loaded is None:
            return None
        arrays, meta = loaded
        try:
            count = int(meta["num_backups"])
            labels = [np.asarray(arrays["backup_%d" % i]) for i in range(count)]
        except (KeyError, TypeError, ValueError):
            self.quarantine(digest, self._result_name(runkey))
            return None
        return meta, labels
