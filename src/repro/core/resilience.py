"""Self-healing policy for the worker pool of the pooled runtime.

The paper computes fault-tolerant machines; this module makes the
pooled :class:`repro.core.runtime.VectorizedRuntime` that executes them
fault tolerant too.  It is deliberately free of any dependency on
:mod:`repro.core.shm` (which imports it), and holds the pieces the pool
composes:

* :class:`ResilienceConfig` — the retry/watchdog policy, read once per
  pool from ``REPRO_FUSION_MAX_RETRIES`` / ``REPRO_FUSION_TASK_TIMEOUT``.
* :class:`ResilienceStats` — counters recording every crash, watchdog
  timeout, pool rebuild, wave replay and serial degradation, kept on
  the pool as ``pool.resilience``.
* :class:`ChaosSpec` — the seeded chaos-injection harness behind the
  ``REPRO_CHAOS`` environment spec.  Faults are *drawn* on the owner
  side (one deterministic stream per pool, so a run is reproducible)
  and *executed* on the worker side by :func:`execute_chaos_fault`
  inside the pool's task shell.
* :func:`stage_of` — maps worker task functions to the stage vocabulary
  used by chaos filtering and degradation accounting (``runtime_step``,
  the one pooled stage).
* The owned-segment registry — every ``/dev/shm`` segment this process
  creates is registered here; a chained ``SIGTERM`` handler and the
  bundles' own finalizers guarantee unlink on every exit path, and
  :func:`assert_no_owned_segments` is the leak check tests and CI call
  after a run.  Segment names carry the owner's pid and pid namespace
  (:func:`owned_segment_name`), so the segments of an owner killed by
  SIGKILL are reaped by the next pool start in the same namespace
  (:func:`reap_dead_owner_segments`).

Recovery is sound because every pooled stage is a pure function of
published (read-only) arrays plus a picklable batch: replaying a failed
wave against freshly re-published segments is byte-identical by
construction, and exhausting the retry budget degrades the stage to the
serial path — which computes the same bytes, only slower.
"""

from __future__ import annotations

import enum
import os
import secrets
import signal
import threading
import time
from concurrent.futures import BrokenExecutor
from concurrent.futures import TimeoutError as PoolTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .exceptions import FusionError, SegmentLeakError, SpecParseError

__all__ = [
    "ChaosFault",
    "ChaosSpec",
    "EngineFaultKind",
    "RECOVERABLE_POOL_ERRORS",
    "OWNER_STAGES",
    "ResilienceConfig",
    "ResilienceStats",
    "assert_no_owned_segments",
    "chaos_from_env",
    "execute_chaos_fault",
    "live_owned_segments",
    "reap_dead_owner_segments",
    "stage_of",
]

#: Exceptions that mean "the wave failed for infrastructure reasons" —
#: a worker died (``BrokenProcessPool`` is a ``BrokenExecutor``) or the
#: watchdog timed a task out.  Only these trigger heal-and-replay; a
#: genuine exception raised *by* a task propagates unchanged, because
#: replaying a deterministic pure function would fail identically.
RECOVERABLE_POOL_ERRORS: Tuple[type, ...] = (BrokenExecutor, PoolTimeoutError)


class EngineFaultKind(enum.Enum):
    """Engine-level fault classes the chaos harness can inject.

    Mirrored into :class:`repro.simulation.faults.FaultKind` so the
    simulation layer's fault vocabulary covers the engine too (the
    dependency points simulation → core, never back, hence the enum
    lives here).
    """

    WORKER_KILL = "worker_kill"
    TASK_HANG = "task_hang"
    SLOW_TASK = "slow_task"
    #: SIGKILL the *owner* process mid artifact commit (torn write).
    KILL_DURING_WRITE = "kill_during_write"
    #: SIGKILL the *owner* process after a descent-level checkpoint.
    KILL_BETWEEN_LEVELS = "kill_between_levels"
    #: Simulated ENOSPC/EDQUOT during an artifact-store commit.
    DISK_FULL = "disk_full"
    #: Simulated memory pressure: the governor treats the next merge as
    #: over its watermark and spills, budget or not.
    MEM_PRESSURE = "mem_pressure"


#: Worker task function → stage name, the vocabulary of ``REPRO_CHAOS``
#: stage filters and of ``ResilienceStats.degraded`` accounting.
_STAGE_BY_TASK = {
    "_runtime_stream_task": "runtime_step",
    "_runtime_matrix_task": "runtime_step",
}

#: Every pooled stage: the streaming runtime's gather wave.  Fusion
#: generation runs in-process and submits nothing.
KNOWN_STAGES: Tuple[str, ...] = ("runtime_step",)

#: Owner-process stages the artifact store draws chaos against; they
#: never run inside a pool worker, so the worker fault kinds
#: (``worker_kill``/``task_hang``/``slow_task``) are not drawn here and
#: the owner kill kinds are drawn *only* here.
OWNER_STAGES: Tuple[str, ...] = (
    "store_commit",
    "descent_level",
    # The resource governor's consult point: drawn owner-side when a
    # merge decides whether to spill.
    "budget_check",
)


def stage_of(fn: Callable) -> str:
    """The stage name a worker task function belongs to."""
    return _STAGE_BY_TASK.get(getattr(fn, "__name__", ""), "task")


# ----------------------------------------------------------------------
# Retry / watchdog policy
# ----------------------------------------------------------------------
def _positive_float_env(name: str) -> Optional[float]:
    raw = os.environ.get(name, "").strip()
    if not raw:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise FusionError("%s must be a number of seconds, got %r" % (name, raw)) from None
    if value < 0:
        raise FusionError("%s must be >= 0, got %r" % (name, raw))
    return value if value > 0 else None


@dataclass(frozen=True)
class ResilienceConfig:
    """Retry and watchdog policy for one :class:`~repro.core.shm.SharedWorkerPool`.

    >>> ResilienceConfig(max_retries=3, task_timeout=2.0).max_retries
    3
    """

    #: Heal-and-replay attempts per wave before degrading to serial.
    max_retries: int = 2
    #: Per-task watchdog in seconds; ``None`` disables the watchdog.
    task_timeout: Optional[float] = None
    #: Base of the exponential backoff between replays (seconds).
    backoff_seconds: float = 0.05

    @classmethod
    def from_env(cls) -> "ResilienceConfig":
        """Read ``REPRO_FUSION_MAX_RETRIES`` / ``REPRO_FUSION_TASK_TIMEOUT``."""
        raw_retries = os.environ.get("REPRO_FUSION_MAX_RETRIES", "").strip()
        if raw_retries:
            try:
                max_retries = int(raw_retries)
            except ValueError:
                raise FusionError(
                    "REPRO_FUSION_MAX_RETRIES must be an integer, got %r" % raw_retries
                ) from None
            if max_retries < 0:
                raise FusionError(
                    "REPRO_FUSION_MAX_RETRIES must be >= 0, got %r" % raw_retries
                )
        else:
            max_retries = cls.max_retries
        return cls(
            max_retries=max_retries,
            task_timeout=_positive_float_env("REPRO_FUSION_TASK_TIMEOUT"),
        )


# ----------------------------------------------------------------------
# Stats
# ----------------------------------------------------------------------
@dataclass
class ResilienceStats:
    """What the self-healing layer did during one pool's lifetime.

    The integer view (:meth:`as_counters`) keys the counters the way
    benchmark records store them.
    """

    crashes: int = 0  #: worker-crash (BrokenProcessPool) events observed
    timeouts: int = 0  #: watchdog timeouts observed
    rebuilds: int = 0  #: executor rebuilds (heals)
    republished: int = 0  #: bundles re-published under fresh segment names
    retries: int = 0  #: task waves replayed after a heal
    degraded: int = 0  #: stages degraded to the serial path
    chaos: int = 0  #: chaos faults injected into submitted tasks
    degraded_stages: List[str] = field(default_factory=list)

    def note_fault(self, exc: BaseException) -> None:
        """Classify a recoverable wave failure into the counters."""
        if isinstance(exc, PoolTimeoutError):
            self.timeouts += 1
        else:
            self.crashes += 1

    def note_degraded(self, stage: str) -> None:
        self.degraded += 1
        self.degraded_stages.append(stage)

    def as_counters(self) -> Dict[str, int]:
        """The integer counters, keyed as the benchmark schema stores them."""
        return {
            "crashes": self.crashes,
            "timeouts": self.timeouts,
            "rebuilds": self.rebuilds,
            "republished": self.republished,
            "retries": self.retries,
            "degraded": self.degraded,
            "chaos": self.chaos,
        }


# ----------------------------------------------------------------------
# Chaos injection
# ----------------------------------------------------------------------
#: A drawn fault travelling to the worker: ``(kind value, seconds)``.
ChaosFault = Tuple[str, float]

_HANG_SECONDS = 300.0
_SLOW_SECONDS = 0.05
_DRAW_ORDER = (
    EngineFaultKind.WORKER_KILL,
    EngineFaultKind.TASK_HANG,
    EngineFaultKind.SLOW_TASK,
    EngineFaultKind.KILL_DURING_WRITE,
    EngineFaultKind.KILL_BETWEEN_LEVELS,
    EngineFaultKind.DISK_FULL,
    EngineFaultKind.MEM_PRESSURE,
)

#: Owner-side kinds fire only in their own stage; every other kind is a
#: worker fault and must never burn the ``max`` budget on owner stages.
#: The resource kinds are consumed at their draw site (a simulated
#: ``OSError`` or a forced spill), never executed by a worker.
_OWNER_STAGE_BY_KIND: Dict[EngineFaultKind, str] = {
    EngineFaultKind.KILL_DURING_WRITE: "store_commit",
    EngineFaultKind.KILL_BETWEEN_LEVELS: "descent_level",
    EngineFaultKind.DISK_FULL: "store_commit",
    EngineFaultKind.MEM_PRESSURE: "budget_check",
}


class ChaosSpec:
    """A seeded engine-fault injection plan, parsed from ``REPRO_CHAOS``.

    The spec is a comma-separated ``key=value`` list::

        REPRO_CHAOS="worker_kill=0.2,stages=runtime_step,max=2,seed=7"

    Keys: ``worker_kill``/``task_hang``/``slow_task`` give per-task
    injection probabilities; ``stages`` restricts injection to a
    ``+``-separated stage subset; ``max`` bounds the total faults
    injected; ``seed`` feeds a dedicated :func:`~repro.utils.rng.derive_seed`
    stream so draws are reproducible; ``hang_s``/``slow_s`` tune the
    fault durations.  Draws happen owner-side at submit time, one
    deterministic stream per pool.

    >>> spec = ChaosSpec.parse("worker_kill=1.0,stages=runtime_step,max=1,seed=7")
    >>> spec.active
    True
    >>> spec.draw("task") is None            # filtered stage
    True
    >>> spec.draw("runtime_step")            # p=1: fires deterministically
    ('worker_kill', 0.0)
    >>> spec.draw("runtime_step") is None    # max=1 budget exhausted
    True
    """

    def __init__(
        self,
        probabilities: Optional[Dict[EngineFaultKind, float]] = None,
        stages: Optional[Tuple[str, ...]] = None,
        max_faults: Optional[int] = None,
        seed: int = 0,
        hang_seconds: float = _HANG_SECONDS,
        slow_seconds: float = _SLOW_SECONDS,
    ) -> None:
        self._probabilities = dict(probabilities or {})
        for kind, probability in self._probabilities.items():
            if not 0.0 <= probability <= 1.0:
                raise FusionError(
                    "chaos probability for %s must be in [0, 1], got %r"
                    % (kind.value, probability)
                )
        self._stages = tuple(stages) if stages is not None else None
        self._max_faults = max_faults
        self._injected = 0
        self._hang_seconds = float(hang_seconds)
        self._slow_seconds = float(slow_seconds)
        # Lazy import: repro.utils' package __init__ reaches back into
        # repro.core.fusion, so a module-level import would be a cycle.
        from ..utils.rng import as_generator, derive_seed

        self._rng = as_generator(derive_seed(seed, "engine-chaos"))

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "ChaosSpec":
        """Parse a ``REPRO_CHAOS`` spec string (see class docstring)."""
        probabilities: Dict[EngineFaultKind, float] = {}
        stages: Optional[Tuple[str, ...]] = None
        max_faults: Optional[int] = None
        seed = 0
        hang_seconds = _HANG_SECONDS
        slow_seconds = _SLOW_SECONDS
        by_value = {kind.value: kind for kind in EngineFaultKind}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, separator, value = chunk.partition("=")
            key = key.strip()
            value = value.strip()
            if not separator:
                raise SpecParseError(
                    "REPRO_CHAOS", chunk, "entries must be key=value, got %r" % chunk
                )
            try:
                if key in by_value:
                    probabilities[by_value[key]] = float(value)
                elif key == "stages":
                    named = tuple(s for s in value.split("+") if s)
                    vocabulary = KNOWN_STAGES + OWNER_STAGES
                    unknown = [s for s in named if s not in vocabulary]
                    if unknown:
                        raise SpecParseError(
                            "REPRO_CHAOS",
                            unknown[0],
                            "names unknown stages %r (known: %s)"
                            % (unknown, ", ".join(vocabulary)),
                        )
                    stages = named
                elif key == "max":
                    max_faults = int(value)
                elif key == "seed":
                    seed = int(value)
                elif key == "hang_s":
                    hang_seconds = float(value)
                elif key == "slow_s":
                    slow_seconds = float(value)
                else:
                    raise SpecParseError(
                        "REPRO_CHAOS", key, "unknown REPRO_CHAOS key %r" % key
                    )
            except ValueError:
                raise SpecParseError(
                    "REPRO_CHAOS", value, "invalid REPRO_CHAOS value in %r" % chunk
                ) from None
        return cls(
            probabilities,
            stages=stages,
            max_faults=max_faults,
            seed=seed,
            hang_seconds=hang_seconds,
            slow_seconds=slow_seconds,
        )

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when any fault kind has a non-zero probability."""
        return any(p > 0 for p in self._probabilities.values())

    @property
    def injected(self) -> int:
        """Faults drawn so far (owner side)."""
        return self._injected

    def draw(self, stage: str) -> Optional[ChaosFault]:
        """Decide whether the next task of ``stage`` suffers a fault.

        Called owner-side at submit time; the returned picklable fault
        rides along with the task and is executed by the worker's task
        shell.  Returns ``None`` for "no fault".
        """
        if not self.active:
            return None
        if self._max_faults is not None and self._injected >= self._max_faults:
            return None
        if self._stages is not None and stage not in self._stages:
            return None
        for kind in _DRAW_ORDER:
            owner_stage = _OWNER_STAGE_BY_KIND.get(kind)
            if owner_stage is not None:
                if stage != owner_stage:
                    continue
            elif stage in OWNER_STAGES:
                continue
            probability = self._probabilities.get(kind, 0.0)
            if probability <= 0.0:
                continue
            if self._rng.random() < probability:
                self._injected += 1
                if kind is EngineFaultKind.TASK_HANG:
                    return (kind.value, self._hang_seconds)
                if kind is EngineFaultKind.SLOW_TASK:
                    return (kind.value, self._slow_seconds)
                return (kind.value, 0.0)
        return None


def chaos_from_env() -> Optional[ChaosSpec]:
    """The process-wide chaos plan, or ``None`` when ``REPRO_CHAOS`` is unset."""
    raw = os.environ.get("REPRO_CHAOS", "").strip()
    if not raw:
        return None
    spec = ChaosSpec.parse(raw)
    return spec if spec.active else None


def execute_chaos_fault(fault: ChaosFault) -> None:
    """Execution of a drawn fault (worker task shell or store commit path)."""
    kind, seconds = fault
    if kind in (
        EngineFaultKind.WORKER_KILL.value,
        EngineFaultKind.KILL_DURING_WRITE.value,
        EngineFaultKind.KILL_BETWEEN_LEVELS.value,
    ):
        # A hard kill, exactly like the OOM killer: no cleanup, no
        # exception — a killed worker surfaces as BrokenProcessPool, a
        # killed owner leaves the store to prove its crash durability.
        os.kill(os.getpid(), signal.SIGKILL)
    elif kind == EngineFaultKind.TASK_HANG.value:
        time.sleep(seconds)
    elif kind == EngineFaultKind.SLOW_TASK.value:
        time.sleep(seconds)
    # The resource kinds (disk_full / mem_pressure) are consumed
    # owner-side where they are drawn — the store commit path raises a
    # simulated ENOSPC, the governor forces a spill — so executing them
    # here is deliberately a no-op.


# ----------------------------------------------------------------------
# Owned-segment registry and reaper
# ----------------------------------------------------------------------
#: ``segment name -> owner pid`` for every shared segment this process
#: created and has not yet unlinked.  The pid guard matters because
#: pool workers are *forked* and inherit the dict: a worker receiving
#: SIGTERM must never unlink its parent's live segments.
_OWNED_SEGMENTS: Dict[str, int] = {}
_REGISTRY_LOCK = threading.Lock()
_SIGTERM_INSTALLED = False
_PREVIOUS_SIGTERM: object = None

#: Where POSIX shared-memory segments appear as files (Linux).
_SHM_DIR = "/dev/shm"


def pid_alive(pid: int) -> bool:
    """True unless no process ``pid`` exists (a foreign one counts as alive)."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _pid_namespace() -> int:
    """Inode of this process's pid namespace, or 0 where it cannot be read."""
    try:
        return os.stat("/proc/self/ns/pid").st_ino
    except OSError:
        return 0


def owned_segment_name() -> str:
    """A fresh segment name recording this process as its owner.

    ``psm_<pid>_<pidns>_<token>``: the ``psm_`` prefix of the standard
    library's own names (so leak checks still match), then the owner pid
    and the inode of its pid namespace (hex) that
    :func:`reap_dead_owner_segments` reads back.
    """
    return "psm_%d_%x_%s" % (os.getpid(), _pid_namespace(), secrets.token_hex(4))


def _segment_owner(name: str) -> Optional[Tuple[int, int]]:
    """The ``(pid, pid namespace)`` recorded in a segment name, or ``None``."""
    parts = name.split("_")
    if len(parts) != 4 or parts[0] != "psm" or not parts[1].isdigit() or not parts[3]:
        return None
    try:
        return int(parts[1]), int(parts[2], 16)
    except ValueError:
        return None


def reap_dead_owner_segments() -> Tuple[str, ...]:
    """Unlink the ``psm_*`` segments whose recorded owner pid is dead.

    The backstop for an owner killed by SIGKILL: no finalizer or signal
    handler runs then, and the multiprocessing resource tracker is not
    guaranteed to unlink either.  Only segments named by
    :func:`owned_segment_name` in this process's own pid namespace are
    considered: ``/dev/shm`` can be shared by containers whose pids mean
    other processes, so a segment from another namespace is never
    unlinked, nor is any segment where the namespace cannot be read.  A
    recorded pid now reused by an unrelated process counts as alive,
    which keeps the segment.  Returns the names unlinked; a system
    without ``/dev/shm`` reaps nothing.
    """
    namespace = _pid_namespace()
    if not namespace:
        return ()
    try:
        names = os.listdir(_SHM_DIR)
    except OSError:
        return ()
    reaped = []
    for name in names:
        owner = _segment_owner(name)
        if owner is None or owner[1] != namespace or pid_alive(owner[0]):
            continue
        try:
            os.unlink(os.path.join(_SHM_DIR, name))
        except OSError:  # another process reaped it first
            continue
        reaped.append(name)
    return tuple(reaped)


def register_owned_segment(name: str) -> None:
    """Record a segment this process created (called by the shm layer)."""
    with _REGISTRY_LOCK:
        _OWNED_SEGMENTS[name] = os.getpid()
    _install_sigterm_reaper()


def forget_owned_segment(name: str) -> None:
    """Drop a segment from the registry once it has been unlinked."""
    with _REGISTRY_LOCK:
        _OWNED_SEGMENTS.pop(name, None)


def live_owned_segments() -> Tuple[str, ...]:
    """Names of segments this process still owns — the leak check.

    Empty after every well-behaved run; tests and CI assert exactly that
    via :func:`assert_no_owned_segments`.
    """
    pid = os.getpid()
    with _REGISTRY_LOCK:
        return tuple(
            sorted(name for name, owner in _OWNED_SEGMENTS.items() if owner == pid)
        )


def assert_no_owned_segments() -> None:
    """Raise :class:`SegmentLeakError` if any owned segment is still linked."""
    leaked = live_owned_segments()
    if leaked:
        raise SegmentLeakError(
            "stranded /dev/shm segments owned by this process: %s" % ", ".join(leaked)
        )


def reap_owned_segments() -> Tuple[str, ...]:
    """Unlink every still-registered segment owned by this process.

    Best-effort (usable from a signal handler); returns the names reaped.
    """
    from multiprocessing import shared_memory

    pid = os.getpid()
    with _REGISTRY_LOCK:
        doomed = [name for name, owner in _OWNED_SEGMENTS.items() if owner == pid]
        for name in doomed:
            _OWNED_SEGMENTS.pop(name, None)
    reaped = []
    for name in doomed:
        try:
            segment = shared_memory.SharedMemory(name=name)
            segment.close()
            segment.unlink()
            reaped.append(name)
        except Exception:  # pragma: no cover - already gone
            pass
    return tuple(reaped)


def _sigterm_reaper(signum, frame):  # pragma: no cover - exercised via kill
    reap_owned_segments()
    previous = _PREVIOUS_SIGTERM
    if callable(previous):
        previous(signum, frame)
        return
    # Restore the inherited disposition and re-deliver, so the process
    # still dies with the conventional SIGTERM status.
    signal.signal(signum, previous if previous is not None else signal.SIG_DFL)
    os.kill(os.getpid(), signum)


def _install_sigterm_reaper() -> None:
    """Chain a ``/dev/shm`` reaper in front of the SIGTERM disposition.

    ``weakref.finalize`` backstops cover normal exits and exceptions,
    but a default-disposition SIGTERM skips atexit entirely — exactly
    the signal a service manager sends a long-running fusion service.
    Only the main thread may install handlers; elsewhere the finalizer
    backstops still apply.
    """
    global _SIGTERM_INSTALLED, _PREVIOUS_SIGTERM
    if _SIGTERM_INSTALLED:
        return
    if threading.current_thread() is not threading.main_thread():
        return
    try:
        _PREVIOUS_SIGTERM = signal.getsignal(signal.SIGTERM)
        signal.signal(signal.SIGTERM, _sigterm_reaper)
        _SIGTERM_INSTALLED = True
    except (ValueError, OSError):  # pragma: no cover - exotic embedding
        pass
