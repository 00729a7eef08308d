"""Vectorized streaming execution and batched Algorithm 3 recovery.

The simulation layer (and the paper's own motivation — Section 5 talks
about recovering "any number of clients" served by one machine set)
needs the *online* half of the system to scale the way PRs 1–6 made the
offline half scale: many concurrent instances of the same fused machine
set, all consuming event streams, with Algorithm 3 run over whole
cohorts of faulty instances at once.

Two engines live here:

* :class:`VectorizedRuntime` packs ``N`` instances of one machine set
  into per-machine integer state *vectors* and applies events as
  transition-table gathers.  A shared (broadcast) event batch is first
  composed into one ``state -> state`` map per machine — ``O(E · Σ n_m)``
  regardless of ``N`` — and then applied with a single gather per
  machine; per-instance event matrices use one ``table[S, E]`` gather
  per step.  Above :data:`_RUNTIME_POOL_MIN_INSTANCES` instances the
  gathers shard over the existing :class:`~repro.core.shm.SharedWorkerPool`
  (tables published once as a :class:`~repro.core.shm.SharedArrayBundle`,
  states shipped through a rewritable :class:`~repro.core.shm.SharedScratch`),
  inheriting the self-healing wave protocol.

* :class:`BatchRecovery` runs Algorithm 3 as decoding.  The top states'
  machine-state words form a block code, and the vote's winner is the
  word nearest the live reports in Hamming distance, so crashes are
  erasures and lies are errors.  Per crash pattern it erases ``r = 0,
  1, ...`` further live machines and looks the rest of each instance's
  reports up in a cached table of sorted word keys; the first radius
  with a hit decides, and several hits there are the vote's tie.
  Instances with no hit within ``⌊backups/2⌋`` are counted by the
  ``(B, |top|)`` vote instead, so every input gets the vote's answer,
  while the usual cohort costs ``O(B · M)`` and a few ``searchsorted``
  calls.  It is the one Algorithm 3 engine:
  :meth:`BatchRecovery.recover` serves a single instance (the
  simulation's coordinator), :meth:`BatchRecovery.recover_batch` a
  cohort.  The property suite checks it outcome-for-outcome — the
  strict-tie, fault-budget and all-crashed error paths and the Byzantine
  ``⌊f/2⌋`` majority included — against an oracle written from the
  paper's set representation and vote, and against the block code's
  erasure and error decoders.

Both engines treat per-instance faults with the simulator's exact
semantics: a crashed machine's visible state is the sentinel ``-1``
(its true state keeps evolving), a Byzantine machine keeps stepping
from its corrupted state.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field
from functools import cached_property
from typing import (
    Dict,
    Iterator,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from .dfsm import DFSM
from .exceptions import (
    FaultBudgetExceededError,
    RecoveryError,
    SimulationError,
    UnknownStateError,
)
from .partition import machine_assignment
from .product import CrossProduct, merged_alphabet
from .recovery import RecoveryOutcome
from .shm import SharedScratch, SharedWorkerPool, attached_arrays, resolve_workers
from .types import EventLabel, StateLabel, narrow_index_dtype

__all__ = [
    "HEALTHY",
    "CRASHED",
    "BYZANTINE",
    "VectorizedRuntime",
    "BatchRecovery",
    "BatchOutcome",
    "recover_fleet",
]


#: Integer status codes, one per instance and machine; they mirror
#: :class:`repro.simulation.server.ServerStatus` member for member.
HEALTHY, CRASHED, BYZANTINE = 0, 1, 2

#: Fleets below this many instances step serially — the gathers are
#: already memory-bound and a pool round-trip would only add latency.
#: Module-level so tests can patch it down and exercise the pooled path
#: on test-sized fleets; the ``REPRO_RUNTIME_POOL_MIN_INSTANCES``
#: environment knob overrides it without code changes.
_RUNTIME_POOL_MIN_INSTANCES = 1 << 16


def _pool_min_instances() -> int:
    raw = os.environ.get("REPRO_RUNTIME_POOL_MIN_INSTANCES", "").strip()
    if raw:
        try:
            return int(raw)
        except ValueError:
            raise SimulationError(
                "REPRO_RUNTIME_POOL_MIN_INSTANCES must be an integer, got %r" % raw
            ) from None
    return _RUNTIME_POOL_MIN_INSTANCES


# ----------------------------------------------------------------------
# Stepping kernels, shared by the serial path and the pool tasks.  Every
# table and composed map carries one extra all ``-1`` row, which the
# crash sentinel ``-1`` indexes, so a crashed cell stays crashed without
# a mask.
# ----------------------------------------------------------------------
def _step_matrix(
    tables: np.ndarray, true: np.ndarray, visible: np.ndarray, events: np.ndarray
) -> None:
    """Step ``(M, W)`` true/visible states in place through a ``(T, W)``
    event-index matrix: one ``table[S, E]`` gather per step and machine."""
    for t in range(events.shape[0]):
        e = events[t]
        for m in range(true.shape[0]):
            tm = tables[m]
            true[m] = tm[true[m], e]
            visible[m] = tm[visible[m], e]


def _apply_map(comp: np.ndarray, true: np.ndarray, visible: np.ndarray) -> None:
    """Apply a composed per-machine ``state -> state`` map in place."""
    for m in range(true.shape[0]):
        cm = comp[m]
        true[m] = cm[true[m]]
        visible[m] = cm[visible[m]]


# ----------------------------------------------------------------------
# Pool tasks (module-level for pickling; pure functions of the published
# arrays and their arguments, so healed replays are byte-identical)
# ----------------------------------------------------------------------
def _scratch_slab(
    data: np.ndarray, num_machines: int, num_instances: int, lo: int, hi: int
) -> np.ndarray:
    """A ``(2, M, width)`` copy of one instance slice of the scratch's
    true and visible matrices.

    The scratch stays read-only to tasks, so a healed replay sees the
    original payload.
    """
    states = data[: 2 * num_machines * num_instances]
    return states.reshape(2, num_machines, num_instances)[:, :, lo:hi].copy()


def _runtime_stream_task(
    scratch_meta: Dict[str, object],
    comp: np.ndarray,
    num_machines: int,
    num_instances: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Apply a composed per-machine map to one slice.

    The true/visible state matrices travel through the scratch; the
    composed maps are small (``(M, max_n + 1)``) and ride in the task
    arguments.  Returns the updated ``(2, M, width)`` slab; the owner
    writes it back.
    """
    data = attached_arrays(scratch_meta)["data"]
    slab = _scratch_slab(data, num_machines, num_instances, lo, hi)
    _apply_map(comp, slab[0], slab[1])
    return slab


def _runtime_matrix_task(
    tables_meta: Dict[str, object],
    scratch_meta: Dict[str, object],
    num_machines: int,
    num_instances: int,
    num_steps: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Step one instance slice through its per-instance event streams.

    The padded global transition tables live in the published bundle;
    states and the ``(T, N)`` event-index matrix travel through the
    scratch.  Returns the ``(2, M, width)`` slab of final states.
    """
    tables = attached_arrays(tables_meta)["tables"]
    data = attached_arrays(scratch_meta)["data"]
    slab = _scratch_slab(data, num_machines, num_instances, lo, hi)
    total = num_machines * num_instances
    events = data[2 * total : 2 * total + num_steps * num_instances].reshape(
        num_steps, num_instances
    )[:, lo:hi]
    _step_matrix(tables, slab[0], slab[1], events)
    return slab


# ----------------------------------------------------------------------
# The streaming execution engine
# ----------------------------------------------------------------------
class VectorizedRuntime:
    """``N`` concurrent instances of one machine set as state vectors.

    Parameters
    ----------
    machines:
        The executing machine set (typically originals + fusion backups).
        Machine order is the row order of every matrix this class exposes.
    num_instances:
        Number of concurrent system instances (the fleet width ``N``).
    pool:
        An existing :class:`SharedWorkerPool` to shard large fleets over.
        The runtime does not close a borrowed pool.
    workers:
        When no ``pool`` is given, a worker count for an owned pool
        (resolved through :func:`repro.core.shm.resolve_workers`; the
        default is serial under pytest and the machine's CPU count
        otherwise).  An owned pool is closed by :meth:`close`.

    Per machine, the runtime builds a *global* transition table over the
    merged alphabet — identity columns for events outside the machine's
    own alphabet, reproducing :meth:`repro.core.dfsm.DFSM.step`'s
    ignore-unknown-events semantics — padded and stacked into one
    ``(M, max_n + 1, K)`` array that is published once per pool lifetime.
    The last row is all ``-1``: the crash sentinel steps to itself.
    """

    def __init__(
        self,
        machines: Sequence[DFSM],
        num_instances: int = 1,
        *,
        pool: Optional[SharedWorkerPool] = None,
        workers: Optional[int] = None,
    ) -> None:
        machines = tuple(machines)
        if not machines:
            raise SimulationError("a runtime needs at least one machine")
        if num_instances < 1:
            raise SimulationError("num_instances must be positive")
        self._machines = machines
        self._alphabet: Tuple[EventLabel, ...] = merged_alphabet(machines)
        self._event_indices: Dict[EventLabel, int] = {
            event: index for index, event in enumerate(self._alphabet)
        }
        num_machines = len(machines)
        num_events = max(1, len(self._alphabet))
        max_states = max(machine.num_states for machine in machines)
        dtype = narrow_index_dtype(max_states + 1)

        tables = np.zeros((num_machines, max_states + 1, num_events), dtype=dtype)
        tables[:, max_states] = -1
        for mi, machine in enumerate(machines):
            n = machine.num_states
            identity = np.arange(n, dtype=dtype)
            for ei, event in enumerate(self._alphabet):
                if machine.has_event(event):
                    column = machine.transition_table[:, machine.event_index(event)]
                    tables[mi, :n, ei] = column.astype(dtype)
                else:
                    tables[mi, :n, ei] = identity
        tables.setflags(write=False)
        self._tables = tables
        self._dtype = tables.dtype
        self._num_instances = int(num_instances)
        self._max_states = max_states

        initial = np.array([m.initial_index for m in machines], dtype=self._dtype)
        self._true = np.repeat(initial[:, None], self._num_instances, axis=1)
        self._visible = self._true.copy()
        self._status = np.zeros((num_machines, self._num_instances), dtype=np.uint8)
        self._events_applied = 0

        self._owns_pool = False
        if pool is not None:
            self._pool: Optional[SharedWorkerPool] = pool
        else:
            worker_count = resolve_workers(workers)
            if worker_count > 1:
                self._pool = SharedWorkerPool(worker_count)
                self._owns_pool = True
            else:
                self._pool = None
        self._bundle = None
        self._scratch: Optional[SharedScratch] = None

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def machines(self) -> Tuple[DFSM, ...]:
        return self._machines

    @property
    def num_machines(self) -> int:
        return len(self._machines)

    @property
    def num_instances(self) -> int:
        return self._num_instances

    @property
    def alphabet(self) -> Tuple[EventLabel, ...]:
        """The merged event alphabet; event indices refer to this order."""
        return self._alphabet

    @property
    def events_applied(self) -> int:
        """Number of event steps applied since construction."""
        return self._events_applied

    @property
    def true_states(self) -> np.ndarray:
        """Ground-truth ``(M, N)`` state-index matrix (a copy)."""
        return self._true.copy()

    @property
    def visible_states(self) -> np.ndarray:
        """Visible ``(M, N)`` state-index matrix, ``-1`` = crashed (a copy)."""
        return self._visible.copy()

    @property
    def statuses(self) -> np.ndarray:
        """``(M, N)`` status-code matrix (a copy); see :data:`HEALTHY` etc."""
        return self._status.copy()

    def encode_events(self, events: Sequence[EventLabel]) -> np.ndarray:
        """Map event labels to global event indices (unknown labels error)."""
        try:
            return np.array(
                [self._event_indices[event] for event in events], dtype=self._dtype
            )
        except KeyError as exc:
            raise SimulationError("unknown event %r" % (exc.args[0],)) from None

    def select_instances(self, instances: Optional[Sequence[int]] = None) -> np.ndarray:
        """Validate and normalise an instance selector (``None`` = all)."""
        if instances is None:
            return np.arange(self._num_instances)
        selected = np.asarray(instances, dtype=np.int64).ravel()
        if selected.size and (
            selected.min() < 0 or selected.max() >= self._num_instances
        ):
            raise SimulationError("instance index out of range")
        return selected

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def apply_stream(self, events: Sequence[EventLabel]) -> None:
        """Broadcast a shared, globally ordered event batch to the fleet.

        The batch is composed into one ``state -> state`` map per machine
        first (cost independent of ``N``), then applied as a single
        gather per machine.  Events outside the merged alphabet are
        ignored by every machine, exactly like per-instance stepping.
        """
        ids = [
            self._event_indices[event]
            for event in events
            if event in self._event_indices
        ]
        if ids:
            comp = np.repeat(
                np.arange(self._max_states + 1, dtype=self._dtype)[None, :],
                self.num_machines,
                axis=0,
            )
            comp[:, self._max_states] = -1
            for ei in ids:
                comp = np.take_along_axis(self._tables[:, :, ei], comp, axis=1)
            self._apply_composed(comp)
        self._events_applied += len(events)

    def apply_event_matrix(self, events: np.ndarray) -> None:
        """Step every instance through its own event stream.

        ``events`` is a ``(T, N)`` (or ``(N,)`` for one step) matrix of
        *global event indices* — see :meth:`encode_events` — column ``i``
        being instance ``i``'s stream.  Each step costs one
        ``table[S, E]`` gather per machine.
        """
        matrix = np.asarray(events)
        if matrix.ndim == 1:
            matrix = matrix[None, :]
        if matrix.ndim != 2 or matrix.shape[1] != self._num_instances:
            raise SimulationError(
                "event matrix must be (steps, num_instances=%d), got %r"
                % (self._num_instances, matrix.shape)
            )
        if matrix.size and (
            matrix.min() < 0 or matrix.max() >= len(self._alphabet)
        ):
            raise SimulationError("event index out of range for the merged alphabet")
        matrix = matrix.astype(self._dtype, copy=False)
        if not (self._pooled_route() and self._apply_matrix_pooled(matrix)):
            _step_matrix(self._tables, self._true, self._visible, matrix)
        self._events_applied += matrix.shape[0]

    def _apply_composed(self, comp: np.ndarray) -> None:
        if not (self._pooled_route() and self._apply_composed_pooled(comp)):
            _apply_map(comp, self._true, self._visible)

    # ------------------------------------------------------------------
    # Pool sharding
    # ------------------------------------------------------------------
    def _pooled_route(self) -> bool:
        return (
            self._pool is not None
            and self._pool.usable
            and self._num_instances >= _pool_min_instances()
        )

    def _instance_slices(self) -> List[Tuple[int, int]]:
        shards = min(self._pool.workers * 4, self._num_instances)
        bounds = np.linspace(0, self._num_instances, shards + 1, dtype=np.int64)
        return [
            (int(bounds[i]), int(bounds[i + 1]))
            for i in range(shards)
            if bounds[i] < bounds[i + 1]
        ]

    def _ensure_scratch(self) -> SharedScratch:
        if self._scratch is None or self._scratch._closed:
            self._scratch = SharedScratch(self._pool, dtype=self._dtype)
        return self._scratch

    def _tables_meta(self) -> Dict[str, object]:
        if self._bundle is None or self._bundle.closed:
            self._bundle = self._pool.publish({"tables": np.asarray(self._tables)})
        return self._bundle.meta

    def _write_back(self, slices, slabs) -> None:
        for (lo, hi), slab in zip(slices, slabs):
            self._true[:, lo:hi] = slab[0]
            self._visible[:, lo:hi] = slab[1]

    def _apply_composed_pooled(self, comp: np.ndarray) -> bool:
        pool = self._pool
        slices = self._instance_slices()
        payload = np.concatenate([self._true.ravel(), self._visible.ravel()])

        def build_futures():
            meta, _length = self._ensure_scratch().write(payload)
            return [
                pool.submit(
                    _runtime_stream_task,
                    meta,
                    comp,
                    self.num_machines,
                    self._num_instances,
                    lo,
                    hi,
                )
                for lo, hi in slices
            ]

        slabs = pool.run_wave("runtime_step", build_futures)
        if slabs is None:
            return False
        self._write_back(slices, slabs)
        return True

    def _apply_matrix_pooled(self, matrix: np.ndarray) -> bool:
        pool = self._pool
        slices = self._instance_slices()
        payload = np.concatenate(
            [self._true.ravel(), self._visible.ravel(), matrix.ravel()]
        )

        def build_futures():
            tables_meta = self._tables_meta()
            meta, _length = self._ensure_scratch().write(payload)
            return [
                pool.submit(
                    _runtime_matrix_task,
                    tables_meta,
                    meta,
                    self.num_machines,
                    self._num_instances,
                    matrix.shape[0],
                    lo,
                    hi,
                )
                for lo, hi in slices
            ]

        slabs = pool.run_wave("runtime_step", build_futures)
        if slabs is None:
            return False
        self._write_back(slices, slabs)
        return True

    # ------------------------------------------------------------------
    # Fault injection and restoration (per machine, over instance sets)
    # ------------------------------------------------------------------
    def crash_instances(
        self, machine_index: int, instances: Optional[Sequence[int]] = None
    ) -> None:
        """Crash one machine of the selected instances: visible state lost."""
        selected = self.select_instances(instances)
        self._status[machine_index, selected] = CRASHED
        self._visible[machine_index, selected] = -1

    def corrupt_instances(
        self,
        machine_index: int,
        instances: Optional[Sequence[int]] = None,
        rng: Optional[np.random.Generator] = None,
        targets: Optional[Sequence[int]] = None,
    ) -> np.ndarray:
        """Byzantine-corrupt one machine of the selected instances.

        Picks, per instance, a uniformly random *different* state — the
        draw-to-state mapping (``target = draw + (draw >= current)``)
        matches :meth:`repro.simulation.server.Server.corrupt`'s
        candidate list exactly.  Explicit ``targets`` (state indices)
        override the draw.  Returns the corrupted state indices.
        """
        selected = self.select_instances(instances)
        machine = self._machines[machine_index]
        if machine.num_states < 2:
            raise SimulationError(
                "machine %s has a single state; Byzantine corruption is impossible"
                % machine.name
            )
        if (self._status[machine_index, selected] == CRASHED).any():
            raise SimulationError("cannot Byzantine-corrupt a crashed server")
        current = self._visible[machine_index, selected]
        if targets is None:
            generator = rng if rng is not None else np.random.default_rng()
            draws = generator.integers(
                0, machine.num_states - 1, size=selected.size
            ).astype(self._dtype)
            chosen = draws + (draws >= current)
        else:
            chosen = np.asarray(targets, dtype=self._dtype).ravel()
            if chosen.shape != current.shape:
                raise SimulationError("one corruption target per instance required")
            bad = (chosen < 0) | (chosen >= machine.num_states) | (chosen == current)
            if bad.any():
                raise SimulationError(
                    "corruption target is not a different valid state"
                )
        self._visible[machine_index, selected] = chosen
        self._status[machine_index, selected] = BYZANTINE
        return chosen

    def restore_instances(
        self,
        machine_index: int,
        states: Sequence[int],
        instances: Optional[Sequence[int]] = None,
    ) -> None:
        """Restore one machine of the selected instances to the given states."""
        selected = self.select_instances(instances)
        machine = self._machines[machine_index]
        values = np.asarray(states, dtype=self._dtype).ravel()
        if values.size == 1:
            values = np.repeat(values, selected.size)
        if values.size and (values.min() < 0 or values.max() >= machine.num_states):
            raise SimulationError(
                "cannot restore %s to an unknown state index" % machine.name
            )
        self._visible[machine_index, selected] = values
        self._status[machine_index, selected] = HEALTHY

    def restore_matrix(
        self, states: np.ndarray, instances: Optional[Sequence[int]] = None
    ) -> None:
        """Restore *every* machine of the selected instances at once."""
        selected = self.select_instances(instances)
        matrix = np.asarray(states, dtype=self._dtype)
        if matrix.shape != (self.num_machines, selected.size):
            raise SimulationError(
                "restore matrix must be (num_machines, num_selected)"
            )
        self._visible[:, selected] = matrix
        self._status[:, selected] = HEALTHY

    def report_matrix(self, instances: Optional[Sequence[int]] = None) -> np.ndarray:
        """Reported state indices, ``(M, B)``, ``-1`` for crashed machines."""
        selected = self.select_instances(instances)
        return self._visible[:, selected].astype(np.int64)

    # ------------------------------------------------------------------
    # Verification
    # ------------------------------------------------------------------
    def consistent_instances(self) -> np.ndarray:
        """Boolean ``(N,)`` vector: instance's visible states all == truth."""
        return (self._visible == self._true).all(axis=0)

    def is_consistent(self) -> bool:
        """True when every machine of every instance matches ground truth."""
        return bool((self._visible == self._true).all())

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Release shared segments (and an owned pool's workers)."""
        if self._scratch is not None:
            self._scratch.close()
            self._scratch = None
        if self._owns_pool:
            if self._pool is not None:
                self._pool.close()
                self._pool = None
            self._bundle = None
        elif self._bundle is not None and self._pool is not None:
            self._pool.retire(self._bundle)
            self._bundle = None

    def __enter__(self) -> "VectorizedRuntime":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()


# ----------------------------------------------------------------------
# Batched Algorithm 3
# ----------------------------------------------------------------------
#: Bytes of sorted-key tables one :class:`BatchRecovery` keeps.  Past it
#: the least recently used table is dropped, to be rebuilt on its next
#: use; a table costs ``|top|`` keys plus ``|top|`` indices.
_TABLE_CACHE_BYTES = 64 << 20


def _vote_counts(assignments: np.ndarray, reported: np.ndarray) -> np.ndarray:
    """Algorithm 3's ``(B, |top|)`` vote over ``(M, B)`` reports.

    Entry ``[b, t]`` counts the machines whose report in instance ``b``
    is the state top state ``t`` assigns them; a crash (``-1``) matches
    no top state.  Per machine, a 0/1 table with one row per distinct
    report (slot 0 the crash, all zero) is gathered once per instance.
    """
    counts = np.zeros((reported.shape[1], assignments.shape[1]), dtype=np.int16)
    for assignment, column in zip(assignments, reported):
        slots = column + 1
        present = np.bincount(slots, minlength=2) > 0
        distinct = np.flatnonzero(present) - 1
        table = (assignment == distinct[:, None]).astype(np.int16)
        counts += table[np.cumsum(present)[slots] - 1]
    return counts


def _crash_groups(crashed: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """``(mask, columns)`` per crash pattern of an ``(M, B)`` crash matrix.

    ``mask`` has bit ``m`` set when machine ``m`` crashed; ``columns``
    are the instances with that pattern, ascending.
    """
    def mask(column: np.ndarray) -> int:
        return sum(1 << int(m) for m in np.flatnonzero(column))

    if not crashed.shape[1]:
        return
    if not (crashed != crashed[:, :1]).any():
        yield mask(crashed[:, 0]), np.arange(crashed.shape[1])
        return
    _, inverse = np.unique(
        np.packbits(crashed, axis=0), axis=1, return_inverse=True
    )
    order = np.argsort(inverse.ravel(), kind="stable")
    starts = np.flatnonzero(np.diff(inverse.ravel()[order])) + 1
    for columns in np.split(order, starts):
        yield mask(crashed[:, columns[0]]), columns


class _KeyTable(NamedTuple):
    """The top states keyed over the machines outside one erased set."""

    #: Mixed-radix keys of the top states' assignment words, ascending.
    keys: np.ndarray
    #: The top index of each key (equal keys in no particular order).
    order: np.ndarray
    #: Some key occurs more than once.
    repeated: bool


@dataclass(frozen=True)
class BatchOutcome:
    """Result of one batched Algorithm-3 pass over ``B`` instances.

    Attributes
    ----------
    top_indices:
        ``(B,)`` recovered top-state index per instance.
    machine_states:
        ``(M, B)`` recovered state index of every machine.
    crashed:
        ``(M, B)`` boolean: machine reported no state.
    suspected_byzantine:
        ``(M, B)`` boolean: machine's report does not contain the winner.
    reported:
        ``(M, B)`` reported state indices the cohort was recovered from.
    counts:
        ``(B, |top|)`` vote matrix, counted from ``reported`` on first
        access (the recovery itself does not need it).
    """

    top_indices: np.ndarray
    machine_states: np.ndarray
    crashed: np.ndarray
    suspected_byzantine: np.ndarray
    reported: np.ndarray
    _assignments: np.ndarray = field(repr=False)

    @property
    def num_instances(self) -> int:
        return int(self.top_indices.shape[0])

    @cached_property
    def counts(self) -> np.ndarray:
        return _vote_counts(self._assignments, self.reported)


class BatchRecovery:
    """Algorithm 3 as decoding, over one instance or a cohort.

    For every machine (originals in product order, then backups, a
    repeated name getting a ``name#2`` suffix) the constructor
    precomputes the top→machine-state assignment — the product's
    projections for originals, Algorithm 1's lockstep assignment
    (:func:`repro.core.partition.machine_assignment`) for backups.  Top
    state ``t``'s *word* is its assignment on every machine, and the vote
    of ``t`` is the number of live reports that agree with its word: the
    live count minus the Hamming distance.  So the winner is the word
    nearest the reports, and :meth:`recover_batch` finds it by erasing
    ``r = 0, 1, ...`` live machines and looking the rest up among the top
    states' words (see :meth:`_decode`).
    """

    def __init__(self, product: CrossProduct, backups: Sequence[DFSM] = ()) -> None:
        self._product = product
        self._top = product.machine
        self._backups = tuple(backups)
        num_top = self._top.num_states

        names: List[str] = []
        machines: List[DFSM] = []
        assignments: List[np.ndarray] = []

        def unique(name: str) -> str:
            if name not in names:
                return name
            suffix = 2
            while "%s#%d" % (name, suffix) in names:
                suffix += 1
            return "%s#%d" % (name, suffix)

        for index, machine in enumerate(product.components):
            names.append(unique(machine.name))
            machines.append(machine)
            assignments.append(np.asarray(product.projection(index), dtype=np.int64))
        for machine in self._backups:
            names.append(unique(machine.name))
            machines.append(machine)
            assignments.append(machine_assignment(self._top, machine))

        self._names = tuple(names)
        self._machines_by_name = dict(zip(names, machines))
        self._machine_list = tuple(machines)
        self._num_top = num_top

        self._assignments = np.stack(assignments)
        self._assignments.setflags(write=False)
        # A state is reachable alongside the top iff some top state maps
        # to it.  ``_valid`` pads each row past the largest machine (so
        # an out-of-range state reads invalid) and ends in a column for
        # the crash sentinel.
        width = max(machine.num_states for machine in machines)
        self._valid = np.zeros((len(machines), width + 2), dtype=bool)
        for m, assignment in enumerate(assignments):
            self._valid[m, assignment] = True
        self._valid[:, -1] = True
        self._rows = np.arange(len(machines))[:, None]

        # Word keys: the mixed radix of the machines' states, machines in
        # order while the key fits int64; later machines are compared on
        # each hit.
        strides: List[int] = []
        space = 1
        for assignment in assignments:
            radix = int(assignment.max()) + 1
            if space * radix > 1 << 63:
                break
            strides.append(space)
            space *= radix
        self._strides = np.array(strides, dtype=np.int64)
        # b backups give a code distance of at most b + 1, so an instance
        # the fusion can correct is at distance at most ⌊b/2⌋.
        self._radius = len(self._backups) // 2
        self._tables: Dict[int, _KeyTable] = {}
        self._table_bytes = 0

    # ------------------------------------------------------------------
    @property
    def machine_names(self) -> Tuple[str, ...]:
        """Names of all machines known to the engine (originals then backups)."""
        return self._names

    @property
    def top(self) -> DFSM:
        return self._top

    @property
    def num_machines(self) -> int:
        return len(self._names)

    # ------------------------------------------------------------------
    def recover_batch(
        self,
        reported: np.ndarray,
        strict: bool = True,
        expected_max_faults: Optional[int] = None,
    ) -> BatchOutcome:
        """Run Algorithm 3 over a whole cohort of instances at once.

        ``reported`` is an ``(M, B)`` matrix of reported machine-state
        *indices* (``-1`` = crashed; a lower index is rejected), machine
        rows in :attr:`machine_names` order.  A reported state not
        co-reachable with the top or an all-crashed instance raises
        :class:`RecoveryError`; a crash count above ``expected_max_faults``
        raises :class:`FaultBudgetExceededError` naming the crashed
        machines; under ``strict`` a tied vote raises
        :class:`RecoveryError` (more faults than the system tolerates).
        """
        matrix = np.array(reported, dtype=np.int64)
        if matrix.ndim == 1:
            matrix = matrix[:, None]
        if matrix.ndim != 2 or matrix.shape[0] != self.num_machines:
            raise RecoveryError(
                "reported matrix must be (num_machines=%d, num_instances), got %r"
                % (self.num_machines, matrix.shape)
            )
        num_machines = matrix.shape[0]
        crashed = matrix < 0
        if matrix.size and (
            matrix.min() < -1
            or not self._valid[
                self._rows, np.minimum(matrix, self._valid.shape[1] - 2)
            ].all()
        ):
            self._reject(matrix)

        num_crashed = crashed.sum(axis=0)
        if expected_max_faults is not None:
            over = num_crashed > expected_max_faults
            if over.any():
                instance = int(over.argmax())
                culprits = [
                    self._names[m] for m in np.nonzero(crashed[:, instance])[0]
                ]
                raise FaultBudgetExceededError.for_crashes(
                    culprits, expected_max_faults
                )
        if (num_crashed == num_machines).any():
            raise RecoveryError("every machine crashed; nothing to recover from")

        winners = self._decode(matrix, crashed, strict)
        machine_states = self._assignments[:, winners]
        # A live machine is suspect iff the winner is not in its block.
        suspected = ~crashed & (machine_states != matrix)
        return BatchOutcome(
            top_indices=winners,
            machine_states=machine_states,
            crashed=crashed,
            suspected_byzantine=suspected,
            reported=matrix,
            _assignments=self._assignments,
        )

    def _reject(self, matrix: np.ndarray) -> None:
        """Raise for the first machine with an impossible report."""
        for m, (name, machine) in enumerate(zip(self._names, self._machine_list)):
            if matrix[m].min() < -1:
                raise RecoveryError(
                    "machine %r reported state index %d (only -1 marks a crash)"
                    % (name, int(matrix[m].min()))
                )
            live = matrix[m][matrix[m] >= 0]
            if live.size and live.max() >= machine.num_states:
                raise RecoveryError(
                    "machine %r cannot be in state index %d"
                    % (name, int(live.max()))
                )
            invalid = ~self._valid[m][live]
            if invalid.any():
                state = machine.state_label(int(live[invalid.argmax()]))
                raise RecoveryError(
                    "machine %r cannot be in state %r (not reachable alongside the top)"
                    % (name, state)
                )

    def _decode(
        self, matrix: np.ndarray, crashed: np.ndarray, strict: bool
    ) -> np.ndarray:
        """The winning top index of every column of a validated cohort.

        Per crash pattern, erase every ``r``-subset of the live machines
        for ``r = 0, 1, ...`` and look each instance's remaining reports
        up among the top states' words (:meth:`_probe`).  The first ``r``
        with a hit is the distance of the nearest words.  A word at that
        distance disagrees on exactly the erased subset, so the subsets'
        hits are disjoint, their sum is the number of tied winners, and
        the least hit index is the vote's lowest-index winner.  Columns
        with no hit by the radius bound are counted by the vote instead,
        so the answer is exact for any reports.
        """
        num_machines, batch = matrix.shape
        keyed = self._strides.size
        winners = np.empty(batch, dtype=np.int64)
        ambiguous = np.zeros(batch, dtype=bool)
        words = self._strides @ np.where(crashed[:keyed], 0, matrix[:keyed])
        voted: List[np.ndarray] = [np.empty(0, dtype=np.int64)]
        for erased, columns in _crash_groups(crashed):
            if keyed == num_machines and columns.size > 1:
                # Equal words are equal reports: search each word once.
                queries, inverse = np.unique(words[columns], return_inverse=True)
                inverse = inverse.ravel()
                distinct = np.empty(queries.size, dtype=np.int64)
                distinct[inverse] = columns
            else:
                queries, inverse, distinct = words[columns], slice(None), columns
            found, least = self._search(erased, queries, matrix, distinct)
            found, least = found[inverse], least[inverse]
            hit = found > 0
            winners[columns[hit]] = least[hit]
            ambiguous[columns[hit]] = found[hit] > 1
            voted.append(columns[~hit])
        voted_columns = np.concatenate(voted)
        if voted_columns.size:
            counts = _vote_counts(self._assignments, matrix[:, voted_columns])
            best = counts.max(axis=1)
            winners[voted_columns] = counts.argmax(axis=1)
            ambiguous[voted_columns] = (counts == best[:, None]).sum(axis=1) > 1
        if strict and ambiguous.any():
            instance = int(ambiguous.argmax())
            counts = _vote_counts(self._assignments, matrix[:, instance : instance + 1])
            best = int(counts.max())
            raise RecoveryError(
                "ambiguous recovery: top states %s tie with %d votes each "
                "(more faults than the system tolerates?)"
                % (np.flatnonzero(counts[0] == best).tolist(), best)
            )
        return winners

    def _search(
        self,
        erased: int,
        queries: np.ndarray,
        matrix: np.ndarray,
        columns: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per column, the number and least index of the words nearest
        its reports, searched up to the radius bound; ``0`` past it.

        All ``columns`` crashed exactly the machines in ``erased``, and
        ``queries`` are their keys over the live keyed machines.
        """
        live = [m for m in range(self.num_machines) if not erased >> m & 1]
        found = np.zeros(columns.size, dtype=np.int64)
        least = np.full(columns.size, self._num_top, dtype=np.int64)
        pending = np.arange(columns.size)
        for radius in range(min(self._radius, len(live)) + 1):
            targets = columns[pending]
            for subset in itertools.combinations(live, radius):
                mask, shifted = erased, queries[pending]
                for m in subset:
                    mask |= 1 << m
                    if m < self._strides.size:
                        shifted = shifted - self._strides[m] * matrix[m, targets]
                count, first = self._probe(mask, shifted, matrix, targets)
                found[pending] += count
                least[pending] = np.minimum(least[pending], first)
            pending = pending[found[pending] == 0]
            if not pending.size:
                break
        return found, least

    def _probe(
        self,
        erased: int,
        queries: np.ndarray,
        matrix: np.ndarray,
        columns: np.ndarray,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per column, the number and least index of the top states whose
        word agrees with the reports on every machine outside ``erased``.

        ``queries`` are the columns' keys over the keyed machines outside
        ``erased``; a miss counts 0 with least index ``|top|``.
        """
        table = self._table(erased)
        keys = table.keys
        # Ascending queries search several times faster than random ones.
        ascending = np.argsort(queries)
        lo = np.empty(queries.size, dtype=np.int64)
        lo[ascending] = np.searchsorted(keys, queries[ascending])
        at = np.minimum(lo, keys.size - 1)
        hit = keys[at] == queries
        unkeyed = [
            m
            for m in range(self._strides.size, self.num_machines)
            if not erased >> m & 1
        ]
        if not (table.repeated or unkeyed):
            return hit.astype(np.int64), np.where(hit, table.order[at], self._num_top)
        # Expand each hit's run of equal keys; compare the unkeyed rows.
        span = np.where(hit, np.searchsorted(keys, queries, side="right") - lo, 0)
        owner = np.repeat(np.arange(queries.size), span)
        offset = np.repeat(lo - (np.cumsum(span) - span), span)
        candidates = table.order[offset + np.arange(owner.size)]
        agree = np.ones(owner.size, dtype=bool)
        for m in unkeyed:
            agree &= self._assignments[m, candidates] == matrix[m, columns[owner]]
        owner, candidates = owner[agree], candidates[agree]
        least = np.full(queries.size, self._num_top, dtype=np.int64)
        np.minimum.at(least, owner, candidates)
        return np.bincount(owner, minlength=queries.size), least

    def _table(self, erased: int) -> _KeyTable:
        """The cached key table of the machines outside ``erased``."""
        table = self._tables.pop(erased, None)
        if table is None:
            keys = np.zeros(self._num_top, dtype=np.int64)
            for m, stride in enumerate(self._strides.tolist()):
                if not erased >> m & 1:
                    keys += self._assignments[m] * stride
            order = np.argsort(keys).astype(narrow_index_dtype(self._num_top))
            keys = keys[order]
            table = _KeyTable(keys, order, bool((keys[1:] == keys[:-1]).any()))
            self._table_bytes += keys.nbytes + order.nbytes
            while self._tables and self._table_bytes > _TABLE_CACHE_BYTES:
                dropped = self._tables.pop(next(iter(self._tables)))
                self._table_bytes -= dropped.keys.nbytes + dropped.order.nbytes
        # Re-inserted on every use, so the first entry is the least recent.
        self._tables[erased] = table
        return table

    # ------------------------------------------------------------------
    def recover(
        self,
        observations: Mapping[str, Optional[StateLabel]],
        strict: bool = True,
        expected_max_faults: Optional[int] = None,
    ) -> RecoveryOutcome:
        """Single-instance Algorithm 3 over reported state labels.

        ``observations`` maps machine name to its reported state label,
        or ``None`` for a crashed machine; omitted machines count as
        crashed.  Returns the :class:`RecoveryOutcome` of the one
        instance, with the error semantics of :meth:`recover_batch`; its
        vote vector is counted for this instance alone.
        """
        unknown = set(observations) - set(self._names)
        if unknown:
            raise RecoveryError(
                "observations for unknown machines: %r" % sorted(unknown)
            )
        reported = np.full((self.num_machines, 1), -1, dtype=np.int64)
        for m, name in enumerate(self._names):
            state = observations.get(name)
            if state is None:
                continue
            machine = self._machines_by_name[name]
            try:
                reported[m, 0] = machine.state_index(state)
            except UnknownStateError:
                raise RecoveryError(
                    "machine %r cannot be in state %r (not reachable alongside the top)"
                    % (name, state)
                ) from None
        outcome = self.recover_batch(
            reported, strict=strict, expected_max_faults=expected_max_faults
        )
        top_index = int(outcome.top_indices[0])
        machine_states = {
            name: self._machines_by_name[name].state_label(
                int(outcome.machine_states[m, 0])
            )
            for m, name in enumerate(self._names)
        }
        return RecoveryOutcome(
            top_state=self._product.state_tuple(top_index),
            top_index=top_index,
            counts=(self._assignments == reported).sum(axis=0),
            machine_states=machine_states,
            crashed=tuple(
                name for m, name in enumerate(self._names) if outcome.crashed[m, 0]
            ),
            suspected_byzantine=tuple(
                name
                for m, name in enumerate(self._names)
                if outcome.suspected_byzantine[m, 0]
            ),
        )

    def recover_from_crashes(
        self,
        observations: Mapping[str, Optional[StateLabel]],
        f: Optional[int] = None,
    ) -> RecoveryOutcome:
        """Recovery entry point when only crash faults are assumed."""
        return self.recover(observations, strict=True, expected_max_faults=f)

    def recover_from_byzantine(
        self, observations: Mapping[str, StateLabel]
    ) -> RecoveryOutcome:
        """Recovery entry point when Byzantine (lying) machines are assumed.

        All machines must report *some* state; the vote discounts the
        liars as long as at most ``⌊f/2⌋`` machines lie (Theorem 6).
        """
        missing = [
            name for name in self._names if observations.get(name) is None
        ]
        if missing:
            raise RecoveryError(
                "Byzantine recovery expects a reported state from every machine; "
                "missing: %r" % missing
            )
        return self.recover(observations, strict=True)


def recover_fleet(
    runtime: VectorizedRuntime,
    recovery: BatchRecovery,
    instances: Optional[Sequence[int]] = None,
    strict: bool = True,
    expected_max_faults: Optional[int] = None,
) -> BatchOutcome:
    """One batched recovery pass over a (subset of a) fleet.

    Collects the selected instances' reported states from ``runtime``,
    runs :meth:`BatchRecovery.recover_batch`, and restores every machine
    of every selected instance to its recovered state (crashed and lying
    machines included — the others are already there, so the write is a
    no-op for them).  Returns the :class:`BatchOutcome`.
    """
    if runtime.num_machines != recovery.num_machines:
        raise RecoveryError(
            "runtime has %d machines but the recovery engine knows %d"
            % (runtime.num_machines, recovery.num_machines)
        )
    selected = runtime.select_instances(instances)
    outcome = recovery.recover_batch(
        runtime.report_matrix(selected),
        strict=strict,
        expected_max_faults=expected_max_faults,
    )
    runtime.restore_matrix(outcome.machine_states, selected)
    return outcome
