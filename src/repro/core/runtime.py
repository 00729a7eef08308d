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

* :class:`BatchRecovery` re-implements Algorithm 3 as a counting vote
  over each machine's top→state assignment: per call and per machine it
  builds a 0/1 table with one row per *distinct* reported state (at most
  ``min(n_m + 1, B)`` rows, the crash row all zero) and adds one table
  row per instance into the ``(B, |top|)`` vote matrix, so recovering
  ``B`` faulty instances is a handful of gathers instead of ``B`` Python
  dict walks, with memory bounded by the vote matrix itself.  It
  reproduces :class:`~repro.core.recovery.RecoveryEngine`
  outcome-for-outcome — including the strict-tie, fault-budget and
  all-crashed error paths and the Byzantine ``⌊f/2⌋`` majority — which
  the property suite asserts directly.

Both engines treat per-instance faults with the simulator's exact
semantics: a crashed machine's visible state is the sentinel ``-1``
(its true state keeps evolving), a Byzantine machine keeps stepping
from its corrupted state.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

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


#: Integer status codes, one per instance and machine.  They mirror
#: :class:`repro.simulation.server.ServerStatus` member for member so a
#: simulated server can live directly on a runtime column.
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
# Pool tasks (module-level for pickling; pure functions of the published
# arrays and their arguments, so healed replays are byte-identical)
# ----------------------------------------------------------------------
def _runtime_stream_task(
    scratch_meta: Dict[str, object],
    comp: np.ndarray,
    num_machines: int,
    num_instances: int,
    lo: int,
    hi: int,
) -> np.ndarray:
    """Apply a composed per-machine ``state -> state`` map to one slice.

    The true/visible state matrices travel through the scratch; the
    composed maps are small (``(M, max_n)``) and ride in the task
    arguments.  Crashed cells (visible ``-1``) are left untouched.
    Returns the updated ``(2, M, width)`` slab; the owner writes it back.
    """
    data = attached_arrays(scratch_meta)["data"]
    total = num_machines * num_instances
    true = data[:total].reshape(num_machines, num_instances)[:, lo:hi]
    visible = data[total : 2 * total].reshape(num_machines, num_instances)[:, lo:hi]
    out = np.empty((2, num_machines, hi - lo), dtype=data.dtype)
    for m in range(num_machines):
        cm = comp[m]
        out[0, m] = cm[true[m]]
        vis = visible[m].copy()
        alive = vis >= 0
        vis[alive] = cm[vis[alive]]
        out[1, m] = vis
    return out


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
    scratch.  The worker copies its slice before stepping — the scratch
    stays read-only to tasks, so a healed replay sees the original
    payload.  Returns the ``(2, M, width)`` slab of final states.
    """
    tables = attached_arrays(tables_meta)["tables"]
    data = attached_arrays(scratch_meta)["data"]
    total = num_machines * num_instances
    true = data[:total].reshape(num_machines, num_instances)[:, lo:hi].copy()
    visible = (
        data[total : 2 * total].reshape(num_machines, num_instances)[:, lo:hi].copy()
    )
    events = data[2 * total : 2 * total + num_steps * num_instances].reshape(
        num_steps, num_instances
    )[:, lo:hi]
    for t in range(num_steps):
        e = events[t]
        for m in range(num_machines):
            tm = tables[m]
            true[m] = tm[true[m], e]
            vis = visible[m]
            alive = vis >= 0
            vis[alive] = tm[vis[alive], e[alive]]
    return np.stack([true, visible])


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
    ``(M, max_n, K)`` array that is published once per pool lifetime.
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

        tables = np.zeros((num_machines, max_states, num_events), dtype=dtype)
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
                np.arange(self._max_states, dtype=self._dtype)[None, :],
                self.num_machines,
                axis=0,
            )
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
            self._apply_matrix_serial(matrix)
        self._events_applied += matrix.shape[0]

    def _apply_matrix_serial(self, matrix: np.ndarray) -> None:
        for t in range(matrix.shape[0]):
            e = matrix[t]
            for m in range(self.num_machines):
                tm = self._tables[m]
                self._true[m] = tm[self._true[m], e]
                vis = self._visible[m]
                alive = vis >= 0
                vis[alive] = tm[vis[alive], e[alive]]

    def _apply_composed(self, comp: np.ndarray) -> None:
        if self._pooled_route() and self._apply_composed_pooled(comp):
            return
        for m in range(self.num_machines):
            cm = comp[m]
            self._true[m] = cm[self._true[m]]
            vis = self._visible[m]
            alive = vis >= 0
            vis[alive] = cm[vis[alive]]

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
            meta, _length = self._ensure_scratch().write(payload)
            tables_meta = self._tables_meta()
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
    # Single-cell accessors (the simulation's VectorServer lives on one
    # column; these keep Server's per-server semantics byte-compatible)
    # ------------------------------------------------------------------
    def visible_index(self, machine_index: int, instance: int) -> int:
        return int(self._visible[machine_index, instance])

    def set_visible_index(self, machine_index: int, instance: int, value: int) -> None:
        self._visible[machine_index, instance] = value

    def true_index(self, machine_index: int, instance: int) -> int:
        return int(self._true[machine_index, instance])

    def set_true_index(self, machine_index: int, instance: int, value: int) -> None:
        self._true[machine_index, instance] = value

    def status_code(self, machine_index: int, instance: int) -> int:
        return int(self._status[machine_index, instance])

    def set_status_code(self, machine_index: int, instance: int, code: int) -> None:
        self._status[machine_index, instance] = code

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
@dataclass(frozen=True)
class BatchOutcome:
    """Result of one batched Algorithm-3 pass over ``B`` instances.

    Attributes
    ----------
    top_indices:
        ``(B,)`` recovered top-state index per instance.
    counts:
        ``(B, |top|)`` vote matrix.
    machine_states:
        ``(M, B)`` recovered state index of every machine.
    crashed:
        ``(M, B)`` boolean: machine reported no state.
    suspected_byzantine:
        ``(M, B)`` boolean: machine's report does not contain the winner.
    """

    top_indices: np.ndarray
    counts: np.ndarray
    machine_states: np.ndarray
    crashed: np.ndarray
    suspected_byzantine: np.ndarray

    @property
    def num_instances(self) -> int:
        return int(self.top_indices.shape[0])


class BatchRecovery:
    """Algorithm 3 as batched array votes, API-compatible with
    :class:`~repro.core.recovery.RecoveryEngine` for single instances.

    For every machine (originals in product order, then backups, with
    the same ``name#2`` deduplication as the per-instance engine) the
    constructor precomputes the top→machine-state assignment — the
    product's projections for originals, Algorithm 1's lockstep
    assignment (:func:`repro.core.partition.machine_assignment`) for
    backups.  Machine state ``s`` represents the block of top states
    assigned to ``s``; :meth:`recover_batch` votes by comparing the
    assignment against the distinct states a cohort reports.
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

        self._assignments = tuple(assignments)
        # A state is reachable alongside the top iff some top state maps to it.
        self._valid = tuple(
            np.bincount(assignment, minlength=machine.num_states) > 0
            for assignment, machine in zip(assignments, machines)
        )

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
        rows in :attr:`machine_names` order.  Error semantics match the
        per-instance engine: a reported state not co-reachable with the
        top, an all-crashed instance, a crash count above
        ``expected_max_faults`` or (under ``strict``) a tied vote raise
        the same exception types.
        """
        matrix = np.asarray(reported, dtype=np.int64)
        if matrix.ndim == 1:
            matrix = matrix[:, None]
        if matrix.ndim != 2 or matrix.shape[0] != self.num_machines:
            raise RecoveryError(
                "reported matrix must be (num_machines=%d, num_instances), got %r"
                % (self.num_machines, matrix.shape)
            )
        num_machines, batch = matrix.shape
        crashed = matrix < 0

        for m, (name, machine) in enumerate(
            zip(self._names, self._machine_list)
        ):
            if matrix[m].size and matrix[m].min() < -1:
                raise RecoveryError(
                    "machine %r reported state index %d (only -1 marks a crash)"
                    % (name, int(matrix[m].min()))
                )
            live = matrix[m][~crashed[m]]
            if live.size == 0:
                continue
            if live.max() >= machine.num_states:
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

        counts = np.zeros((batch, self._num_top), dtype=np.int16)
        for m, (assignment, machine) in enumerate(
            zip(self._assignments, self._machine_list)
        ):
            # Slot 0 is the crash sentinel, slot s + 1 is state s.
            slots = matrix[m] + 1
            present = np.bincount(slots, minlength=machine.num_states + 1) > 0
            distinct = np.flatnonzero(present) - 1
            table = (assignment == distinct[:, None]).astype(np.int16)
            counts += table[np.cumsum(present)[slots] - 1]

        best = counts.max(axis=1)
        winners = counts.argmax(axis=1)
        if strict:
            ambiguous = (counts == best[:, None]).sum(axis=1) > 1
            if ambiguous.any():
                instance = int(ambiguous.argmax())
                tied = np.nonzero(counts[instance] == best[instance])[0]
                raise RecoveryError(
                    "ambiguous recovery: top states %s tie with %d votes each "
                    "(more faults than the system tolerates?)"
                    % (tied.tolist(), int(best[instance]))
                )

        machine_states = np.stack(
            [assignment[winners] for assignment in self._assignments]
        )
        # A live machine is suspect iff the winner is not in its block.
        suspected = ~crashed & (machine_states != matrix)
        return BatchOutcome(
            top_indices=winners.astype(np.int64),
            counts=counts,
            machine_states=machine_states,
            crashed=crashed,
            suspected_byzantine=suspected,
        )

    # ------------------------------------------------------------------
    def recover(
        self,
        observations: Mapping[str, Optional[StateLabel]],
        strict: bool = True,
        expected_max_faults: Optional[int] = None,
    ) -> RecoveryOutcome:
        """Single-instance Algorithm 3 with the per-instance engine's API.

        Accepts the same ``name -> state label (or None)`` observation
        mapping as :meth:`RecoveryEngine.recover` and returns the same
        :class:`RecoveryOutcome`, so coordinators can swap engines.
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
            counts=outcome.counts[0].astype(np.int64),
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
        """Recovery entry point when Byzantine (lying) machines are assumed."""
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
