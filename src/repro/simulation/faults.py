"""Fault plans and fault injection.

A :class:`FaultPlan` is a declarative description of which servers fail,
how (crash or Byzantine) and after which event of the global stream.
:class:`FaultInjector` builds plans — either explicitly or randomly under
the system's fault budget — and applies them during a simulation run.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.exceptions import SimulationError
from ..core.types import StateLabel

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.resilience import ChaosSpec
    from .fabric import NetworkChaosSpec

__all__ = ["FaultKind", "FaultEvent", "FaultPlan", "FaultInjector"]


class FaultKind(enum.Enum):
    """Every fault class the repo can inject.

    ``CRASH`` and ``BYZANTINE`` are the paper's system-model faults,
    scheduled against simulated servers by :class:`FaultPlan`.

    ``WORKER_KILL`` … ``KILL_BETWEEN_LEVELS`` target the *engine*
    running the fusion computation — they mirror
    :class:`repro.core.resilience.EngineFaultKind` (values match member
    for member) and are injected into pool workers via
    :meth:`FaultInjector.engine_chaos`, never into simulated servers.

    ``DROP`` … ``PARTITION`` target the *network* between the
    coordinator and the simulated servers — they mirror
    :class:`repro.simulation.fabric.NetworkFaultKind` and are injected
    into message deliveries via a seeded
    :class:`~repro.simulation.fabric.NetworkChaosSpec`
    (:meth:`FaultInjector.network_chaos`), never scheduled directly
    against servers.
    """

    CRASH = "crash"
    BYZANTINE = "byzantine"
    WORKER_KILL = "worker_kill"
    TASK_HANG = "task_hang"
    SLOW_TASK = "slow_task"
    KILL_DURING_WRITE = "kill_during_write"
    KILL_BETWEEN_LEVELS = "kill_between_levels"
    DISK_FULL = "disk_full"
    MEM_PRESSURE = "mem_pressure"
    DROP = "drop"
    DUPLICATE = "duplicate"
    REORDER = "reorder"
    DELAY = "delay"
    PARTITION = "partition"

    @property
    def targets_engine(self) -> bool:
        """True for faults aimed at the engine, not simulated servers."""
        return self in _ENGINE_KINDS

    @property
    def targets_network(self) -> bool:
        """True for faults aimed at message deliveries, not servers."""
        return self in _NETWORK_KINDS


_SERVER_KINDS = frozenset({FaultKind.CRASH, FaultKind.BYZANTINE})
_ENGINE_KINDS = frozenset(
    {
        FaultKind.WORKER_KILL,
        FaultKind.TASK_HANG,
        FaultKind.SLOW_TASK,
        FaultKind.KILL_DURING_WRITE,
        FaultKind.KILL_BETWEEN_LEVELS,
        FaultKind.DISK_FULL,
        FaultKind.MEM_PRESSURE,
    }
)
_NETWORK_KINDS = frozenset(
    {
        FaultKind.DROP,
        FaultKind.DUPLICATE,
        FaultKind.REORDER,
        FaultKind.DELAY,
        FaultKind.PARTITION,
    }
)


@dataclass(frozen=True)
class FaultEvent:
    """One scheduled fault.

    Attributes
    ----------
    server:
        Name of the server to fail.
    kind:
        Crash or Byzantine.
    after_event:
        Index into the global event stream after which the fault strikes
        (0 = before any event is applied).
    corrupt_to:
        For Byzantine faults, an optional explicit wrong state; a random
        wrong state is chosen when omitted.
    """

    server: str
    kind: FaultKind
    after_event: int
    corrupt_to: Optional[StateLabel] = None


@dataclass(frozen=True)
class FaultPlan:
    """An immutable collection of scheduled faults."""

    events: Tuple[FaultEvent, ...]

    def __post_init__(self) -> None:
        servers = [e.server for e in self.events]
        if len(set(servers)) != len(servers):
            raise SimulationError("a fault plan may fail each server at most once")
        networked = [e for e in self.events if e.kind in _NETWORK_KINDS]
        if networked:
            raise SimulationError(
                "network faults (%s) cannot be scheduled against servers; "
                "use FaultInjector.network_chaos instead"
                % ", ".join(sorted({e.kind.value for e in networked}))
            )
        misdirected = [e for e in self.events if e.kind not in _SERVER_KINDS]
        if misdirected:
            raise SimulationError(
                "engine faults (%s) cannot be scheduled against servers; "
                "use FaultInjector.engine_chaos instead"
                % ", ".join(sorted({e.kind.value for e in misdirected}))
            )

    @property
    def crash_count(self) -> int:
        return sum(1 for e in self.events if e.kind is FaultKind.CRASH)

    @property
    def byzantine_count(self) -> int:
        return sum(1 for e in self.events if e.kind is FaultKind.BYZANTINE)

    @property
    def servers(self) -> Tuple[str, ...]:
        return tuple(e.server for e in self.events)

    def faults_after(self, event_index: int) -> List[FaultEvent]:
        """Faults scheduled to strike right after ``event_index`` events."""
        return [e for e in self.events if e.after_event == event_index]

    def __len__(self) -> int:
        return len(self.events)


class FaultInjector:
    """Builds and validates fault plans for a simulation run.

    Parameters
    ----------
    server_names:
        Names of all servers in the system (originals and backups).
    seed:
        Seed for random plan generation and random corruption targets.
    """

    def __init__(self, server_names: Sequence[str], seed: Optional[int] = None) -> None:
        self._servers = tuple(server_names)
        if len(set(self._servers)) != len(self._servers):
            raise SimulationError("server names must be unique")
        self._rng = np.random.default_rng(seed)

    @property
    def rng(self) -> np.random.Generator:
        """The injector's random generator (shared with corruption picking)."""
        return self._rng

    # ------------------------------------------------------------------
    def explicit_plan(self, faults: Iterable[FaultEvent]) -> FaultPlan:
        """Validate an explicitly constructed plan against the server list."""
        events = tuple(faults)
        unknown = [e.server for e in events if e.server not in self._servers]
        if unknown:
            raise SimulationError("fault plan names unknown servers: %r" % unknown)
        return FaultPlan(events)

    def crash_plan(
        self, servers: Sequence[str], after_event: int
    ) -> FaultPlan:
        """Crash the named servers after ``after_event`` events."""
        return self.explicit_plan(
            FaultEvent(server=name, kind=FaultKind.CRASH, after_event=after_event)
            for name in servers
        )

    def byzantine_plan(
        self, servers: Sequence[str], after_event: int
    ) -> FaultPlan:
        """Byzantine-corrupt the named servers after ``after_event`` events."""
        return self.explicit_plan(
            FaultEvent(server=name, kind=FaultKind.BYZANTINE, after_event=after_event)
            for name in servers
        )

    def random_plan(
        self,
        num_crash: int,
        num_byzantine: int,
        workload_length: int,
        eligible: Optional[Sequence[str]] = None,
    ) -> FaultPlan:
        """A random plan with the requested numbers of crash/Byzantine faults.

        Fault times are drawn uniformly over the workload; distinct
        servers are chosen for every fault.
        """
        pool = list(eligible) if eligible is not None else list(self._servers)
        total = num_crash + num_byzantine
        if total > len(pool):
            raise SimulationError(
                "cannot schedule %d faults over %d eligible servers" % (total, len(pool))
            )
        chosen = list(self._rng.choice(len(pool), size=total, replace=False))
        events: List[FaultEvent] = []
        for position, pool_index in enumerate(chosen):
            kind = FaultKind.CRASH if position < num_crash else FaultKind.BYZANTINE
            events.append(
                FaultEvent(
                    server=pool[int(pool_index)],
                    kind=kind,
                    after_event=int(self._rng.integers(0, workload_length + 1)),
                )
            )
        return FaultPlan(tuple(events))

    # ------------------------------------------------------------------
    def engine_chaos(
        self,
        seed: int,
        worker_kill: float = 0.0,
        task_hang: float = 0.0,
        slow_task: float = 0.0,
        kill_during_write: float = 0.0,
        kill_between_levels: float = 0.0,
        disk_full: float = 0.0,
        mem_pressure: float = 0.0,
        stages: Optional[Sequence[str]] = None,
        max_faults: Optional[int] = None,
    ) -> "ChaosSpec":
        """A seeded chaos plan for the *engine* (pool workers and store).

        Engine faults strike the engine's own processes rather than the
        simulated servers, so they live in a
        :class:`repro.core.resilience.ChaosSpec` (handed to a
        :class:`repro.core.shm.SharedWorkerPool`, or set as
        ``REPRO_CHAOS``) instead of a :class:`FaultPlan`.
        ``worker_kill``/``task_hang``/``slow_task`` target pool workers;
        ``kill_during_write``/``kill_between_levels`` SIGKILL the owner
        process during an artifact-store commit or right after a
        descent-level checkpoint, exercising crash durability.
        ``disk_full``/``mem_pressure`` simulate resource exhaustion at
        the matching owner stages — a store commit that hits ENOSPC, a
        merge that must spill to scratch —
        exercising the resource governor's degradation paths
        (:mod:`repro.core.budget`).  The spec's draws are deterministic
        in ``seed``, exactly like :meth:`random_plan` is in the
        injector's seed.
        """
        from ..core.resilience import ChaosSpec, EngineFaultKind

        return ChaosSpec(
            {
                EngineFaultKind.WORKER_KILL: worker_kill,
                EngineFaultKind.TASK_HANG: task_hang,
                EngineFaultKind.SLOW_TASK: slow_task,
                EngineFaultKind.KILL_DURING_WRITE: kill_during_write,
                EngineFaultKind.KILL_BETWEEN_LEVELS: kill_between_levels,
                EngineFaultKind.DISK_FULL: disk_full,
                EngineFaultKind.MEM_PRESSURE: mem_pressure,
            },
            stages=tuple(stages) if stages is not None else None,
            max_faults=max_faults,
            seed=seed,
        )

    def network_chaos(
        self,
        seed: int,
        drop: float = 0.0,
        duplicate: float = 0.0,
        reorder: float = 0.0,
        delay: float = 0.0,
        partition: float = 0.0,
        max_delay_ticks: int = 3,
        partition_ticks: int = 6,
        servers: Optional[Sequence[str]] = None,
        max_faults: Optional[int] = None,
    ) -> "NetworkChaosSpec":
        """A seeded chaos plan for the *network* between coordinator and servers.

        Network faults strike message deliveries rather than the servers
        themselves, so they live in a
        :class:`~repro.simulation.fabric.NetworkChaosSpec` handed to the
        :class:`~repro.simulation.fabric.NetworkFabric` instead of a
        :class:`FaultPlan`.  The probabilities give the per-delivery
        chance of a drop, duplication, reordering (deferred stale copy),
        bounded delay, or link partition; ``servers`` restricts
        injection to the named links; ``max_faults`` bounds the total
        faults injected.  The spec's draws are deterministic in
        ``seed``, exactly like :meth:`random_plan` is in the injector's
        seed.
        """
        from .fabric import NetworkChaosSpec, NetworkFaultKind

        named = tuple(servers) if servers is not None else None
        if named is not None:
            unknown = [name for name in named if name not in self._servers]
            if unknown:
                raise SimulationError(
                    "network chaos names unknown servers: %r" % unknown
                )
        return NetworkChaosSpec(
            {
                NetworkFaultKind.DROP: drop,
                NetworkFaultKind.DUPLICATE: duplicate,
                NetworkFaultKind.REORDER: reorder,
                NetworkFaultKind.DELAY: delay,
                NetworkFaultKind.PARTITION: partition,
            },
            max_delay_ticks=max_delay_ticks,
            partition_ticks=partition_ticks,
            servers=named,
            max_faults=max_faults,
            seed=seed,
        )
