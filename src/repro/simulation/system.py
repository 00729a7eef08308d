"""End-to-end distributed-system simulation.

:class:`DistributedSystem` wires together the pieces of the paper's
system model: original machines and their backups run as
:class:`~repro.simulation.server.Server` s, an environment broadcasts a
globally ordered event stream to all of them, a
:class:`~repro.simulation.faults.FaultPlan` injects crash/Byzantine
faults mid-stream, the environment pauses while the coordinator recovers
the lost/incorrect states, and execution resumes.  At the end the run is
verified against ground truth and summarised in a
:class:`SimulationReport`.

Two factory constructors cover the paper's comparison:
:meth:`DistributedSystem.with_fusion_backups` (Algorithm 2 backups and
Algorithm 3 recovery) and :meth:`DistributedSystem.with_replication`
(the baseline).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from ..core.dfsm import DFSM
from ..core.exceptions import SimulationError
from ..core.fusion import FusionResult, generate_fusion
from ..core.product import CrossProduct
from ..core.replication import ReplicatedSystem
from ..core.types import EventLabel, StateLabel
from ..core.exceptions import FaultBudgetExceededError
from .coordinator import CoordinatorReport, FusionCoordinator, ReplicationCoordinator
from .fabric import NetworkChaosSpec, NetworkFabric, network_chaos_from_env
from .faults import FaultEvent, FaultKind, FaultPlan
from .server import Server, ServerStatus
from .supervisor import FleetStatus, FleetSupervisor, SupervisorReport
from .trace import ExecutionTrace

__all__ = ["SimulationReport", "DistributedSystem"]


@dataclass(frozen=True)
class SimulationReport:
    """Summary of one simulated run.

    Attributes
    ----------
    events_applied:
        Length of the global event stream that was executed.
    faults_injected:
        Number of faults that struck during the run.
    recoveries:
        Number of recovery passes the coordinator executed.
    recovered_servers:
        Names of servers whose state the coordinator had to restore.
    consistent:
        True when, at the end of the run, every server's state equals the
        ground-truth state of its machine.
    backup_scheme:
        ``"fusion"``, ``"replication"`` or ``"none"``.
    num_backups / backup_state_space:
        Size of the backup fleet, for cost comparisons.
    trace:
        The full execution trace.
    status:
        ``"healthy"``, or ``"degraded"`` when a supervised run breached
        its fault budget and recovery was refused.
    culprits:
        The machines the supervisor blamed for a degraded run.
    delivery:
        Per-outcome delivery-attempt counts of the network fabric
        (``None`` when the run had no fabric).
    """

    events_applied: int
    faults_injected: int
    recoveries: int
    recovered_servers: Tuple[str, ...]
    consistent: bool
    backup_scheme: str
    num_backups: int
    backup_state_space: int
    trace: ExecutionTrace
    status: str = "healthy"
    culprits: Tuple[str, ...] = ()
    delivery: Optional[Dict[str, int]] = None


class DistributedSystem:
    """A simulated distributed system of DFSM servers with backups.

    Most callers should use one of the factory constructors:

    >>> from repro.machines import fig1_counter_a, fig1_counter_b
    >>> system = DistributedSystem.with_fusion_backups(
    ...     [fig1_counter_a(), fig1_counter_b()], f=1)
    >>> report = system.run([0, 1, 0, 0], fault_plan=None)
    >>> report.consistent
    True
    """

    def __init__(
        self,
        originals: Sequence[DFSM],
        backups: Sequence[DFSM],
        coordinator: Union[FusionCoordinator, ReplicationCoordinator, None],
        backup_scheme: str,
        backup_state_space: int,
        max_faults: Optional[int] = None,
        network: Optional[NetworkChaosSpec] = None,
        supervised: bool = False,
        heartbeat_interval: Optional[int] = None,
    ) -> None:
        if not originals:
            raise SimulationError("a distributed system needs at least one original machine")
        names = [m.name for m in list(originals) + list(backups)]
        if len(set(names)) != len(names):
            raise SimulationError("machine names must be unique across originals and backups")
        self._originals = tuple(originals)
        self._backups = tuple(backups)
        self._servers: Dict[str, Server] = {
            machine.name: Server(machine) for machine in (*originals, *backups)
        }
        self._coordinator = coordinator
        self._backup_scheme = backup_scheme
        self._backup_state_space = backup_state_space
        self._max_faults = max_faults
        self._trace = ExecutionTrace()
        self._steps = 0
        if network is None:
            network = network_chaos_from_env()
        self._fabric: Optional[NetworkFabric] = (
            NetworkFabric(self._servers, chaos=network, trace=self._trace)
            if network is not None
            else None
        )
        if heartbeat_interval is not None and heartbeat_interval < 1:
            raise SimulationError("heartbeat_interval must be at least 1 event")
        if heartbeat_interval is not None and self._fabric is None:
            raise SimulationError("heartbeats need a network fabric (pass network=...)")
        self._heartbeat_interval = heartbeat_interval
        if supervised and not isinstance(coordinator, FusionCoordinator):
            raise SimulationError(
                "supervised mode needs a fusion coordinator (the budget "
                "cross-check votes over fused backups)"
            )
        self._supervisor: Optional[FleetSupervisor] = (
            FleetSupervisor(coordinator, f=max_faults or 0, trace=self._trace)
            if supervised and isinstance(coordinator, FusionCoordinator)
            else None
        )

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def with_fusion_backups(
        cls,
        machines: Sequence[DFSM],
        f: int,
        byzantine: bool = False,
        fusion: Optional[FusionResult] = None,
        engine: Optional[str] = None,
        network: Optional[NetworkChaosSpec] = None,
        supervised: bool = False,
        heartbeat_interval: Optional[int] = None,
    ) -> "DistributedSystem":
        """Build a system protected by Algorithm-2 fusion backups.

        A pre-computed :class:`FusionResult` can be passed to avoid
        regenerating the backups.  ``network`` routes the event broadcast
        through an adversarial :class:`~repro.simulation.fabric.NetworkFabric`
        with the given seeded chaos; ``supervised`` puts a
        :class:`~repro.simulation.supervisor.FleetSupervisor` in charge of
        recovery, enforcing the live fault budget; ``heartbeat_interval``
        makes the fabric probe every server every that many events.
        ``engine`` is accepted and ignored: the benchmark's traced run
        still passes ``engine="vectorized"``, and the keyword goes when
        the benchmark stops passing it.
        """
        if fusion is None:
            fusion = generate_fusion(machines, f, byzantine=byzantine)
        coordinator = FusionCoordinator(fusion.product, fusion.backups)
        return cls(
            originals=fusion.originals,
            backups=fusion.backups,
            coordinator=coordinator,
            backup_scheme="fusion",
            backup_state_space=fusion.fusion_state_space,
            max_faults=fusion.f if not byzantine else fusion.byzantine_f,
            network=network,
            supervised=supervised,
            heartbeat_interval=heartbeat_interval,
        )

    @classmethod
    def with_replication(
        cls,
        machines: Sequence[DFSM],
        f: int,
        byzantine: bool = False,
        network: Optional[NetworkChaosSpec] = None,
    ) -> "DistributedSystem":
        """Build a system protected by the replication baseline."""
        replicated = ReplicatedSystem(machines, f, byzantine=byzantine)
        coordinator = ReplicationCoordinator(replicated)
        return cls(
            originals=replicated.originals,
            backups=replicated.replicas,
            coordinator=coordinator,
            backup_scheme="replication",
            backup_state_space=replicated.backup_state_space,
            max_faults=f,
            network=network,
        )

    @classmethod
    def unprotected(
        cls,
        machines: Sequence[DFSM],
        network: Optional[NetworkChaosSpec] = None,
    ) -> "DistributedSystem":
        """A system with no backups (recovery impossible; useful as a control)."""
        return cls(
            originals=machines,
            backups=(),
            coordinator=None,
            backup_scheme="none",
            backup_state_space=0,
            max_faults=0,
            network=network,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def servers(self) -> Mapping[str, Server]:
        return dict(self._servers)

    @property
    def originals(self) -> Tuple[DFSM, ...]:
        return self._originals

    @property
    def backups(self) -> Tuple[DFSM, ...]:
        return self._backups

    @property
    def backup_scheme(self) -> str:
        return self._backup_scheme

    @property
    def trace(self) -> ExecutionTrace:
        return self._trace

    @property
    def fabric(self) -> Optional[NetworkFabric]:
        """The adversarial network fabric (``None`` = perfect direct links)."""
        return self._fabric

    @property
    def supervisor(self) -> Optional[FleetSupervisor]:
        """The fault-budget supervisor (``None`` in unsupervised mode)."""
        return self._supervisor

    def server(self, name: str) -> Server:
        try:
            return self._servers[name]
        except KeyError:
            raise SimulationError("unknown server %r" % name) from None

    def server_names(self) -> Tuple[str, ...]:
        return tuple(self._servers)

    def original_server_names(self) -> Tuple[str, ...]:
        return tuple(m.name for m in self._originals)

    def states(self) -> Dict[str, Optional[StateLabel]]:
        """Currently reported state of every server."""
        return {name: server.report_state() for name, server in self._servers.items()}

    def is_consistent(self) -> bool:
        """True when every server's visible state matches ground truth."""
        return all(server.is_consistent() for server in self._servers.values())

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def apply_event(self, event: EventLabel) -> None:
        """Broadcast one event of the global order to every server.

        Each server steps its own machine (crashed servers keep only
        their ground truth moving).  With a network fabric, the
        broadcast instead travels the adversarial
        links — per-server retries, sequence numbers and exactly-once
        application — and a server whose link dies is crashed (visible
        in :meth:`NetworkFabric.take_new_deaths
        <repro.simulation.fabric.NetworkFabric.take_new_deaths>`).
        """
        if self._fabric is not None:
            step = self._steps + 1
            self._fabric.broadcast(event, step)
            self._steps = step
            self._trace.record_event(step, event)
            return
        for server in self._servers.values():
            server.apply(event)
        self._steps += 1
        self._trace.record_event(self._steps, event)

    def inject_fault(self, fault: FaultEvent, rng: Optional[np.random.Generator] = None) -> None:
        """Apply one fault from a plan to the named server."""
        server = self.server(fault.server)
        if fault.kind is FaultKind.CRASH:
            server.crash()
            self._trace.record_fault(self._steps, fault.server, "crash")
        else:
            corrupted = server.corrupt(rng=rng, target=fault.corrupt_to)
            self._trace.record_fault(
                self._steps,
                fault.server,
                "byzantine",
                detail="corrupted to %r" % (corrupted,),
                target=corrupted,
            )

    def recover(self) -> Union[CoordinatorReport, SupervisorReport]:
        """Run a recovery pass through the coordinator.

        In supervised mode the pass goes through the
        :class:`~repro.simulation.supervisor.FleetSupervisor`, which
        weighs the observed fault mix against the budget *before*
        restoring and raises
        :class:`~repro.core.exceptions.FaultBudgetExceededError` (naming
        the culprits) rather than ever writing back a possibly-wrong
        state.
        """
        if self._coordinator is None:
            raise SimulationError("this system has no backups; recovery is impossible")
        if self._supervisor is not None:
            # The supervisor records the recovery (or the degradation)
            # in the trace itself.
            return self._supervisor.oversee(self._servers, step=self._steps)
        if isinstance(self._coordinator, FusionCoordinator):
            report = self._coordinator.recover(self._servers, max_faults=self._max_faults)
        else:
            report = self._coordinator.recover(self._servers)
        self._trace.record_recovery(
            self._steps, report.restored, report.suspected_byzantine
        )
        return report

    def run(
        self,
        workload: Sequence[EventLabel],
        fault_plan: Optional[FaultPlan] = None,
        rng: Optional[np.random.Generator | int] = None,
        recover_immediately: bool = True,
    ) -> SimulationReport:
        """Execute a workload with optional fault injection and recovery.

        The environment's stop-on-fault rule is modelled by performing the
        recovery pass synchronously (before the next event is delivered)
        whenever ``recover_immediately`` is true; with it false, all
        faults accumulate and a single recovery pass runs at the end of
        the workload (this must still be within the system's fault budget
        to succeed).

        With a network fabric, a link the fabric declared dead counts as
        one more crash fault and triggers recovery like any planned
        crash; with ``heartbeat_interval`` set, the fabric additionally
        probes the fleet every that many events, so even a crash no
        message delivery would notice is detected.  In supervised mode a
        fault-budget breach does not raise out of ``run``: the run stops
        degrading gracefully and the report carries
        ``status="degraded"`` with the culprit machines named (direct
        :meth:`recover` calls do raise).
        """
        generator = (
            rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
        )
        faults_injected = 0
        recoveries = 0
        recovered_servers: List[str] = []
        pending_recovery = False
        degraded = False
        culprits: Tuple[str, ...] = ()
        applied_count = 0

        def strike(after_index: int) -> None:
            nonlocal faults_injected, pending_recovery
            if fault_plan is None:
                return
            for fault in fault_plan.faults_after(after_index):
                self.inject_fault(fault, rng=generator)
                faults_injected += 1
                pending_recovery = True

        def observe_network(event_index: int) -> None:
            nonlocal faults_injected, pending_recovery
            if self._fabric is None:
                return
            deaths = self._fabric.take_new_deaths()
            if deaths:
                faults_injected += len(deaths)
                pending_recovery = True
            if (
                self._heartbeat_interval is not None
                and event_index % self._heartbeat_interval == 0
            ):
                if self._fabric.heartbeat(self._steps):
                    pending_recovery = True

        def try_recover() -> bool:
            """One recovery pass; returns False when the run must degrade."""
            nonlocal recoveries, pending_recovery, degraded, culprits
            try:
                report = self.recover()
            except FaultBudgetExceededError as exc:
                degraded = True
                culprits = exc.culprits
                pending_recovery = False
                return False
            recovered_servers.extend(report.restored)
            recoveries += 1
            pending_recovery = False
            return True

        strike(0)
        observe_network(0)
        if pending_recovery and recover_immediately and self._coordinator is not None:
            try_recover()

        if not degraded:
            for index, event in enumerate(workload, start=1):
                self.apply_event(event)
                applied_count += 1
                strike(index)
                observe_network(index)
                if (
                    pending_recovery
                    and recover_immediately
                    and self._coordinator is not None
                ):
                    if not try_recover():
                        break

        if not degraded and pending_recovery and self._coordinator is not None:
            try_recover()

        consistent = self.is_consistent()
        self._trace.record_verification(
            self._steps, consistent,
            "degraded: budget exceeded" if degraded else "",
        )
        return SimulationReport(
            events_applied=applied_count,
            faults_injected=faults_injected,
            recoveries=recoveries,
            recovered_servers=tuple(recovered_servers),
            consistent=consistent,
            backup_scheme=self._backup_scheme,
            num_backups=len(self._backups),
            backup_state_space=self._backup_state_space,
            trace=self._trace,
            status="degraded" if degraded else "healthy",
            culprits=culprits,
            delivery=(
                self._trace.delivery_summary() if self._fabric is not None else None
            ),
        )
