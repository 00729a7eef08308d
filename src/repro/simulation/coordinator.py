"""The recovery coordinator: detects faults and restores execution state.

The coordinator polls the servers for their reported states and runs
Algorithm 3 (via :class:`repro.core.runtime.BatchRecovery`) to rebuild
the top state, from which every server — crashed or lying — is restored.
It supports both backup disciplines so the simulator can compare them:

* **fusion** mode: the backups are fusion machines ≤ the top;
* **replication** mode: the backups are copies, handled by
  :class:`repro.core.replication.ReplicatedSystem`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Sequence, Tuple

from ..core.dfsm import DFSM
from ..core.exceptions import SimulationError
from ..core.product import CrossProduct
from ..core.recovery import RecoveryOutcome
from ..core.replication import ReplicatedSystem
from ..core.runtime import BatchRecovery
from ..core.types import StateLabel
from .server import Server, ServerStatus

__all__ = ["CoordinatorReport", "FusionCoordinator", "ReplicationCoordinator"]


@dataclass(frozen=True)
class CoordinatorReport:
    """What a recovery pass did.

    Attributes
    ----------
    restored:
        Server name -> state written back by the coordinator.
    crashed:
        Servers that had crashed (state lost) before recovery.
    suspected_byzantine:
        Servers whose reported state was inconsistent with the recovered
        global state.
    top_state:
        The recovered top state (fusion mode only).
    """

    restored: Dict[str, StateLabel]
    crashed: Tuple[str, ...]
    suspected_byzantine: Tuple[str, ...]
    top_state: Optional[Tuple[StateLabel, ...]] = None


class FusionCoordinator:
    """Recovery coordinator for a fusion-protected system.

    Parameters
    ----------
    product:
        Reachable cross product of the original machines.
    backups:
        The fusion machines.
    """

    def __init__(self, product: CrossProduct, backups: Sequence[DFSM]) -> None:
        self._engine = BatchRecovery(product, backups)

    @property
    def engine(self) -> BatchRecovery:
        """The Algorithm 3 vote engine over the originals and backups."""
        return self._engine

    def collect_reports(self, servers: Mapping[str, Server]) -> Dict[str, Optional[StateLabel]]:
        """Ask every server for its state (``None`` for crashed ones)."""
        return {name: server.report_state() for name, server in servers.items()}

    def recover(
        self,
        servers: Mapping[str, Server],
        max_faults: Optional[int] = None,
    ) -> CoordinatorReport:
        """Run Algorithm 3 and restore every server to its correct state."""
        observations = self.collect_reports(servers)
        outcome: RecoveryOutcome = self._engine.recover(
            observations, strict=True, expected_max_faults=max_faults
        )
        restored: Dict[str, StateLabel] = {}
        for name, server in servers.items():
            correct = outcome.machine_states[name]
            needs_restore = (
                server.status is not ServerStatus.HEALTHY
                or server.report_state() != correct
            )
            if needs_restore:
                server.restore(correct)
                restored[name] = correct
        return CoordinatorReport(
            restored=restored,
            crashed=outcome.crashed,
            suspected_byzantine=outcome.suspected_byzantine,
            top_state=outcome.top_state,
        )


class ReplicationCoordinator:
    """Recovery coordinator for a replication-protected system.

    Recovery restores every instance of a group to the group's agreed
    state (any survivor under the crash model, the majority under the
    Byzantine model).
    """

    def __init__(self, replicated: ReplicatedSystem) -> None:
        self._system = replicated

    @property
    def system(self) -> ReplicatedSystem:
        return self._system

    def collect_reports(self, servers: Mapping[str, Server]) -> Dict[str, Optional[StateLabel]]:
        return {name: server.report_state() for name, server in servers.items()}

    def recover(self, servers: Mapping[str, Server]) -> CoordinatorReport:
        """Restore every server from its group's surviving/majority state."""
        observations = self.collect_reports(servers)
        outcome = self._system.recover(observations)
        restored: Dict[str, StateLabel] = {}
        crashed = tuple(
            name for name, server in servers.items() if server.status is ServerStatus.CRASHED
        )
        for name, server in servers.items():
            group = self._system.group_of(name)
            correct = outcome.machine_states[group]
            if server.status is not ServerStatus.HEALTHY or server.report_state() != correct:
                server.restore(correct)
                restored[name] = correct
        return CoordinatorReport(
            restored=restored,
            crashed=crashed,
            suspected_byzantine=outcome.suspected_byzantine,
            top_state=None,
        )
