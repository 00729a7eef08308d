"""The fleet supervisor: live fault-budget accounting over recovery.

:class:`FleetSupervisor` sits between the simulated system and its
recovery coordinator and enforces the paper's theorems *operationally*:

* it tracks the **live fault budget** — observed crashes plus suspected
  Byzantine liars, weighed by
  :class:`repro.core.fault_tolerance.FaultBudget` (a liar costs two
  crash units, Theorems 1–2) — against the ``f`` the fusion was built
  for;
* it **cross-checks server reports against the fused backups**: the
  Algorithm-3 vote over block membership is exactly the Theorem-2
  majority argument, so any server whose reported state contradicts the
  winning top state is flagged a liar;
* it triggers recovery automatically, through the coordinator's
  :class:`~repro.core.runtime.BatchRecovery` vote;
* it **degrades gracefully past the budget**: when the observed fault
  mix exceeds what the fusion tolerates, the vote's majority argument is
  no longer sound, so instead of restoring possibly-wrong states the
  supervisor marks the fleet :attr:`FleetStatus.DEGRADED` and raises a
  typed :class:`~repro.core.exceptions.FaultBudgetExceededError` naming
  the culprit machines.  A recovery is either provably correct or
  loudly refused — never silently wrong.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Tuple

from ..core.exceptions import (
    FaultBudgetExceededError,
    FaultToleranceExceededError,
    RecoveryError,
)
from ..core.fault_tolerance import FaultBudget
from ..core.recovery import RecoveryOutcome
from ..core.types import StateLabel
from .coordinator import FusionCoordinator
from .server import Server, ServerStatus
from .trace import ExecutionTrace

__all__ = ["FleetStatus", "SupervisorReport", "FleetSupervisor"]


class FleetStatus(enum.Enum):
    """Health of the supervised fleet."""

    HEALTHY = "healthy"
    DEGRADED = "degraded"


@dataclass(frozen=True)
class SupervisorReport:
    """What one supervised recovery pass observed and did.

    Attributes
    ----------
    status:
        Fleet health after the pass (:attr:`FleetStatus.DEGRADED` means
        the pass refused to restore).
    crashed:
        Servers observed crashed (no reported state) this pass.
    suspected_byzantine:
        Servers whose reports the Theorem-2 cross-check flagged as lies.
    restored:
        Server name -> state written back (empty when degraded).
    weight:
        Budget units the observed fault mix consumed
        (``crashes + 2 · liars``).
    budget:
        The ``f`` the weight is measured against.
    """

    status: FleetStatus
    crashed: Tuple[str, ...]
    suspected_byzantine: Tuple[str, ...]
    restored: Dict[str, StateLabel]
    weight: int
    budget: int

    @property
    def within_budget(self) -> bool:
        return self.weight <= self.budget


class FleetSupervisor:
    """Supervises recovery of a fusion-protected fleet under a fault budget.

    Parameters
    ----------
    coordinator:
        The fusion coordinator whose vote engine performs Algorithm 3.
        (Replication mode needs no supervisor: its majority groups carry
        their own budget.)
    f:
        The number of crash faults the fusion was built to tolerate;
        defines the budget (``f`` crashes, ``⌊f/2⌋`` liars, mixes at two
        units per liar).
    trace:
        When given, every supervised pass appends its verdict to the
        trace.
    """

    def __init__(
        self,
        coordinator: FusionCoordinator,
        f: int,
        trace: Optional[ExecutionTrace] = None,
    ) -> None:
        self._coordinator = coordinator
        self._budget = FaultBudget(f)
        self._trace = trace
        self._status = FleetStatus.HEALTHY
        self._culprits: Tuple[str, ...] = ()
        self._degraded_reason: Optional[str] = None
        self._total_crashes = 0
        self._total_liars = 0
        self._passes = 0

    # ------------------------------------------------------------------
    @property
    def budget(self) -> FaultBudget:
        return self._budget

    @property
    def status(self) -> FleetStatus:
        return self._status

    @property
    def culprits(self) -> Tuple[str, ...]:
        """The machines blamed when the fleet degraded (empty if healthy)."""
        return self._culprits

    @property
    def degraded_reason(self) -> Optional[str]:
        return self._degraded_reason

    @property
    def total_crashes_observed(self) -> int:
        """Crashes seen across all supervised passes."""
        return self._total_crashes

    @property
    def total_liars_detected(self) -> int:
        """Byzantine liars flagged across all supervised passes."""
        return self._total_liars

    @property
    def passes(self) -> int:
        return self._passes

    # ------------------------------------------------------------------
    def _degrade(self, reason: str, culprits: Tuple[str, ...], step: int) -> None:
        self._status = FleetStatus.DEGRADED
        self._culprits = culprits
        self._degraded_reason = reason
        if self._trace is not None:
            self._trace.record_note(
                step, "DEGRADED: %s (culprits: %s)"
                % (reason, ", ".join(culprits) or "unknown"),
            )

    def oversee(self, servers: Mapping[str, Server], step: int = 0) -> SupervisorReport:
        """Run one budget-checked recovery pass over the fleet.

        The pass is *vote first, restore second*: Algorithm 3 runs as a
        dry run over the collected reports, the observed fault mix is
        weighed against the budget, and only a mix the theorems prove
        recoverable is allowed to write states back.  On a breach —
        crashes alone past ``f``, the mixed weight past ``f``, or a vote
        too ambiguous to decide (which under the model only happens past
        the budget) — the fleet is marked
        :attr:`~FleetStatus.DEGRADED` and a
        :class:`~repro.core.exceptions.FaultBudgetExceededError` is
        raised naming the culprits; no server is touched.
        """
        self._passes += 1
        observations = self._coordinator.collect_reports(servers)
        crashed = tuple(name for name, state in observations.items() if state is None)
        self._total_crashes += len(crashed)

        try:
            outcome: RecoveryOutcome = self._coordinator.engine.recover(
                observations, strict=True, expected_max_faults=self._budget.f
            )
        except FaultBudgetExceededError as exc:
            self._degrade(str(exc), exc.culprits, step)
            raise
        except FaultToleranceExceededError as exc:
            self._degrade(str(exc), crashed, step)
            raise FaultBudgetExceededError(
                str(exc),
                culprits=crashed,
                observed=len(crashed),
                tolerated=self._budget.f,
            ) from exc
        except RecoveryError as exc:
            # An ambiguous vote (tie, or a winner without the required
            # majority margin).  Under the model this only happens when
            # the liars outweigh the budget, but a tie does not say
            # *which* reports were lies — every non-crashed disagreeing
            # server is a suspect.
            suspects = tuple(name for name in observations if name not in crashed)
            reason = "recovery vote is ambiguous: %s" % exc
            self._degrade(reason, suspects, step)
            raise FaultBudgetExceededError(
                "%s — the Byzantine fault budget (%d liars) must have been "
                "exceeded; suspects: %s"
                % (reason, self._budget.byzantine_budget, ", ".join(suspects)),
                culprits=suspects,
                observed=len(crashed) + 2 * max(1, self._budget.byzantine_budget + 1),
                tolerated=self._budget.f,
            ) from exc

        liars = tuple(outcome.suspected_byzantine)
        self._total_liars += len(liars)
        weight = self._budget.weight(len(crashed), len(liars))
        if not self._budget.allows(len(crashed), len(liars)):
            # The vote produced a winner, but the observed mix is heavier
            # than the theorems cover: the winner could be the liars'
            # coalition.  Refuse to restore.
            error = FaultBudgetExceededError.for_budget(
                crashed, liars, self._budget.f
            )
            self._degrade(str(error), error.culprits, step)
            raise error

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
        if self._trace is not None:
            self._trace.record_recovery(step, restored, liars)
        self._status = FleetStatus.HEALTHY
        self._culprits = ()
        self._degraded_reason = None
        return SupervisorReport(
            status=FleetStatus.HEALTHY,
            crashed=crashed,
            suspected_byzantine=liars,
            restored=restored,
            weight=weight,
            budget=self._budget.f,
        )
