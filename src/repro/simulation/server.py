"""Servers: DFSM executors that can crash or turn Byzantine.

Each server owns one DFSM (original or backup) and applies the globally
ordered event stream to it.  Faults follow the paper's model exactly:

* a **crash** fault loses the server's *execution state* (the DFSM
  description itself survives on durable storage and is untouched);
* a **Byzantine** fault silently moves the server to an arbitrary wrong
  state, so the server keeps running and later *lies* when asked for its
  state.

A server keeps its state in plain attributes and steps its machine one
event at a time; fleets of many instances run on
:class:`~repro.core.runtime.VectorizedRuntime` instead.
"""

from __future__ import annotations

import enum
from typing import List, Optional

import numpy as np

from ..core.dfsm import DFSM
from ..core.exceptions import SimulationError
from ..core.types import EventLabel, StateLabel

__all__ = ["ServerStatus", "Server"]


class ServerStatus(enum.Enum):
    """Health of a server as seen by the coordinator."""

    HEALTHY = "healthy"
    CRASHED = "crashed"
    BYZANTINE = "byzantine"


class Server:
    """A single server running one DFSM.

    Parameters
    ----------
    machine:
        The DFSM this server executes.
    name:
        Server name; defaults to the machine name.
    """

    def __init__(self, machine: DFSM, name: Optional[str] = None) -> None:
        self._machine = machine
        self._name = name or machine.name
        self._events_applied = 0
        self._state: Optional[StateLabel] = machine.initial
        self._status = ServerStatus.HEALTHY
        self._true_state: StateLabel = machine.initial

    # ------------------------------------------------------------------
    @property
    def name(self) -> str:
        return self._name

    @property
    def machine(self) -> DFSM:
        return self._machine

    @property
    def status(self) -> ServerStatus:
        return self._status

    @property
    def events_applied(self) -> int:
        """Number of events this server has processed since the start."""
        return self._events_applied

    @property
    def true_state(self) -> StateLabel:
        """The state the server *should* be in (ground truth for verification).

        The simulator tracks this independently of faults so tests and
        benchmarks can check that recovery restored the correct value; a
        real deployment obviously has no access to it.
        """
        return self._true_state

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "Server(name=%r, status=%s, state=%r)" % (
            self._name,
            self._status.value,
            self._state,
        )

    # ------------------------------------------------------------------
    # Normal operation
    # ------------------------------------------------------------------
    def apply(self, event: EventLabel) -> None:
        """Apply one event from the global stream.

        Crashed servers ignore events (they are down); Byzantine servers
        keep executing from their corrupted state, which is how a single
        past corruption manifests as a wrong answer later.
        """
        self._true_state = self._machine.step(self._true_state, event)
        if self._status is ServerStatus.CRASHED:
            return
        self._state = self._machine.step(self._state, event)
        self._events_applied += 1

    def apply_sequence(self, events) -> None:
        """Apply a sequence of events in order."""
        for event in events:
            self.apply(event)

    def report_state(self) -> Optional[StateLabel]:
        """The state the server reports when the coordinator asks.

        ``None`` for crashed servers (their execution state is gone); the
        possibly-wrong current state for healthy or Byzantine servers.
        """
        if self._status is ServerStatus.CRASHED:
            return None
        return self._state

    # ------------------------------------------------------------------
    # Fault injection
    # ------------------------------------------------------------------
    def crash(self) -> None:
        """Crash the server: its execution state is lost."""
        self._status = ServerStatus.CRASHED
        self._state = None

    def corrupt(self, rng: Optional[np.random.Generator] = None, target: Optional[StateLabel] = None) -> StateLabel:
        """Byzantine-corrupt the server: silently move it to a wrong state.

        Parameters
        ----------
        rng:
            Source of randomness used to pick the wrong state when no
            explicit ``target`` is given.
        target:
            The state to corrupt into; must differ from the current state.

        Returns
        -------
        The corrupted state now reported by the server.
        """
        if self._status is ServerStatus.CRASHED:
            raise SimulationError("cannot Byzantine-corrupt a crashed server")
        candidates: List[StateLabel] = [
            s for s in self._machine.states if s != self._state
        ]
        if not candidates:
            raise SimulationError(
                "machine %s has a single state; Byzantine corruption is impossible"
                % self._machine.name
            )
        if target is None:
            generator = rng if rng is not None else np.random.default_rng()
            target = candidates[int(generator.integers(0, len(candidates)))]
        elif target not in candidates:
            raise SimulationError("corruption target %r is not a different valid state" % (target,))
        self._state = target
        self._status = ServerStatus.BYZANTINE
        return target

    # ------------------------------------------------------------------
    # Recovery
    # ------------------------------------------------------------------
    def restore(self, state: StateLabel) -> None:
        """Restore the server's execution state (used by the coordinator)."""
        if state not in self._machine:
            raise SimulationError(
                "cannot restore %s to unknown state %r" % (self._name, state)
            )
        self._state = state
        self._status = ServerStatus.HEALTHY

    def is_consistent(self) -> bool:
        """True when the server's visible state equals the ground truth."""
        return self._state == self._true_state
