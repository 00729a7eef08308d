"""Algorithm 3 — recovering the system state after crash or Byzantine faults.

Every machine in the fault-tolerant system (originals plus fusion
backups) is ≤ the top machine, so its current state corresponds to a
*set* of top states (its block in the closed partition — the paper's set
representation).  Recovery collects the reported states of the available
machines, counts, for every top state, how many reports contain it, and
returns the top state with the maximal count:

* after up to ``f`` crash faults the count of the true top state is
  ``n + m - f`` and no other state can reach it (Theorem 6);
* after up to ``⌊f/2⌋`` Byzantine faults the true state still wins the
  vote for the same reason.

Once the top state is known, the execution state of *every* machine —
including the crashed ones — is obtained by projection.

This module holds the vote as the paper writes it, over explicit
blocks; :class:`repro.core.runtime.BatchRecovery` is the engine that
runs it on reported states, one instance or a whole cohort at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from .exceptions import RecoveryError
from .types import StateLabel, StateTuple

__all__ = [
    "RecoveryOutcome",
    "recover_top_state",
    "vote_counts",
]


def vote_counts(
    reported_blocks: Iterable[Iterable[int]], num_top_states: int
) -> np.ndarray:
    """Core counting loop of Algorithm 3.

    ``reported_blocks`` contains, for every *available* machine, the set
    of top-state indices its reported state represents.  Returns the
    ``count`` vector of length ``num_top_states``.
    """
    counts = np.zeros(num_top_states, dtype=np.int64)
    for block in reported_blocks:
        for index in block:
            counts[index] += 1
    return counts


def recover_top_state(
    reported_blocks: Sequence[Iterable[int]],
    num_top_states: int,
    strict: bool = True,
) -> Tuple[int, np.ndarray]:
    """Return the index of the top state with the maximal vote count.

    Parameters
    ----------
    reported_blocks:
        One block (iterable of top-state indices) per available machine.
    num_top_states:
        ``|top|``.
    strict:
        When true (default), a tie for the maximal count raises
        :class:`RecoveryError` — a tie means more faults occurred than the
        system tolerates, so any choice could be wrong.  When false the
        lowest-index winner is returned, exactly like the paper's
        pseudo-code.

    Returns
    -------
    (index, counts):
        The recovered top-state index and the full count vector.
    """
    if num_top_states <= 0:
        raise RecoveryError("num_top_states must be positive")
    if not reported_blocks:
        raise RecoveryError("cannot recover from zero observations")
    counts = vote_counts(reported_blocks, num_top_states)
    best = int(counts.max())
    winners = np.nonzero(counts == best)[0]
    if strict and len(winners) > 1:
        raise RecoveryError(
            "ambiguous recovery: top states %s tie with %d votes each "
            "(more faults than the system tolerates?)" % (winners.tolist(), best)
        )
    return int(winners[0]), counts


@dataclass(frozen=True)
class RecoveryOutcome:
    """Result of a recovery run.

    Attributes
    ----------
    top_state:
        The recovered top state as a tuple of original-machine states.
    top_index:
        Its index in the cross product.
    counts:
        The Algorithm-3 vote vector (one entry per top state).
    machine_states:
        The recovered execution state of *every* machine in the system
        (originals and backups), keyed by machine name.
    crashed:
        Names of machines that reported no state.
    suspected_byzantine:
        Names of machines whose report does not contain the recovered top
        state — under the system's fault assumptions these must have lied.
    """

    top_state: StateTuple
    top_index: int
    counts: np.ndarray
    machine_states: Dict[str, StateLabel]
    crashed: Tuple[str, ...]
    suspected_byzantine: Tuple[str, ...]
