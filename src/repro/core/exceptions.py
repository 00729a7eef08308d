"""Exception hierarchy for the :mod:`repro` library.

All exceptions raised by the library derive from :class:`ReproError` so
callers can catch library-specific failures with a single ``except``
clause while still letting programming errors (``TypeError`` and
friends) propagate.
"""

from __future__ import annotations

__all__ = [
    "ReproError",
    "InvalidMachineError",
    "UnknownStateError",
    "UnknownEventError",
    "NotComparableError",
    "PartitionError",
    "FusionError",
    "FusionExistenceError",
    "PoolDegradedError",
    "SegmentLeakError",
    "SpecParseError",
    "NetworkSpecParseError",
    "ResourceExhaustedError",
    "RecoveryError",
    "FaultToleranceExceededError",
    "FaultBudgetExceededError",
    "SimulationError",
    "SerializationError",
    "MalformedMachineError",
    "StoreError",
    "StoreCorruptionError",
    "StoreLockTimeoutError",
]


class ReproError(Exception):
    """Base class for every error raised by the library."""


class InvalidMachineError(ReproError):
    """A DFSM definition is structurally invalid.

    Raised when a transition references an unknown state, the initial
    state is not a member of the state set, the state set is empty, or
    the transition function is not total over the machine's own
    alphabet.
    """


class UnknownStateError(ReproError, KeyError):
    """A state label was used that the machine does not contain."""


class UnknownEventError(ReproError, KeyError):
    """An event label was used that the machine's alphabet does not contain."""


class NotComparableError(ReproError):
    """Two machines were compared that are not related by the ``<=`` order.

    The order among machines (Section 2.1 of the paper) is only defined
    when one machine's closed partition refines the other's.
    """


class PartitionError(ReproError):
    """A partition of a state set is malformed or not closed."""


class FusionError(ReproError):
    """Fusion generation or validation failed."""


class FusionExistenceError(FusionError):
    """No (f, m)-fusion exists for the requested parameters.

    By Theorem 4 an (f, m)-fusion of a machine set ``A`` exists iff
    ``m + dmin(A) > f``.
    """


class PoolDegradedError(FusionError):
    """A task was submitted to a worker pool that already degraded.

    The pool exhausted its heal-and-replay budget and fell back to
    serial execution for the rest of its lifetime; callers must check
    ``pool.usable`` and take the serial path instead of submitting.
    """


class SegmentLeakError(FusionError):
    """Shared-memory segments owned by this process were left linked.

    Raised by the ``/dev/shm`` leak check
    (:func:`repro.core.resilience.assert_no_owned_segments`) that tests
    and CI run after every fusion.
    """


class SpecParseError(FusionError):
    """A configuration spec string failed to parse.

    Raised for malformed ``REPRO_CHAOS`` entries, unparsable
    ``REPRO_MEMORY_BUDGET``/``REPRO_DISK_BUDGET`` size strings and (through :class:`NetworkSpecParseError`) bad
    ``REPRO_NET_CHAOS`` values.  Unlike a bare ``ValueError`` it *names
    the offending token* so the error message — and programmatic callers
    — can point at the exact fragment of the knob that is wrong.

    Attributes
    ----------
    knob:
        The environment variable (or keyword) whose value failed.
    token:
        The offending fragment of that value.
    """

    def __init__(self, knob: str, token: str, message: str) -> None:
        super().__init__("%s: %s (offending token %r)" % (knob, message, token))
        self.knob = knob
        self.token = token


class SimulationError(ReproError):
    """The distributed-system simulator was driven into an invalid configuration."""


class NetworkSpecParseError(SpecParseError, SimulationError):
    """A ``REPRO_NET_CHAOS`` spec string failed to parse.

    Inherits :class:`SpecParseError` (so all spec-string failures share
    one type carrying ``knob``/``token``) *and* :class:`SimulationError`
    (the fabric's historical error family — existing callers that catch
    ``SimulationError`` keep working).
    """


class ResourceExhaustedError(FusionError):
    """A resource budget or the machine itself ran out and recovery failed.

    Raised only after graceful degradation has been exhausted: the
    governor spilled what it could, ``/dev/shm`` publishes fell back to
    file-backed segments, and store commits retried with backoff after
    scratch sweeping.  The message — and the attributes — name the
    resource (``"memory"``, ``"shm"`` or ``"disk"``), the watermark that
    was configured (none for ``"shm"``, which has no budget), and the
    observed usage, so operators can size the
    budget instead of guessing.  The run remains resumable from its last
    committed checkpoint (nothing is quarantined on the way out).

    Attributes
    ----------
    resource:
        Which budget was exhausted: ``"memory"``, ``"shm"`` or ``"disk"``.
    watermark:
        The configured budget in bytes (``None`` when the physical
        resource itself, not a configured budget, ran out).
    observed:
        The observed usage in bytes that overran the watermark.
    """

    def __init__(
        self,
        resource: str,
        watermark,
        observed: int,
        message: str,
    ) -> None:
        super().__init__(message)
        self.resource = str(resource)
        self.watermark = None if watermark is None else int(watermark)
        self.observed = int(observed)

    @classmethod
    def for_resource(
        cls, resource: str, watermark, observed: int, detail: str = ""
    ) -> "ResourceExhaustedError":
        budget = (
            "no budget configured"
            if watermark is None
            else "budget %d bytes" % int(watermark)
        )
        message = "%s exhausted: observed %d bytes against %s" % (
            resource,
            int(observed),
            budget,
        )
        if detail:
            message = "%s; %s" % (message, detail)
        return cls(resource, watermark, observed, message)


class RecoveryError(ReproError):
    """State recovery failed (for example, ambiguous majority vote)."""


class FaultToleranceExceededError(RecoveryError):
    """More faults were injected than the system was designed to tolerate."""


class FaultBudgetExceededError(FaultToleranceExceededError):
    """The observed faults overran the system's fault budget.

    Unlike the bare :class:`FaultToleranceExceededError` message, this
    exception *names the culprits*: which machines crashed or are
    suspected of lying, how heavily the observation weighs against the
    budget (a Byzantine machine costs two crash units — Theorem 2's
    ``dmin > 2f``), and what the budget was.  Raised by the Algorithm-3
    engine (:class:`~repro.core.runtime.BatchRecovery`) and by the fleet
    supervisor when it refuses a recovery that could be silently wrong.

    Attributes
    ----------
    culprits:
        Names of the machines charged against the budget (crashed
        first, then suspected Byzantine, each in engine machine order).
    observed:
        Total budget units observed (crashes + 2 × suspected liars).
    tolerated:
        The budget those units overran (the system's ``f``).
    """

    def __init__(
        self,
        message: str,
        culprits: tuple = (),
        observed: int = 0,
        tolerated: int = 0,
    ) -> None:
        super().__init__(message)
        self.culprits = tuple(culprits)
        self.observed = int(observed)
        self.tolerated = int(tolerated)

    @classmethod
    def for_crashes(cls, culprits, tolerated: int) -> "FaultBudgetExceededError":
        """The canonical crash-overrun error: ``culprits`` crashed, more
        than the ``tolerated`` budget."""
        culprits = tuple(culprits)
        return cls(
            "%d machines crashed (%s) but the system is designed for at most "
            "%d faults" % (len(culprits), ", ".join(culprits), int(tolerated)),
            culprits=culprits,
            observed=len(culprits),
            tolerated=tolerated,
        )

    @classmethod
    def for_budget(
        cls,
        crashed,
        suspected_byzantine,
        tolerated: int,
    ) -> "FaultBudgetExceededError":
        """The supervisor's mixed crash/Byzantine overrun error."""
        crashed = tuple(crashed)
        suspected = tuple(suspected_byzantine)
        observed = len(crashed) + 2 * len(suspected)
        return cls(
            "fault budget exceeded: %d crashed (%s) and %d suspected Byzantine "
            "(%s) weigh %d units against a budget of f=%d"
            % (
                len(crashed),
                ", ".join(crashed) or "none",
                len(suspected),
                ", ".join(suspected) or "none",
                observed,
                int(tolerated),
            ),
            culprits=crashed + suspected,
            observed=observed,
            tolerated=tolerated,
        )


class SerializationError(ReproError):
    """A machine or analysis artefact could not be serialised or parsed."""


class MalformedMachineError(SerializationError):
    """A serialised machine description failed structural validation.

    Carries the name of the offending ``field`` (``"states"``,
    ``"transitions"``, ...) so callers — and error messages — can point
    at the exact part of the document that is wrong instead of failing
    deep inside :class:`~repro.core.dfsm.DFSM` construction.
    """

    def __init__(self, field: str, message: str) -> None:
        super().__init__("%s: %s" % (field, message))
        self.field = field


class StoreError(ReproError):
    """The on-disk artifact store failed an operation."""


class StoreCorruptionError(StoreError):
    """An artifact failed its checksum/manifest verification on load.

    The store never raises this to fusion callers — a corrupt artifact
    is quarantined and recomputed — but direct container reads surface
    it so tests can assert torn writes are detected.
    """


class StoreLockTimeoutError(StoreError):
    """An advisory store lock could not be acquired within the backoff budget."""
