"""The adversarial network fabric between coordinator and servers.

Until this module existed the simulator delivered every event perfectly:
the only faults in the system were the paper's machine faults (crash /
Byzantine state corruption).  :class:`NetworkFabric` puts a hostile
network in between — seeded message **drops**, **duplications**,
**reorderings** (a copy deferred past its successor), bounded **delays**
and **link partitions** — and the delivery protocol that defeats them:

* per-server monotonic **sequence numbers** on every message;
* **idempotent exactly-once application** — a stale or duplicated copy
  is detected by its sequence number and rejected, never re-applied;
* **timeout/retry with exponential backoff** — an unacknowledged
  message is retransmitted with virtual-time backoff ``1, 2, 4, …``
  ticks, which outlasts any bounded partition;
* **heartbeat-based crash detection** — a server that acknowledges
  nothing through the whole retry budget has its link declared dead and
  is treated as crashed (indistinguishable from a crash to the rest of
  the system, and charged against the same fault budget).

Fault injection follows the same seeded-chaos idiom as the engine's
``REPRO_CHAOS`` (:class:`repro.core.resilience.ChaosSpec`): a
:class:`NetworkChaosSpec` is parsed from the ``REPRO_NET_CHAOS``
environment variable or built via
:meth:`repro.simulation.faults.FaultInjector.network_chaos`, and every
draw comes from one deterministic stream — the same seed replays the
same hostile schedule, message for message.

The invariant the chaos property suite pins: under *any* seeded network
schedule, as long as machine faults stay within the fault budget, every
server observes exactly the fault-free run's states — the protocol turns
an adversarial network back into the paper's perfect globally-ordered
event stream.
"""

from __future__ import annotations

import enum
import os
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from ..core.exceptions import NetworkSpecParseError, SimulationError
from ..core.types import EventLabel
from ..utils.rng import as_generator, derive_seed
from .server import Server, ServerStatus
from .trace import ExecutionTrace

__all__ = [
    "NetworkFaultKind",
    "NetworkChaosSpec",
    "network_chaos_from_env",
    "FabricStats",
    "NetworkFabric",
]


#: Default number of transmission attempts (1 original + retries) before
#: a link is declared dead.  With exponential backoff the total virtual
#: wait is ``2^max_attempts - 1`` ticks, comfortably longer than the
#: default partition duration, so bounded partitions heal inside the
#: budget and only a genuinely unreachable server is ever given up on.
_DEFAULT_MAX_ATTEMPTS = 8


class NetworkFaultKind(enum.Enum):
    """Faults the fabric can inject into one delivery attempt.

    Values mirror :class:`repro.simulation.faults.FaultKind` member for
    member (the simulation-facing vocabulary).
    """

    DROP = "drop"
    DUPLICATE = "duplicate"
    REORDER = "reorder"
    DELAY = "delay"
    PARTITION = "partition"


class NetworkChaosSpec:
    """A seeded network-fault injection plan, parsed from ``REPRO_NET_CHAOS``.

    The spec is a comma-separated ``key=value`` list::

        REPRO_NET_CHAOS="drop=0.2,reorder=0.1,partition=0.05,seed=7"

    Keys: ``drop``/``duplicate``/``reorder``/``delay``/``partition``
    give per-delivery injection probabilities; ``max_delay`` bounds the
    delay in virtual ticks; ``partition_ticks`` sets how long a link
    partition lasts; ``servers`` restricts injection to a
    ``+``-separated subset of links; ``max`` bounds the total faults
    injected; ``seed`` feeds a dedicated
    :func:`~repro.utils.rng.derive_seed` stream so draws are
    reproducible.  One fault at most is drawn per delivery attempt, in
    fixed kind order, so a spec replays the same schedule every run.

    >>> spec = NetworkChaosSpec.parse("drop=1.0,max=1,seed=7")
    >>> spec.active
    True
    >>> spec.draw("s0")
    (<NetworkFaultKind.DROP: 'drop'>, 0)
    >>> spec.draw("s0") is None     # max=1 budget exhausted
    True
    """

    _KIND_ORDER = (
        NetworkFaultKind.DROP,
        NetworkFaultKind.DUPLICATE,
        NetworkFaultKind.REORDER,
        NetworkFaultKind.DELAY,
        NetworkFaultKind.PARTITION,
    )

    def __init__(
        self,
        probabilities: Optional[Dict[NetworkFaultKind, float]] = None,
        max_delay_ticks: int = 3,
        partition_ticks: int = 6,
        servers: Optional[Tuple[str, ...]] = None,
        max_faults: Optional[int] = None,
        seed: int = 0,
    ) -> None:
        self._probabilities = {
            kind: float(p) for kind, p in (probabilities or {}).items() if p
        }
        for kind, probability in self._probabilities.items():
            if not 0.0 <= probability <= 1.0:
                raise SimulationError(
                    "network chaos probability for %s must be in [0, 1], got %r"
                    % (kind.value, probability)
                )
        if max_delay_ticks < 1:
            raise SimulationError("max_delay must be at least 1 tick")
        if partition_ticks < 1:
            raise SimulationError("partition_ticks must be at least 1 tick")
        self.max_delay_ticks = int(max_delay_ticks)
        self.partition_ticks = int(partition_ticks)
        self._servers = tuple(servers) if servers is not None else None
        self._max_faults = max_faults
        self._injected = 0
        self._seed = int(seed)
        self._rng = as_generator(derive_seed(self._seed, "network-chaos"))

    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, spec: str) -> "NetworkChaosSpec":
        """Parse a ``REPRO_NET_CHAOS`` spec string (see class docstring)."""
        probabilities: Dict[NetworkFaultKind, float] = {}
        servers: Optional[Tuple[str, ...]] = None
        max_faults: Optional[int] = None
        seed = 0
        max_delay_ticks = 3
        partition_ticks = 6
        by_value = {kind.value: kind for kind in NetworkFaultKind}
        for chunk in spec.split(","):
            chunk = chunk.strip()
            if not chunk:
                continue
            key, separator, value = chunk.partition("=")
            key = key.strip()
            value = value.strip()
            if not separator:
                raise NetworkSpecParseError(
                    "REPRO_NET_CHAOS",
                    chunk,
                    "entries must be key=value, got %r" % chunk,
                )
            try:
                if key in by_value:
                    probabilities[by_value[key]] = float(value)
                elif key == "servers":
                    servers = tuple(s for s in value.split("+") if s)
                elif key == "max":
                    max_faults = int(value)
                elif key == "seed":
                    seed = int(value)
                elif key == "max_delay":
                    max_delay_ticks = int(value)
                elif key == "partition_ticks":
                    partition_ticks = int(value)
                else:
                    raise NetworkSpecParseError(
                        "REPRO_NET_CHAOS",
                        key,
                        "unknown REPRO_NET_CHAOS key %r (known: %s, servers, "
                        "max, seed, max_delay, partition_ticks)"
                        % (key, ", ".join(sorted(by_value))),
                    )
            except ValueError:
                raise NetworkSpecParseError(
                    "REPRO_NET_CHAOS",
                    value,
                    "invalid REPRO_NET_CHAOS value %r for key %r" % (value, key),
                ) from None
        return cls(
            probabilities,
            max_delay_ticks=max_delay_ticks,
            partition_ticks=partition_ticks,
            servers=servers,
            max_faults=max_faults,
            seed=seed,
        )

    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        """True when the spec can still inject at least one fault."""
        if not self._probabilities:
            return False
        if self._max_faults is not None and self._injected >= self._max_faults:
            return False
        return True

    @property
    def injected(self) -> int:
        """Number of faults injected so far."""
        return self._injected

    @property
    def seed(self) -> int:
        return self._seed

    def spec_string(self) -> str:
        """A canonical ``REPRO_NET_CHAOS``-style rendering of the spec."""
        parts = [
            "%s=%g" % (kind.value, self._probabilities[kind])
            for kind in self._KIND_ORDER
            if kind in self._probabilities
        ]
        parts.append("max_delay=%d" % self.max_delay_ticks)
        parts.append("partition_ticks=%d" % self.partition_ticks)
        if self._servers is not None:
            parts.append("servers=%s" % "+".join(self._servers))
        if self._max_faults is not None:
            parts.append("max=%d" % self._max_faults)
        parts.append("seed=%d" % self._seed)
        return ",".join(parts)

    def draw(self, server: str) -> Optional[Tuple[NetworkFaultKind, int]]:
        """Decide the fault (if any) for one delivery attempt on ``server``.

        Returns ``(kind, ticks)`` where ``ticks`` is the drawn delay for
        ``DELAY``, the partition duration for ``PARTITION`` and ``0``
        otherwise, or ``None`` when no fault fires.  At most one fault
        fires per attempt; kinds are tried in fixed order and every
        probability consumes exactly one uniform draw, so the schedule
        is a pure function of the seed and the call sequence.
        """
        filtered = self._servers is not None and server not in self._servers
        chosen: Optional[Tuple[NetworkFaultKind, int]] = None
        for kind in self._KIND_ORDER:
            probability = self._probabilities.get(kind, 0.0)
            if not probability:
                continue
            hit = bool(self._rng.random() < probability)
            if hit and chosen is None:
                if kind is NetworkFaultKind.DELAY:
                    ticks = int(self._rng.integers(1, self.max_delay_ticks + 1))
                elif kind is NetworkFaultKind.PARTITION:
                    ticks = self.partition_ticks
                else:
                    ticks = 0
                chosen = (kind, ticks)
        if chosen is None or filtered or not self.active:
            return None
        self._injected += 1
        return chosen


def network_chaos_from_env() -> Optional[NetworkChaosSpec]:
    """The :class:`NetworkChaosSpec` named by ``REPRO_NET_CHAOS``, if any."""
    raw = os.environ.get("REPRO_NET_CHAOS", "").strip()
    if not raw:
        return None
    spec = NetworkChaosSpec.parse(raw)
    return spec if spec.active else None


@dataclass
class FabricStats:
    """Counters of everything the fabric did.

    ``attempts`` counts transmissions (including retries); ``delivered``
    counts messages that reached exactly-once application; the fault
    counters record injected faults; ``stale_rejected`` counts copies
    the sequence-number guard refused to re-apply (the exactly-once
    proof in numbers); ``link_deaths`` counts servers declared crashed
    after a full retry budget of silence.
    """

    attempts: int = 0
    delivered: int = 0
    retries: int = 0
    dropped: int = 0
    duplicates: int = 0
    reordered: int = 0
    delayed: int = 0
    blocked: int = 0
    partitions: int = 0
    stale_rejected: int = 0
    link_deaths: int = 0
    heartbeats: int = 0
    heartbeats_missed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "attempts": self.attempts,
            "delivered": self.delivered,
            "retries": self.retries,
            "dropped": self.dropped,
            "duplicates": self.duplicates,
            "reordered": self.reordered,
            "delayed": self.delayed,
            "blocked": self.blocked,
            "partitions": self.partitions,
            "stale_rejected": self.stale_rejected,
            "link_deaths": self.link_deaths,
            "heartbeats": self.heartbeats,
            "heartbeats_missed": self.heartbeats_missed,
        }

    @property
    def faults_injected(self) -> int:
        """Total network faults that actually fired."""
        return (
            self.dropped
            + self.duplicates
            + self.reordered
            + self.delayed
            + self.partitions
        )


@dataclass(frozen=True)
class _Pending:
    """An in-flight message copy scheduled to arrive at ``arrival`` ticks."""

    arrival: int
    seq: int
    event: EventLabel
    detail: str


class NetworkFabric:
    """Adversarial delivery fabric between the coordinator and its servers.

    Parameters
    ----------
    servers:
        The server fleet, name -> :class:`~repro.simulation.server.Server`.
    chaos:
        The seeded fault schedule; ``None`` (or an inactive spec) makes
        the fabric a perfect network with the same protocol and
        bookkeeping.
    trace:
        When given, every delivery attempt, retry, drop, deferral,
        stale rejection, link death and heartbeat is recorded with the
        trace's monotonic sequence numbers.
    max_attempts:
        Transmission attempts per message before the link is declared
        dead and the server treated as crashed.

    The fabric runs on *virtual time*: a monotonic tick counter advanced
    by transmissions and backoff waits.  Deferred copies (reorder/delay
    faults) arrive when their tick comes up; partitions block a link
    until their tick expires.  Everything is deterministic in the chaos
    seed.
    """

    def __init__(
        self,
        servers: Mapping[str, Server],
        chaos: Optional[NetworkChaosSpec] = None,
        trace: Optional[ExecutionTrace] = None,
        max_attempts: int = _DEFAULT_MAX_ATTEMPTS,
    ) -> None:
        if not servers:
            raise SimulationError("a network fabric needs at least one server")
        if max_attempts < 1:
            raise SimulationError("max_attempts must be at least 1")
        self._servers = dict(servers)
        self._chaos = chaos
        self._trace = trace
        self._max_attempts = int(max_attempts)
        self._tick = 0
        self._next_seq: Dict[str, int] = {name: 0 for name in self._servers}
        self._applied_seq: Dict[str, int] = {name: 0 for name in self._servers}
        self._pending: Dict[str, List[_Pending]] = {name: [] for name in self._servers}
        self._down_until: Dict[str, int] = {name: 0 for name in self._servers}
        self._dead: Dict[str, bool] = {name: False for name in self._servers}
        self._new_deaths: List[str] = []
        self.stats = FabricStats()

    # ------------------------------------------------------------------
    @property
    def tick(self) -> int:
        """Current virtual time."""
        return self._tick

    @property
    def chaos(self) -> Optional[NetworkChaosSpec]:
        return self._chaos

    def link_is_dead(self, name: str) -> bool:
        """True when the fabric gave up on the server's link."""
        return self._dead[name]

    def dead_links(self) -> Tuple[str, ...]:
        """Servers whose links have been declared dead, in fleet order."""
        return tuple(name for name in self._servers if self._dead[name])

    def take_new_deaths(self) -> Tuple[str, ...]:
        """Links declared dead since the last call (crash-detection feed)."""
        deaths = tuple(self._new_deaths)
        self._new_deaths.clear()
        return deaths

    # ------------------------------------------------------------------
    def _record(
        self,
        step: int,
        server: str,
        event: EventLabel,
        seq: int,
        attempt: int,
        outcome: str,
        detail: Optional[str] = None,
    ) -> None:
        if self._trace is not None:
            self._trace.record_delivery(
                step, server, event, seq, attempt, outcome, detail
            )

    def _receive(self, name: str, seq: int, event: EventLabel) -> bool:
        """Receiver-side exactly-once guard: apply iff the seq is next."""
        applied = self._applied_seq[name]
        if seq <= applied:
            self.stats.stale_rejected += 1
            return False
        if seq != applied + 1:
            # Impossible under the stop-and-wait sender: a new message is
            # only composed after its predecessor was acknowledged.
            raise SimulationError(
                "protocol violation: server %r received seq %d while expecting %d"
                % (name, seq, applied + 1)
            )
        self._servers[name].apply(event)
        self._applied_seq[name] = seq
        return True

    def _flush_pending(self, name: str, step: int) -> None:
        """Deliver every deferred copy whose arrival tick has come."""
        queue = self._pending[name]
        if not queue:
            return
        matured = [p for p in queue if p.arrival <= self._tick]
        if not matured:
            return
        self._pending[name] = [p for p in queue if p.arrival > self._tick]
        for copy in sorted(matured, key=lambda p: (p.arrival, p.seq)):
            if self._receive(name, copy.seq, copy.event):
                self.stats.delivered += 1
                self._record(
                    step, name, copy.event, copy.seq, 0, "delivered",
                    "late arrival (%s)" % copy.detail,
                )
            else:
                self._record(
                    step, name, copy.event, copy.seq, 0, "stale",
                    "late arrival (%s) rejected by seq guard" % copy.detail,
                )

    # ------------------------------------------------------------------
    def broadcast(self, event: EventLabel, step: int) -> Dict[str, str]:
        """Deliver one event of the global order to every server.

        Returns the per-server outcome: ``"delivered"`` (exactly-once
        application succeeded, possibly after retries), ``"crashed"``
        (server was already crashed; its true state still advances, per
        the simulator's ground-truth semantics) or ``"link_dead"`` (the
        retry budget ran out — the server has been crashed and must be
        charged to the fault budget).
        """
        outcomes: Dict[str, str] = {}
        for name, server in self._servers.items():
            if self._dead[name] or server.status is ServerStatus.CRASHED:
                # A crashed server receives nothing; the simulator still
                # advances its ground-truth state (Server.apply skips the
                # visible state of a crashed server).
                server.apply(event)
                outcomes[name] = "crashed"
                continue
            outcomes[name] = self._deliver(name, event, step)
        return outcomes

    def _deliver(self, name: str, event: EventLabel, step: int) -> str:
        seq = self._next_seq[name] + 1
        self._next_seq[name] = seq
        for attempt in range(1, self._max_attempts + 1):
            backoff = 1 << (attempt - 1)
            self._tick += 1
            self.stats.attempts += 1
            if attempt > 1:
                self.stats.retries += 1
            # Stale copies of earlier messages may arrive now …
            self._flush_pending(name, step)
            # … and may even be this message (a deferred copy that
            # matured during the backoff wait): then we are done.
            if self._applied_seq[name] >= seq:
                return "delivered"
            if self._down_until[name] > self._tick:
                self.stats.blocked += 1
                self._record(
                    step, name, event, seq, attempt, "blocked",
                    "link partitioned for %d more ticks"
                    % (self._down_until[name] - self._tick),
                )
                self._tick += backoff
                continue
            fault = self._chaos.draw(name) if self._chaos is not None else None
            if fault is None:
                self._receive(name, seq, event)
                self.stats.delivered += 1
                self._record(step, name, event, seq, attempt, "delivered")
                return "delivered"
            kind, ticks = fault
            if kind is NetworkFaultKind.DROP:
                self.stats.dropped += 1
                self._record(step, name, event, seq, attempt, "dropped")
            elif kind is NetworkFaultKind.PARTITION:
                self._down_until[name] = self._tick + ticks
                self.stats.partitions += 1
                self.stats.blocked += 1
                self._record(
                    step, name, event, seq, attempt, "blocked",
                    "link partitioned for %d ticks" % ticks,
                )
            elif kind is NetworkFaultKind.DELAY:
                arrival = self._tick + ticks
                self._pending[name].append(_Pending(arrival, seq, event, "delay"))
                self.stats.delayed += 1
                self._record(
                    step, name, event, seq, attempt, "deferred",
                    "delayed %d ticks" % ticks,
                )
                if arrival <= self._tick + backoff:
                    # The copy lands inside the ack window: advance time
                    # to its arrival and let the flush apply it.
                    self._tick = arrival
                    self._flush_pending(name, step)
                    if self._applied_seq[name] >= seq:
                        return "delivered"
            elif kind is NetworkFaultKind.REORDER:
                # The copy is pushed past the next transmission: the
                # retransmitted copy overtakes it (out-of-order arrival),
                # and this one bounces off the seq guard as stale.
                arrival = self._tick + backoff + 1
                self._pending[name].append(_Pending(arrival, seq, event, "reorder"))
                self.stats.reordered += 1
                self._record(
                    step, name, event, seq, attempt, "deferred",
                    "reordered past the next transmission",
                )
            elif kind is NetworkFaultKind.DUPLICATE:
                self._receive(name, seq, event)
                self.stats.delivered += 1
                self._record(step, name, event, seq, attempt, "delivered")
                duplicate_applied = self._receive(name, seq, event)
                assert not duplicate_applied  # the seq guard must reject it
                self.stats.duplicates += 1
                self._record(
                    step, name, event, seq, attempt, "stale",
                    "duplicate copy rejected by seq guard",
                )
                return "delivered"
            self._tick += backoff
        # Retry budget exhausted: the link is dead.  To every other part
        # of the system this is indistinguishable from a server crash, so
        # that is exactly what it becomes (and what the fault budget is
        # charged for).
        self._dead[name] = True
        self._new_deaths.append(name)
        self.stats.link_deaths += 1
        self._record(
            step, name, event, seq, self._max_attempts, "link_dead",
            "no acknowledgement after %d attempts" % self._max_attempts,
        )
        server = self._servers[name]
        server.crash()
        server.apply(event)  # ground truth still advances
        if self._trace is not None:
            self._trace.record_fault(
                step, name, "crash",
                detail="link declared dead after %d attempts" % self._max_attempts,
            )
        return "link_dead"

    # ------------------------------------------------------------------
    def heartbeat(self, step: int) -> Tuple[str, ...]:
        """Probe every server; return the ones suspected crashed.

        A heartbeat probe travels the same lossy links as data (drops
        and partitions apply; a probe is idempotent so duplication and
        reordering are no-ops) but carries no sequence number.  A live
        server answers the first probe that reaches it; a server that
        answers none of the retries — or is actually crashed, or behind
        a dead link — is suspected crashed.
        """
        suspected: List[str] = []
        for name, server in self._servers.items():
            self.stats.heartbeats += 1
            if self._dead[name] or server.status is ServerStatus.CRASHED:
                self.stats.heartbeats_missed += 1
                self._record(step, name, "<heartbeat>", 0, 1, "heartbeat", "missed")
                suspected.append(name)
                continue
            answered = False
            for attempt in range(1, self._max_attempts + 1):
                self._tick += 1
                if self._down_until[name] > self._tick:
                    self._tick += 1 << (attempt - 1)
                    continue
                fault = self._chaos.draw(name) if self._chaos is not None else None
                if fault is not None and fault[0] is NetworkFaultKind.PARTITION:
                    self._down_until[name] = self._tick + fault[1]
                    self.stats.partitions += 1
                    self._tick += 1 << (attempt - 1)
                    continue
                if fault is not None and fault[0] is NetworkFaultKind.DROP:
                    self.stats.dropped += 1
                    self._tick += 1 << (attempt - 1)
                    continue
                answered = True
                break
            self._record(
                step, name, "<heartbeat>", 0, 1, "heartbeat",
                "answered" if answered else "missed",
            )
            if not answered:
                self.stats.heartbeats_missed += 1
                suspected.append(name)
        return tuple(suspected)
