"""Event-driven distributed-system simulator.

Implements the paper's system model end to end: servers each running a
DFSM, an environment broadcasting a globally ordered event stream,
crash/Byzantine fault injection, and a recovery coordinator that rebuilds
lost or corrupted execution state from the surviving machines using
Algorithm 3 (fusion mode) or group majority/survivor reads (replication
mode).
"""

from .client import Client, Environment
from .coordinator import CoordinatorReport, FusionCoordinator, ReplicationCoordinator
from .fabric import (
    FabricStats,
    NetworkChaosSpec,
    NetworkFabric,
    NetworkFaultKind,
    network_chaos_from_env,
)
from .events import (
    WorkloadGenerator,
    merge_workloads,
    protocol_workload,
    round_robin_workload,
)
from .faults import FaultEvent, FaultInjector, FaultKind, FaultPlan
from .server import Server, ServerStatus
from .supervisor import FleetStatus, FleetSupervisor, SupervisorReport
from .system import DistributedSystem, SimulationReport
from .trace import ExecutionTrace, TraceRecord, TraceRecordKind

__all__ = [
    "Client",
    "Environment",
    "CoordinatorReport",
    "FusionCoordinator",
    "ReplicationCoordinator",
    "FabricStats",
    "NetworkChaosSpec",
    "NetworkFabric",
    "NetworkFaultKind",
    "network_chaos_from_env",
    "FleetStatus",
    "FleetSupervisor",
    "SupervisorReport",
    "WorkloadGenerator",
    "merge_workloads",
    "protocol_workload",
    "round_robin_workload",
    "FaultEvent",
    "FaultInjector",
    "FaultKind",
    "FaultPlan",
    "Server",
    "ServerStatus",
    "DistributedSystem",
    "SimulationReport",
    "ExecutionTrace",
    "TraceRecord",
    "TraceRecordKind",
]
