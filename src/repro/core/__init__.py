"""Core algorithms of the fusion-based fault-tolerance paper.

The sub-modules follow the structure of the paper:

========================  =====================================================
Module                    Paper concept
========================  =====================================================
:mod:`~repro.core.dfsm`            Definition 1 — DFSMs and their execution semantics
:mod:`~repro.core.product`         Section 2 — reachable cross product (the top machine)
:mod:`~repro.core.partition`       Section 2.1 / Algorithm 1 — closed partitions, set representation
:mod:`~repro.core.lattice`         Section 2.1 / Definition 2 — closed partition lattice, lower covers
:mod:`~repro.core.fault_graph`     Section 3 — fault graphs, distance, dmin
:mod:`~repro.core.fault_tolerance` Theorems 1, 2, 4 and Observation 1 as predicates
:mod:`~repro.core.fusion`          Section 4 / Algorithm 2 — (f, m)-fusion generation
:mod:`~repro.core.recovery`        Algorithm 3 — crash / Byzantine recovery
:mod:`~repro.core.replication`     The replication baseline
:mod:`~repro.core.exhaustive`      Brute-force fusion search (ablation)
:mod:`~repro.core.minimize`        A-priori DFSM reduction (related work)
========================  =====================================================
"""

from .dfsm import DFSM, DFSMBuilder
from .exceptions import (
    FaultToleranceExceededError,
    FusionError,
    FusionExistenceError,
    InvalidMachineError,
    NotComparableError,
    PartitionError,
    PoolDegradedError,
    RecoveryError,
    ReproError,
    SegmentLeakError,
    SerializationError,
    SimulationError,
    UnknownEventError,
    UnknownStateError,
)
from .exhaustive import (
    enumerate_closed_partitions,
    find_all_fusions,
    find_minimum_state_fusion,
    is_minimal_fusion,
)
from .fault_graph import FaultGraph, build_fault_graph, dmin_of_machines, separation_matrix
from .fault_tolerance import (
    FaultToleranceProfile,
    can_tolerate_byzantine_faults,
    can_tolerate_crash_faults,
    fusion_exists,
    inherent_fault_tolerance,
    max_byzantine_faults,
    max_crash_faults,
    minimum_backups_required,
    required_dmin,
    system_dmin,
    system_fault_graph,
)
from .fusion import (
    FusionResult,
    check_subset_theorem,
    fusion_order_leq,
    fusion_state_space,
    generate_byzantine_fusion,
    generate_fusion,
    is_fusion,
    resolve_workers,
)
from .lattice import ClosedPartitionLattice, basis, lower_cover, lower_cover_machines
from .resilience import (
    ChaosSpec,
    EngineFaultKind,
    ResilienceConfig,
    ResilienceStats,
    assert_no_owned_segments,
    live_owned_segments,
    reap_owned_segments,
)
from .shm import SharedArrayBundle, SharedWorkerPool
from .sparse import LedgerBuilder, PairLedger
from .minimize import are_equivalent, hopcroft_minimize, minimize, remove_unreachable
from .partition import (
    Partition,
    closed_coarsening,
    is_closed_partition,
    machine_assignment,
    machine_from_partition,
    partition_from_machine,
    set_representation,
)
from .product import CrossProduct, merged_alphabet, reachable_cross_product
from .recovery import RecoveryOutcome, recover_top_state, vote_counts
from .runtime import BatchOutcome, BatchRecovery, VectorizedRuntime, recover_fleet
from .replication import (
    ReplicatedSystem,
    replicate,
    replication_backup_count,
    replication_state_space,
)

__all__ = [
    # dfsm
    "DFSM",
    "DFSMBuilder",
    # product
    "CrossProduct",
    "reachable_cross_product",
    "merged_alphabet",
    # partition
    "Partition",
    "closed_coarsening",
    "is_closed_partition",
    "machine_assignment",
    "machine_from_partition",
    "partition_from_machine",
    "set_representation",
    # lattice
    "ClosedPartitionLattice",
    "basis",
    "lower_cover",
    "lower_cover_machines",
    # fault graph
    "FaultGraph",
    "build_fault_graph",
    "dmin_of_machines",
    "separation_matrix",
    # fault tolerance
    "FaultToleranceProfile",
    "can_tolerate_byzantine_faults",
    "can_tolerate_crash_faults",
    "fusion_exists",
    "inherent_fault_tolerance",
    "max_byzantine_faults",
    "max_crash_faults",
    "minimum_backups_required",
    "required_dmin",
    "system_dmin",
    "system_fault_graph",
    # sparse engine
    "LedgerBuilder",
    "PairLedger",
    "SharedArrayBundle",
    "SharedWorkerPool",
    # resilience
    "ChaosSpec",
    "EngineFaultKind",
    "ResilienceConfig",
    "ResilienceStats",
    "assert_no_owned_segments",
    "live_owned_segments",
    "reap_owned_segments",
    # fusion
    "FusionResult",
    "resolve_workers",
    "check_subset_theorem",
    "fusion_order_leq",
    "fusion_state_space",
    "generate_byzantine_fusion",
    "generate_fusion",
    "is_fusion",
    # exhaustive
    "enumerate_closed_partitions",
    "find_all_fusions",
    "find_minimum_state_fusion",
    "is_minimal_fusion",
    # recovery
    "RecoveryOutcome",
    "recover_top_state",
    "vote_counts",
    # runtime
    "BatchOutcome",
    "BatchRecovery",
    "VectorizedRuntime",
    "recover_fleet",
    # replication
    "ReplicatedSystem",
    "replicate",
    "replication_backup_count",
    "replication_state_space",
    # minimize
    "are_equivalent",
    "hopcroft_minimize",
    "minimize",
    "remove_unreachable",
    # exceptions
    "ReproError",
    "InvalidMachineError",
    "UnknownStateError",
    "UnknownEventError",
    "NotComparableError",
    "PartitionError",
    "FusionError",
    "FusionExistenceError",
    "RecoveryError",
    "FaultToleranceExceededError",
    "SimulationError",
    "SerializationError",
]
