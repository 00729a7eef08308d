"""repro — fusion-based fault tolerance for finite state machines.

A faithful, production-quality Python reproduction of

    Ogale, Balasubramanian, Garg,
    "A Fusion-based Approach for Tolerating Faults in Finite State
    Machines", IPPS 2009.

The library models distributed systems as collections of deterministic
finite state machines (DFSMs) consuming a common ordered event stream,
and generates *fusion* backup machines that tolerate ``f`` crash faults
(or ``⌊f/2⌋`` Byzantine faults) with far fewer backup states than
replication.

Quickstart
----------
>>> from repro import BatchRecovery, generate_fusion
>>> from repro.machines import mod_counter
>>> counters = [mod_counter(3, count_event=e, events=(0, 1), name=f"count-{e}") for e in (0, 1)]
>>> result = generate_fusion(counters, f=1)
>>> result.num_backups
1
>>> engine = BatchRecovery(result.product, result.backups)

Package layout
--------------
``repro.core``
    The paper's algorithms (cross products, fault graphs, Algorithm 1–3,
    theorems as predicates, replication baseline, exhaustive search).
``repro.machines``
    A library of real-world DFSMs (MESI, TCP, counters, parity, shift
    registers, …) including the paper's worked examples.
``repro.simulation``
    An event-driven distributed-system simulator with crash/Byzantine
    fault injection and a recovery coordinator.
``repro.coding``
    The erasure-coding analogy of Section 3.
``repro.analysis``
    State-space accounting and paper-style reporting.
``repro.io``
    JSON and Graphviz serialisation of machines and artefacts.
"""

from .core import (
    DFSM,
    DFSMBuilder,
    ChaosSpec,
    ClosedPartitionLattice,
    CrossProduct,
    FaultGraph,
    FaultToleranceExceededError,
    FaultToleranceProfile,
    FusionError,
    FusionExistenceError,
    FusionResult,
    PairLedger,
    InvalidMachineError,
    NotComparableError,
    Partition,
    BatchOutcome,
    BatchRecovery,
    PartitionError,
    PoolDegradedError,
    RecoveryError,
    RecoveryOutcome,
    ReplicatedSystem,
    ReproError,
    ResilienceConfig,
    ResilienceStats,
    SegmentLeakError,
    SerializationError,
    SimulationError,
    UnknownEventError,
    UnknownStateError,
    VectorizedRuntime,
    are_equivalent,
    basis,
    build_fault_graph,
    can_tolerate_byzantine_faults,
    can_tolerate_crash_faults,
    check_subset_theorem,
    closed_coarsening,
    dmin_of_machines,
    enumerate_closed_partitions,
    find_all_fusions,
    find_minimum_state_fusion,
    fusion_exists,
    fusion_order_leq,
    fusion_state_space,
    generate_byzantine_fusion,
    generate_fusion,
    hopcroft_minimize,
    inherent_fault_tolerance,
    is_closed_partition,
    is_fusion,
    resolve_workers,
    is_minimal_fusion,
    lower_cover,
    lower_cover_machines,
    machine_from_partition,
    max_byzantine_faults,
    max_crash_faults,
    merged_alphabet,
    minimize,
    minimum_backups_required,
    partition_from_machine,
    reachable_cross_product,
    recover_fleet,
    recover_top_state,
    remove_unreachable,
    replicate,
    replication_backup_count,
    replication_state_space,
    required_dmin,
    separation_matrix,
    set_representation,
    system_dmin,
    system_fault_graph,
    vote_counts,
)

__version__ = "1.0.0"

__all__ = [
    "__version__",
    "DFSM",
    "DFSMBuilder",
    "ClosedPartitionLattice",
    "CrossProduct",
    "FaultGraph",
    "FaultToleranceProfile",
    "FusionResult",
    "PairLedger",
    "Partition",
    "BatchOutcome",
    "BatchRecovery",
    "RecoveryOutcome",
    "ReplicatedSystem",
    "VectorizedRuntime",
    # resilience
    "ChaosSpec",
    "ResilienceConfig",
    "ResilienceStats",
    # errors
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
    "RecoveryError",
    "FaultToleranceExceededError",
    "SimulationError",
    "SerializationError",
    # functions
    "are_equivalent",
    "basis",
    "build_fault_graph",
    "can_tolerate_byzantine_faults",
    "can_tolerate_crash_faults",
    "check_subset_theorem",
    "closed_coarsening",
    "dmin_of_machines",
    "enumerate_closed_partitions",
    "find_all_fusions",
    "find_minimum_state_fusion",
    "fusion_exists",
    "fusion_order_leq",
    "fusion_state_space",
    "generate_byzantine_fusion",
    "generate_fusion",
    "hopcroft_minimize",
    "inherent_fault_tolerance",
    "is_closed_partition",
    "is_fusion",
    "resolve_workers",
    "is_minimal_fusion",
    "lower_cover",
    "lower_cover_machines",
    "machine_from_partition",
    "max_byzantine_faults",
    "max_crash_faults",
    "merged_alphabet",
    "minimize",
    "minimum_backups_required",
    "partition_from_machine",
    "reachable_cross_product",
    "recover_fleet",
    "recover_top_state",
    "remove_unreachable",
    "replicate",
    "replication_backup_count",
    "replication_state_space",
    "required_dmin",
    "separation_matrix",
    "set_representation",
    "system_dmin",
    "system_fault_graph",
    "vote_counts",
]
