#!/usr/bin/env python3
"""A tour of the theory: lattice, fault graphs, Byzantine recovery, ablation.

This example walks through the paper's worked example (Figures 2-5) using
the library's lower-level APIs, the way Sections 2-5 develop the theory:

1. build machines A and B and their reachable cross product;
2. enumerate the closed partition lattice (Figure 3) and print it;
3. inspect fault graphs and dmin for several machine sets (Figure 4);
4. generate a (2, 2)-fusion, compare it with the exhaustive optimum;
5. demonstrate Byzantine recovery with one lying machine (Section 5.2);
6. export the lattice and a fault graph as Graphviz DOT.

Run with::

    python examples/byzantine_lattice_tour.py
"""

from __future__ import annotations

from repro import (
    BatchRecovery,
    ClosedPartitionLattice,
    FaultGraph,
    find_minimum_state_fusion,
    generate_fusion,
    machine_from_partition,
)
from repro.io import fault_graph_to_dot, lattice_to_dot
from repro.machines import fig2_cross_product, fig2_machines, fig3_partition


def show_lattice(product) -> None:
    lattice = ClosedPartitionLattice(product.machine)
    print("closed partition lattice of R({A, B}): %d elements" % lattice.size)
    for index, partition in enumerate(lattice.partitions):
        blocks = [
            "{" + ",".join(str(product.machine.state_label(e)) for e in sorted(block)) + "}"
            for block in partition.blocks()
        ]
        print("  element %d (%d blocks): %s" % (index, partition.num_blocks, " ".join(blocks)))
    print()


def show_fault_graphs(product) -> None:
    names_sets = [("A",), ("A", "B"), ("A", "B", "M1", "M2")]
    for names in names_sets:
        graph = FaultGraph(
            product.num_states,
            [fig3_partition(name, product) for name in names],
            state_labels=product.machine.states,
        )
        print("G({%s}): dmin=%d" % (", ".join(names), graph.dmin()))
        for (left, right), weight in graph.as_label_dict().items():
            print("    d(%s, %s) = %d" % (left, right, weight))
    print()


def show_fusion_and_ablation(machines, product) -> None:
    greedy = generate_fusion(machines, f=2, product=product)
    optimal = find_minimum_state_fusion(machines, f=2, product=product)
    print("Algorithm 2 (greedy)  : backups %s, state space %d" % (list(greedy.backup_sizes), greedy.fusion_state_space))
    print("Exhaustive optimum    : backups %s, state space %d" % (list(optimal.backup_sizes), optimal.fusion_state_space))
    print()


def show_byzantine_recovery(machines, product) -> None:
    # Back the system with the basis machines M1 and M2 (a (2, 2)-fusion),
    # which tolerates one Byzantine fault.
    backups = [
        machine_from_partition(product.machine, fig3_partition(name, product), name=name)
        for name in ("M1", "M2")
    ]
    engine = BatchRecovery(product, backups)
    workload = [0, 1, 0, 0, 1, 1, 0]
    observations = {m.name: m.run(workload) for m in list(machines) + backups}
    truth = dict(observations)
    # Machine B lies about its state.
    wrong = [s for s in machines[1].states if s != truth["B"]][0]
    observations["B"] = wrong
    outcome = engine.recover_from_byzantine(observations)
    print("Byzantine run: B lied (%r instead of %r)" % (wrong, truth["B"]))
    print("  recovered global state: %r" % (outcome.top_state,))
    print("  machines caught lying : %s" % (outcome.suspected_byzantine,))
    print("  B restored to          : %r" % outcome.machine_states["B"])
    assert outcome.machine_states["B"] == truth["B"]
    print()


def main() -> None:
    machines = list(fig2_machines())
    product = fig2_cross_product()
    show_lattice(product)
    show_fault_graphs(product)
    show_fusion_and_ablation(machines, product)
    show_byzantine_recovery(machines, product)

    lattice = ClosedPartitionLattice(product.machine)
    print("DOT export sizes: lattice=%d chars, fault graph=%d chars" % (
        len(lattice_to_dot(lattice)),
        len(fault_graph_to_dot(FaultGraph.from_cross_product(product))),
    ))


if __name__ == "__main__":
    main()
