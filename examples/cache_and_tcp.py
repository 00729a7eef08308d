#!/usr/bin/env python3
"""Protocol machines: fusing a MESI cache controller with a TCP connection FSM.

The paper's evaluation uses "real world DFSMs" — the MESI cache-coherence
controller and the RFC 793 TCP connection machine.  This example mirrors
its Table 1, row 4 setup (MESI, TCP, A, B with f = 1):

1. build the four machines and inspect the reachable cross product;
2. generate the fusion backup and contrast it with replication;
3. exercise the fault graph / dmin API directly, the way Section 3 does;
4. crash the TCP machine mid-connection and recover its state exactly.

Run with::

    python examples/cache_and_tcp.py
"""

from __future__ import annotations

from repro import BatchRecovery, CrossProduct, FaultGraph, generate_fusion, replication_state_space
from repro.io import machine_to_dot
from repro.machines import fig2_machine_a, fig2_machine_b, mesi, tcp
from repro.simulation import WorkloadGenerator, protocol_workload


def main() -> None:
    machines = [mesi(), tcp(), fig2_machine_a(), fig2_machine_b()]

    # 1. The top machine and the system's inherent fault tolerance.
    product = CrossProduct(machines)
    graph = FaultGraph.from_cross_product(product)
    print("machines:", ", ".join("%s(%d states)" % (m.name, m.num_states) for m in machines))
    print("reachable cross product: %d states" % product.num_states)
    print("dmin of the original set: %d (tolerates %d crash faults as-is)" % (graph.dmin(), graph.dmin() - 1))

    # 2. Fusion vs replication for one crash fault (Table 1, row 4 shape).
    fusion = generate_fusion(machines, f=1, product=product)
    print(
        "\nfusion backup: %d machine(s) with %s states (state space %d)"
        % (fusion.num_backups, list(fusion.backup_sizes), fusion.fusion_state_space)
    )
    print("replication would need %d extra machines with state space %d" % (len(machines), replication_state_space(machines, 1)))

    # 3. A concrete protocol run: the TCP machine performs a full handshake
    #    while the cache controller serves reads/writes; A and B watch the
    #    binary stream.  All events are merged into one global order.
    workload = protocol_workload(
        [
            ("active_open", 1),
            ("recv_syn_ack", 1),
            ("local_read", 2),
            ("local_write", 1),
            (0, 3),
            (1, 2),
            ("recv_fin", 1),
            ("bus_read", 1),
        ]
    )
    workload += WorkloadGenerator(product.machine.events, seed=5).uniform(40)

    observations = {m.name: m.run(workload) for m in fusion.all_machines}
    tcp_truth = observations["TCP"]
    print("\nTCP state after the workload: %r" % tcp_truth)

    # 4. Crash the TCP machine and recover its connection state exactly.
    observations["TCP"] = None
    engine = BatchRecovery(fusion.product, fusion.backups)
    outcome = engine.recover(observations)
    print("TCP state recovered after crash: %r" % outcome.machine_states["TCP"])
    assert outcome.machine_states["TCP"] == tcp_truth

    # Bonus: export the MESI controller as Graphviz DOT for documentation.
    dot = machine_to_dot(machines[0])
    print("\nMESI controller in DOT format (first lines):")
    print("\n".join(dot.splitlines()[:6]))


if __name__ == "__main__":
    main()
