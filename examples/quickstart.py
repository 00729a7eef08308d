#!/usr/bin/env python3
"""Quickstart: protect two counters against a crash fault with one fused backup.

This is the paper's Figure 1 example end to end:

1. build two mod-3 counters that watch different events of a shared stream;
2. ask Algorithm 2 for the backup machines needed to tolerate one crash;
3. run all machines on an event stream, crash one counter, and recover its
   state with Algorithm 3;
4. compare the cost against replication.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import BatchRecovery, generate_fusion, replication_state_space
from repro.machines import mod_counter


def main() -> None:
    # 1. Two counters observing a shared binary event stream: one counts 0s,
    #    the other counts 1s (Figure 1 of the paper).
    counter_zero = mod_counter(3, count_event=0, events=(0, 1), name="zero-counter")
    counter_one = mod_counter(3, count_event=1, events=(0, 1), name="one-counter")
    machines = [counter_zero, counter_one]

    # 2. Generate the fusion backups for f = 1 crash fault.
    fusion = generate_fusion(machines, f=1)
    print("Top machine (reachable cross product) has %d states" % fusion.top_size)
    print(
        "Algorithm 2 produced %d backup machine(s) with sizes %s"
        % (fusion.num_backups, list(fusion.backup_sizes))
    )
    print(
        "Backup state space: fusion=%d vs replication=%d"
        % (fusion.fusion_state_space, replication_state_space(machines, 1))
    )

    # 3. Execute a workload on every machine (original + backup), then crash
    #    the zero-counter and recover its state from the survivors.
    workload = [0, 1, 1, 0, 0, 1, 0, 0, 1, 1, 0]
    observations = {m.name: m.run(workload) for m in fusion.all_machines}
    true_state = observations["zero-counter"]
    observations["zero-counter"] = None  # the crash: its execution state is lost

    engine = BatchRecovery(fusion.product, fusion.backups)
    outcome = engine.recover(observations)
    print("\nAfter the crash, Algorithm 3 recovered the global state %r" % (outcome.top_state,))
    print(
        "zero-counter state: recovered=%r, ground truth=%r"
        % (outcome.machine_states["zero-counter"], true_state)
    )
    assert outcome.machine_states["zero-counter"] == true_state

    # 4. The same recovery also yields every other machine's state for free.
    for name, state in sorted(outcome.machine_states.items()):
        print("  %-14s -> %r" % (name, state))


if __name__ == "__main__":
    main()
