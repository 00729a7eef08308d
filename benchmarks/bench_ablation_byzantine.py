"""Ablation: crash versus Byzantine fault tolerance (Theorem 1 vs Theorem 2).

Tolerating f Byzantine faults needs dmin > 2f instead of dmin > f, so the
backup requirements double relative to the crash case.  This ablation
quantifies that factor for the paper's worked examples and checks the
replication comparison under both fault models.
"""

from __future__ import annotations

import pytest

from repro import (
    generate_byzantine_fusion,
    generate_fusion,
    replication_backup_count,
)
from repro.machines import fig1_counter_a, fig1_counter_b, fig2_machines

from conftest import paper_vs_measured


CASES = {
    "fig2-A-B": lambda: list(fig2_machines()),
    "fig1-counters": lambda: [fig1_counter_a(), fig1_counter_b()],
}


@pytest.mark.parametrize("case", list(CASES))
@pytest.mark.parametrize("f", [1, 2])
def test_crash_vs_byzantine_backup_requirements(case, f, benchmark, report):
    machines = CASES[case]()

    def run():
        crash = generate_fusion(machines, f)
        byzantine = generate_byzantine_fusion(machines, f)
        return crash, byzantine

    crash, byzantine = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        paper_vs_measured(
            "Crash vs Byzantine, %s, f=%d" % (case, f),
            {
                "crash_target_dmin": f + 1,
                "byz_target_dmin": 2 * f + 1,
                "replication_backups_crash": replication_backup_count(len(machines), f),
                "replication_backups_byz": replication_backup_count(len(machines), f, byzantine=True),
            },
            {
                "crash_backups": crash.num_backups,
                "crash_sizes": list(crash.backup_sizes),
                "byz_backups": byzantine.num_backups,
                "byz_sizes": list(byzantine.backup_sizes),
                "crash_dmin": crash.final_dmin,
                "byz_dmin": byzantine.final_dmin,
            },
        )
    )
    assert crash.final_dmin > f
    assert byzantine.final_dmin > 2 * f
    assert byzantine.num_backups >= crash.num_backups
    # The Byzantine system tolerates f lying machines (Theorem 2).
    assert byzantine.byzantine_f >= f


def test_byzantine_detection_quality(benchmark, report):
    """The recovered outcome names exactly the machines that lied."""
    from repro import BatchRecovery
    from repro.simulation import WorkloadGenerator

    machines = [fig1_counter_a(), fig1_counter_b()]
    fusion = generate_byzantine_fusion(machines, 1)
    engine = BatchRecovery(fusion.product, fusion.backups)
    workload = WorkloadGenerator((0, 1), seed=3).uniform(40)
    observations = {m.name: m.run(workload) for m in fusion.all_machines}
    truth = dict(observations)
    liar = machines[0].name
    observations[liar] = "c0" if truth[liar] != "c0" else "c1"

    def recover():
        return engine.recover_from_byzantine(observations)

    outcome = benchmark(recover)
    report(
        paper_vs_measured(
            "Byzantine detection (one liar among %d machines)" % len(observations),
            {"suspected": [liar]},
            {"suspected": list(outcome.suspected_byzantine)},
        )
    )
    assert outcome.suspected_byzantine == (liar,)
    assert outcome.machine_states[liar] == truth[liar]
