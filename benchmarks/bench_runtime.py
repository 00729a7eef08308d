"""Benchmark: Algorithm 2 generation time as a function of the top size.

The paper reports that its Java implementation generated every backup set
within 13.2 minutes and argues the algorithm is polynomial in |top|.
Absolute times are not comparable across languages and machines; the
claim reproduced here is the *shape*: generation time stays practical as
|top| grows over an order of magnitude, and recovery (Algorithm 3) is
linear in the number of machines.
"""

from __future__ import annotations

import pytest

from repro import BatchRecovery, generate_fusion
from repro.analysis import time_fusion_generation
from repro.machines import mod_counter
from repro.machines.catalog import GENERATION_CASES

from conftest import paper_vs_measured


@pytest.mark.parametrize("case", list(GENERATION_CASES))
def test_generation_time_vs_top_size(case, benchmark, report):
    machines = GENERATION_CASES[case]()

    def run():
        return time_fusion_generation(machines, f=1)

    result, timing = benchmark.pedantic(run, rounds=1, iterations=1)
    report(
        paper_vs_measured(
            "Algorithm 2 runtime — %s" % case,
            {"max_runtime": "13.2 min (Java, 2009 hardware)"},
            {
                "top_size": timing.top_size,
                "seconds": round(timing.seconds, 3),
                "backups": list(result.backup_sizes),
            },
        )
    )
    # Practicality bound: every case finishes within a minute on laptop hardware.
    assert timing.seconds < 60.0


@pytest.mark.parametrize("num_machines", [2, 4, 8])
def test_recovery_time_vs_machine_count(num_machines, benchmark, report):
    """Algorithm 3 is O((n + m) * N): measure the vote over growing systems."""
    events = tuple(range(num_machines))
    machines = [
        mod_counter(3, count_event=e, events=events, name="m%d" % e) for e in range(num_machines)
    ]
    fusion = generate_fusion(machines, f=1)
    engine = BatchRecovery(fusion.product, fusion.backups)
    workload = [e for e in range(num_machines)] * 5
    observations = {m.name: m.run(workload) for m in fusion.all_machines}
    observations[machines[0].name] = None

    def recover():
        return engine.recover(observations)

    outcome = benchmark(recover)
    report(
        paper_vs_measured(
            "Algorithm 3 recovery — %d machines" % num_machines,
            {"complexity": "O((n+m) N)"},
            {"machines": num_machines + fusion.num_backups, "top_size": fusion.top_size},
        )
    )
    assert outcome.machine_states[machines[0].name] == machines[0].run(workload)
