"""Benchmark: the five rows of the paper's results table (Section 6).

For each row the harness rebuilds the paper's machine set, runs
Algorithm 2, and prints the paper's columns next to the measured ones:

    Original Machines | f | |top| | |Backup Machines| | |Replication| | |Fusion|

The |Replication| column matches the paper exactly (it depends only on
machine sizes and f).  |top|, backup sizes and |Fusion| depend on the
authors' unpublished transition tables / alphabets, so the assertions
check the paper's *shape*: fusion needs orders of magnitude less backup
state space than replication and the generated system tolerates the
requested number of faults.
"""

from __future__ import annotations

import pytest

from repro.analysis import format_comparison_table, table1_configuration
from repro.utils import validate_fusion_result
from repro.core import generate_fusion

from conftest import paper_vs_measured


def _run_row(row_id, benchmark, report):
    config = table1_configuration(row_id)

    def build():
        return config.run()

    row = benchmark.pedantic(build, rounds=1, iterations=1)
    report(
        paper_vs_measured(
            "Table 1, row %d — %s (f=%d)" % (row_id, config.description, config.f),
            {
                "top_size": config.paper.top_size,
                "backup_sizes": list(config.paper.backup_sizes),
                "replication": config.paper.replication_space,
                "fusion": config.paper.fusion_space,
            },
            {
                "top_size": row.top_size,
                "backup_sizes": list(row.backup_sizes),
                "replication": row.replication_space,
                "fusion": row.fusion_space,
            },
        )
        + "\n"
        + format_comparison_table([row])
    )
    # Shape assertions (see EXPERIMENTS.md for the exact-vs-shape policy).
    assert row.replication_space == config.paper.replication_space
    assert row.fusion_space < row.replication_space
    assert row.final_dmin > config.f
    assert all(size <= row.top_size for size in row.backup_sizes)
    return row


@pytest.mark.parametrize("row_id", [1, 2, 3, 4, 5])
def test_table1_row(row_id, benchmark, report):
    """One benchmark per results-table row."""
    _run_row(row_id, benchmark, report)


def test_table1_row3_fusion_is_recoverable(benchmark, report):
    """Row 3 end-to-end: the generated backups actually recover f crashes."""
    from repro.core import BatchRecovery
    from repro.simulation import WorkloadGenerator

    config = table1_configuration(3)
    fusion = generate_fusion(list(config.machines), config.f)
    validate_fusion_result(fusion)
    engine = BatchRecovery(fusion.product, fusion.backups)
    workload = WorkloadGenerator((0, 1), seed=0).uniform(50)
    observations = {m.name: m.run(workload) for m in fusion.all_machines}
    truth = dict(observations)
    victims = [config.machines[0].name, config.machines[2].name]
    for victim in victims:
        observations[victim] = None

    def recover():
        return engine.recover(observations)

    outcome = benchmark(recover)
    for victim in victims:
        assert outcome.machine_states[victim] == truth[victim]
    report("Row 3 recovery after %d crashes: recovered states verified" % len(victims))
