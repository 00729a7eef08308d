"""Re-export of the workload catalog's ``CASES`` and ``EXPECTED_SUMMARIES``.

This shim exists only until ``perfbench/workloads.py`` imports
:mod:`repro.machines.catalog` directly; that file changes only together
with the benchmark.  Nothing else imports this module.
"""

from repro.machines.catalog import CASES, EXPECTED_SUMMARIES  # noqa: F401
