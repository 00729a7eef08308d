"""Re-export of the workload catalog's machine zoo as ``_zoo``.

This shim exists only until ``perfbench/workloads.py`` imports
:mod:`repro.machines.catalog` directly; that file changes only together
with the benchmark.  Nothing else imports this module.
"""

from repro.machines.catalog import zoo as _zoo  # noqa: F401
