"""Algorithm 2 on the workload catalog: frozen outputs inside the runtime bound.

Every case of :data:`repro.machines.catalog.CASES` is fused once at
``f = 1`` by :func:`fuse_case`, which checks three things:

* the summary equals the frozen :data:`EXPECTED_SUMMARIES` entry;
* the call finishes inside the case's wall-clock guard, at most the
  paper's practicality bound of 60 s;
* the stopwatch's stages account for themselves: each exclusive time
  lies within its inclusive time, ``descent`` is its exclusive time
  plus the nested ``prune`` and ``closure`` times, and a prune
  that ran spent work.

The guards are generous absolute bounds, so a gross regression fails on
a runner of unknown speed without flaking on a slow one; ``perfbench/``
is the measurement.  The two sparse counter flagships also check that
they stayed sparse.  The ``mesi+counters`` cases run outside tier-1,
through :func:`fuse_case`, in ``tests/smoke/flagship_mesi_counters.py``.
"""

from __future__ import annotations

import time

import pytest

from repro import generate_fusion
from repro.core.exceptions import PartitionError
from repro.machines.catalog import CASES, EXPECTED_SUMMARIES, GENERATION_CASES
from repro.utils.timing import Stopwatch

#: Seconds each case may take.
WALL_CLOCK_GUARDS = {
    "counters-3 (top=27)": 5.0,
    "mesi+tcp (top=44)": 10.0,
    "counters-5 (top=243)": 10.0,
    "mesi+counters+shift (top~252)": 15.0,
    "counters-6 (top=729)": 30.0,
    "counters-9 (top=19683)": 60.0,
    "counters-10 (top=59049)": 60.0,
    "mesi+counters-8 (top=26244)": 60.0,
    "mesi+counters-9 (top=78732)": 60.0,
    "mesi+counters-10 (top=236196)": 60.0,
}


def fuse_case(case):
    """Fuse catalog case ``case`` once at ``f = 1`` and check its summary,
    guard and stage accounting; returns the result and its stages."""
    watch = Stopwatch()
    start = time.perf_counter()
    result = generate_fusion(CASES[case](), f=1, stopwatch=watch)
    elapsed = time.perf_counter() - start
    assert result.summary() == EXPECTED_SUMMARIES[case]
    assert elapsed < WALL_CLOCK_GUARDS[case], "%s took %.2fs, guard is %.1fs" % (
        case, elapsed, WALL_CLOCK_GUARDS[case]
    )
    stages = watch.as_dict()
    for stage, entry in stages.items():
        assert -1e-6 <= entry["exclusive_seconds"] <= entry["seconds"] + 1e-6, stage
    if "descent" in stages:
        nested = sum(stages[name]["seconds"] for name in ("prune", "closure") if name in stages)
        descent = stages["descent"]
        assert abs(descent["seconds"] - descent["exclusive_seconds"] - nested) <= 1e-3
    if "prune" in stages:
        assert stages["prune"]["spent"] > 0, "the prune ran but spent nothing"
    return result, stages


def assert_stays_sparse(result, nnz_below):
    """The run kept the ledger graph: a small fraction of the pair space
    stored, and the ``O(n^2)`` dense export refused."""
    assert result.graph.is_sparse
    assert result.graph.ledger is not None and result.graph.ledger.nnz < nnz_below
    with pytest.raises(PartitionError):
        result.graph.condensed_weights


@pytest.mark.parametrize("case", list(GENERATION_CASES))
def test_case_is_frozen_within_guard(case):
    fuse_case(case)


def test_counters9_stays_sparse():
    """top = 19683: the dense condensed vector alone would be ~1.5 GB."""
    result, _ = fuse_case("counters-9 (top=19683)")
    assert_stays_sparse(result, nnz_below=10**6)


def test_counters10_stays_sparse():
    """top = 59049: the Hamming ball stores a small fraction of the
    1.7 G-pair space."""
    result, _ = fuse_case("counters-10 (top=59049)")
    assert_stays_sparse(result, nnz_below=4 * 10**6)
