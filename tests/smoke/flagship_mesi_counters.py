"""The protocol mixes of the catalog: the descent's flagships.

``mesi+counters-9`` (top = 78732) and ``mesi+counters-10``
(top = 236196) take 4-11 s each, so they run outside tier-1 with
``mesi+counters-8`` (top = 26244, about 2 s); the file name is not
collected by the default ``test_*.py`` glob.  Run them as::

    PYTHONPATH=src python -m pytest -q tests/smoke/flagship_mesi_counters.py

Each case is fused once by :func:`fuse_case` (frozen summary, 60 s
guard, stage accounting); the two largest then check that every dense
prune their descent ran converged.
"""

from __future__ import annotations

from ..integration.test_generation_cases import fuse_case


def test_mesi_counters8_is_frozen_within_guard():
    fuse_case("mesi+counters-8 (top=26244)")


def _assert_prunes_converged(stages):
    if "prune" in stages:
        assert stages["prune"]["truncated"] == 0


def test_mesi_counters9_is_frozen_and_prunes_converge():
    result, stages = fuse_case("mesi+counters-9 (top=78732)")
    assert result.graph.is_sparse
    _assert_prunes_converged(stages)


def test_mesi_counters10_is_frozen_and_prunes_converge():
    result, stages = fuse_case("mesi+counters-10 (top=236196)")
    assert result.graph.is_sparse
    _assert_prunes_converged(stages)
