"""The protocol mixes of the catalog: the sparse prune's flagships.

``mesi+counters-9`` (top = 78732) and ``mesi+counters-10``
(top = 236196) take 13-23 s each, so they run outside tier-1 with
``mesi+counters-8`` (top = 26244, 3-4 s); the file name is not
collected by the default ``test_*.py`` glob.  Run them as::

    PYTHONPATH=src python -m pytest -q tests/smoke/flagship_mesi_counters.py

Each case is fused once by :func:`fuse_case` (frozen summary, 60 s
guard, stage accounting); the two largest then check their prune
statistics.
"""

from __future__ import annotations

from ..integration.test_generation_cases import fuse_case


def test_mesi_counters8_is_frozen_within_guard():
    fuse_case("mesi+counters-8 (top=26244)")


def test_mesi_counters9_prunes_untruncated():
    """The failure-dominated levels seed from the ones above and the
    fixpoint converges without a budgeted stop."""
    result, stages = fuse_case("mesi+counters-9 (top=78732)")
    assert result.graph.is_sparse
    prune = stages["prune"]
    assert prune["rounds"] >= 1
    assert prune["seeded"] > 0
    assert prune["truncated"] == 0


def test_mesi_counters10_truncates_at_most_once():
    """The top level deliberately truncates: converging it costs far
    more expansion than the exact closure checks it saves (see
    ``fusion._PRUNE_BUDGET``).  The trade must stay visible and bounded:
    at most one budgeted stop, reported."""
    result, stages = fuse_case("mesi+counters-10 (top=236196)")
    assert result.graph.is_sparse
    prune = stages["prune"]
    assert prune["seeded"] > 0
    assert prune["truncated"] <= 1
