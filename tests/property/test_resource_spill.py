"""Property: a forced spill never changes a fusion's bytes.

The spill path (:func:`repro.core.budget.external_sort_unique`) replaces
the sparse engine's in-memory ``sort + dedup`` merges with external
sorted runs on scratch.  Because the packed pair keys are plain
integers and set union is associative, the route through disk must be
invisible in the result: a fusion generated under a deliberately tiny
``REPRO_MEMORY_BUDGET`` — every governed merge spills — must produce
partition bytes, summaries *and* ``prune_stats`` identical to the
unbounded run, at every worker count.

At the counters-9 scale the starved fusion is then run as a pooled fleet
while ``/dev/shm`` reports no free space: every publish falls back to a
file-backed segment and the fleet still equals a serial one.

Randomised leg: :class:`hypothesis` drives ``external_sort_unique``
directly against ``np.unique`` over adversarial part shapes (empty
parts, all-duplicates, single elements, window smaller than any part).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.shm as shm_module
from repro.core.budget import external_sort_unique
from repro.core.fusion import generate_fusion
from repro.core.resilience import assert_no_owned_segments
from repro.core.runtime import VectorizedRuntime
from repro.core.shm import SharedWorkerPool
from repro.machines.catalog import counters_family
from repro.utils.timing import Stopwatch


#: Forces the spill path on every governed merge: far below the
#: multi-megabyte transient peaks of the counters-8/9 merge folds, far
#: above nothing (the spill windows still make progress).
TINY_MEMORY = {"memory": 4096}

CASES = {
    "counters-8": lambda: counters_family(8),
    "counters-9": lambda: counters_family(9),
}


def _labels_digest(result) -> str:
    digest = hashlib.sha256()
    for partition in result.partitions:
        digest.update(np.ascontiguousarray(partition.labels).tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def references():
    """Unbounded ground truth per case, computed once for the module."""
    out = {}
    for case, build in CASES.items():
        watch = Stopwatch()
        result = generate_fusion(build(), f=1, workers=1, stopwatch=watch)
        out[case] = (
            _labels_digest(result),
            result.summary(),
            dict(watch.extras("prune")),
        )
    return out


class TestForcedSpillByteIdentity:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_spilled_fusion_matches_unbounded(self, case, workers, references):
        """Tiny memory budget, any worker count: identical bytes and stats."""
        ref_digest, ref_summary, ref_prune = references[case]
        watch = Stopwatch()
        result = generate_fusion(
            CASES[case](),
            f=1,
            workers=workers,
            budget=TINY_MEMORY,
            stopwatch=watch,
        )
        assert _labels_digest(result) == ref_digest
        assert result.summary() == ref_summary
        assert dict(watch.extras("prune")) == ref_prune
        resources = watch.extras("resources")
        assert resources["spills"] >= 1, "the tiny budget never forced a spill"
        assert resources["spilled_bytes"] > 0
        assert resources["mem_peak"] > TINY_MEMORY["memory"]
        assert_no_owned_segments()


def _run_fleet(machines, pool):
    """Final ``(true, visible, status)`` matrices of a seeded fleet at the
    runtime's default pool gate (2^16 instances): every step pools."""
    instances = 1 << 16
    matrix = np.random.default_rng(17).integers(0, 9, size=(4, instances))
    with VectorizedRuntime(machines, instances, pool=pool, workers=0) as runtime:
        runtime.apply_event_matrix(matrix)
        return runtime.true_states, runtime.visible_states, runtime.statuses


@pytest.mark.usefixtures("no_stray_segments")
def test_starved_counters9_then_full_shm_fleet(references, monkeypatch):
    """A 1 MB budget is still below the counters-9 merge peak (tens of
    MB), so the fusion spills; its pooled 2-worker fleet then sees no
    free ``/dev/shm`` and publishes to file-backed segments.  Graceful
    degradation may cost time, never bytes."""
    monkeypatch.delenv("REPRO_CHAOS", raising=False)
    ref_digest, ref_summary, ref_prune = references["counters-9"]
    watch = Stopwatch()
    starved = generate_fusion(
        counters_family(9), f=1, workers=2, stopwatch=watch, budget={"memory": "1M"}
    )
    assert _labels_digest(starved) == ref_digest
    assert starved.summary() == ref_summary
    assert dict(watch.extras("prune")) == ref_prune
    resources = watch.extras("resources")
    assert resources["spills"] >= 1, "the memory budget never forced a spill"
    assert resources["spilled_bytes"] > 0

    serial = _run_fleet(starved.all_machines, pool=None)
    monkeypatch.setattr(shm_module, "shm_free_bytes", lambda path="/dev/shm": 0)
    pool = SharedWorkerPool(2)
    try:
        pooled = _run_fleet(starved.all_machines, pool)
    finally:
        pool.close()
    for ours, theirs in zip(pooled, serial):
        assert np.array_equal(ours, theirs)
    assert pool.shm_fallbacks >= 1, "a full /dev/shm never forced a file-backed fallback"
    assert_no_owned_segments()


class TestExternalMergeProperty:
    @settings(max_examples=60, deadline=None)
    @given(
        data=st.lists(
            st.lists(st.integers(min_value=-(2**40), max_value=2**40), max_size=80),
            min_size=1,
            max_size=6,
        ),
        window=st.integers(min_value=2, max_value=32),
    )
    def test_matches_numpy_unique(self, tmp_path_factory, data, window):
        scratch = str(tmp_path_factory.mktemp("spill"))
        parts = [np.asarray(chunk, dtype=np.int64) for chunk in data]
        merged = external_sort_unique(parts, scratch, window=window)
        expected = np.unique(np.concatenate(parts)) if any(
            p.size for p in parts
        ) else np.empty(0, np.int64)
        np.testing.assert_array_equal(merged, expected)
        assert merged.tobytes() == expected.astype(np.int64).tobytes()
