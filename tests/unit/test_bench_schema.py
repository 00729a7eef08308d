"""Schema check for the committed ``BENCH_perf.json`` trajectory.

The perf harness (``benchmarks/bench_perf_regression.py``) validates the
payload it *writes*; this test validates the file actually committed at
the repository root, so a stale or hand-edited trajectory fails tier-1
CI.  The load-bearing part is the ``prune_stats`` block: every case must
carry the doomed-pair fixpoint's structural outcome (rounds, budget
spend, cross-level seeding and — above all — the truncation count), so
silent under-pruning can never hide in the timing noise.
"""

from __future__ import annotations

import json
import os

PRUNE_STATS_FIELDS = (
    "calls", "rounds", "forward_rounds", "spent", "truncated", "seeded",
)

RESILIENCE_STATS_FIELDS = (
    "crashes", "timeouts", "rebuilds", "republished", "retries", "degraded", "chaos",
)

_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
BENCH_PATH = os.path.join(_ROOT, "BENCH_perf.json")


def _payload():
    with open(BENCH_PATH) as handle:
        return json.load(handle)


def test_bench_schema_version():
    assert _payload()["schema"] == "repro-bench-perf/8"


def test_resources_block_records_governor_degradation_evidence():
    """Schema v8: the resource governor's evidence travels with the file.

    The committed trajectory must carry the low-budget smoke's proof
    (``benchmarks/bench_resource_smoke.py``): the flagship rerun under a
    tiny memory budget, in which the ledger merges actually spilled to
    external sorted runs, and a pooled fleet on a ``/dev/shm`` reporting
    no free space, in which a publish actually fell back to a
    file-backed segment.  Both finished byte-identical to their
    references with identical ``prune_stats`` and zero stranded
    segments.
    """
    resources = _payload().get("resources")
    assert resources is not None, "BENCH_perf.json is missing the resources block"
    assert resources["case"] == "counters-9 (top=19683)"
    assert resources["budget"].get("memory"), "no memory budget was applied"
    assert resources["shm_free_bytes"] == 0, "/dev/shm was not made to look full"
    assert resources["workers"] >= 2
    assert resources["byte_identical"] is True
    assert resources["prune_stats_equal"] is True
    assert resources["run_seconds"] > 0
    stats = resources["stats"]
    assert stats["spills"] >= 1, "the budget never forced a spill"
    assert stats["spilled_bytes"] > 0
    assert stats["shm_fallbacks"] >= 1, "no file-backed fallback happened"
    assert stats["mem_peak"] > 0
    for field, value in stats.items():
        assert isinstance(value, int) and value >= 0, field
    assert resources["shm_stranded"] == 0


def test_network_block_records_fabric_resilience_evidence():
    """Schema v7: the adversarial fabric's evidence travels with the file.

    The committed trajectory must carry the network smoke's proof
    (``benchmarks/bench_network_chaos_smoke.py``): a seeded
    drop/reorder/partition schedule that actually fired (``dropped >
    0``), defeated byte-identically to the fabric-free reference on
    both execution engines, an f-sweep covering ``f = 1..3`` in which
    every supervised chaos run stayed healthy, and zero stranded
    ``/dev/shm`` segments.
    """
    network = _payload().get("network")
    assert network is not None, "BENCH_perf.json is missing the network block"
    assert network["case"] == "zoo-f2 (tcp+mesi+parity+counter)"
    assert "drop=" in network["chaos"] and "partition=" in network["chaos"]
    assert network["fault_free_equivalent"] is True
    assert set(network["engines"]) == {"vectorized", "python"}
    delivery = network["delivery"]
    assert delivery["delivered"] > 0
    assert delivery["dropped"] > 0, "the chaos schedule never fired"
    for outcome, count in delivery.items():
        assert isinstance(count, int) and count >= 0, outcome
    assert network["shm_stranded"] == 0
    sweep = {entry["f"]: entry for entry in network["f_sweep"]}
    assert sorted(sweep) == [1, 2, 3]
    for f, entry in sweep.items():
        assert entry["status"] == "healthy", f
        assert entry["fusion_seconds"] > 0, f
        assert entry["delivered"] > 0, f
        assert entry["backups"] >= 1, f
        assert entry["fleet"] > entry["backups"], f
    # Redundancy grows with f: each extra tolerated fault adds backups.
    assert sweep[1]["backups"] <= sweep[2]["backups"] <= sweep[3]["backups"]


def test_store_block_records_crash_recovery_evidence():
    """Schema v6: the artifact store's durability proof travels with the file.

    The committed trajectory must carry the crash smoke's evidence
    (``benchmarks/bench_store_smoke.py``): a seeded SIGKILL between
    descent levels, a chaos-free resume that reclaimed the dead owner's
    lock and replayed at least one committed checkpoint byte-identically,
    and a warm-cache hit that recomputed nothing — no ``product_build``,
    ``ledger_build`` or ``descent`` stage, zero commits — faster than
    the resumed computation it short-circuits.
    """
    store = _payload().get("store")
    assert store is not None, "BENCH_perf.json is missing the store block"
    assert store["case"] == "counters-9 (top=19683)"
    assert "kill_between_levels" in store["chaos"]
    assert store["byte_identical"] is True
    resume = store["resume_stats"]
    assert resume["resumed_levels"] >= 1, "the resume replayed no checkpoint"
    assert resume["stale_locks"] >= 1, "the dead owner's lock was never reclaimed"
    assert resume["checkpoints"] >= 1
    assert store["warm_hit_seconds"] > 0
    assert store["warm_hit_seconds"] < store["resume_seconds"]
    warm = store["store_stats"]
    assert warm["commits"] == 0, "a warm hit must write nothing"
    assert warm["hits"] >= 1 and warm["quarantined"] == 0
    assert not {"product_build", "ledger_build", "descent"} & set(
        store["warm_stages"]
    )
    for stats in (resume, warm):
        for field, value in stats.items():
            assert isinstance(value, int), field


def test_runtime_block_records_fleet_scale_throughput():
    """Schema v5: the streaming engine's trajectory travels with the file.

    The committed trajectory must include a fleet of at least 10^5
    instances with a plausible events/sec figure and *fault-injected*
    recovery latency — both the crash and the Byzantine plan, each
    verified to have round-tripped (recovery restored ground truth)
    before the latency was recorded.
    """
    runtime = _payload().get("runtime")
    assert runtime is not None, "BENCH_perf.json is missing the runtime block"
    cases = runtime["cases"]
    assert cases, "runtime block has no cases"
    assert max(record["num_instances"] for record in cases.values()) >= 100_000
    for name, record in cases.items():
        assert record["events_per_sec"] > 0, name
        assert record["broadcast_events_per_sec"] > 0, name
        recovery = record["recovery"]
        assert recovery["faulty_instances"] >= 1, name
        for kind in ("crash", "byzantine"):
            entry = recovery[kind]
            assert entry["seconds"] > 0, (name, kind)
            assert entry["consistent_after"] is True, (name, kind)
            assert entry["faults"], (name, kind)


def test_every_stage_carries_consistent_exclusive_seconds():
    """Schema v3: stages report exclusive (nesting-corrected) seconds.

    ``prune`` and ``closure`` run *inside* ``descent``, so inclusive
    per-stage seconds overlap by design; the exclusive figures must be
    bounded by the inclusive ones and account for the descent exactly —
    that is what makes per-stage attribution in the trajectory additive.
    """
    for name, record in _payload()["cases"].items():
        stages = record["stages"]
        for stage, entry in stages.items():
            assert "exclusive_seconds" in entry, (name, stage)
            assert -1e-6 <= entry["exclusive_seconds"] <= entry["seconds"] + 1e-6, (
                name,
                stage,
            )
        if "descent" in stages:
            nested = sum(
                stages[child]["seconds"]
                for child in ("prune", "closure")
                if child in stages
            )
            descent = stages["descent"]
            assert (
                abs(descent["seconds"] - descent["exclusive_seconds"] - nested)
                <= 1e-3
            ), name


def test_every_case_carries_prune_stats():
    cases = _payload()["cases"]
    assert cases, "BENCH_perf.json has no cases"
    for name, record in cases.items():
        stats = record.get("prune_stats")
        assert stats is not None, "%s is missing prune_stats" % name
        assert sorted(stats) == sorted(PRUNE_STATS_FIELDS), name
        for field in PRUNE_STATS_FIELDS:
            assert isinstance(stats[field], int), (name, field)
        # Structural sanity: a case that pruned spent work doing so, and
        # cases that never pruned report all-zero stats.
        if stats["calls"] == 0:
            assert stats["rounds"] == 0 and stats["spent"] == 0
        else:
            assert stats["spent"] > 0


def test_every_case_carries_resilience_stats():
    """Schema v4: the self-healing layer's counters travel with the case.

    A committed trajectory must come from a healthy run: no crashes, no
    watchdog timeouts, no degradations and no chaos injection — the
    block's purpose is to make any such activity impossible to miss.
    """
    cases = _payload()["cases"]
    for name, record in cases.items():
        stats = record.get("resilience_stats")
        assert stats is not None, "%s is missing resilience_stats" % name
        assert sorted(stats) == sorted(RESILIENCE_STATS_FIELDS), name
        for field in RESILIENCE_STATS_FIELDS:
            assert isinstance(stats[field], int), (name, field)
            assert stats[field] == 0, (
                "%s recorded resilience activity (%s=%d); committed "
                "trajectories must come from fault-free runs"
                % (name, field, stats[field])
            )


def test_flagship_mix_case_is_recorded_untruncated():
    """The PR-4 flagship must be present, inside the guard, not truncated."""
    record = _payload()["cases"]["mesi+counters-9 (top=78732)"]
    assert record["summary"]["top_size"] == 78732
    assert record["seconds"] < 60.0
    assert record["engine"] == "sparse"
    assert record["prune_stats"]["truncated"] == 0
    assert record["prune_stats"]["seeded"] > 0


def test_narrow_key_flagship_is_recorded_with_first_figure_pinned():
    """The PR-5 flagship: present, inside the guard, introduction pinned.

    Its top level deliberately truncates the pruning fixpoint (the
    budgeted stop is ~65 s cheaper than convergence and costs ~1.5 s of
    extra closure checks); the stats must *report* that — at most the
    one budgeted stop — rather than hide it.
    """
    record = _payload()["cases"]["mesi+counters-10 (top=236196)"]
    assert record["summary"]["top_size"] == 236196
    assert record["seconds"] < 60.0
    assert record["engine"] == "sparse"
    assert record["first_recorded_seconds"] is not None
    assert record["prune_stats"]["truncated"] <= 1
    assert record["prune_stats"]["seeded"] > 0
