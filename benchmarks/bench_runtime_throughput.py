"""Streaming-runtime throughput: events/sec at fleet scale, plus
fault-injected batched-recovery latency.

Where ``bench_perf_regression.py`` tracks the *offline* half (Algorithm 2
fusion generation), this suite tracks the *online* half introduced with
the vectorized runtime: ``N`` concurrent instances of one fused machine
set stepped as transition-table gathers
(:class:`repro.core.runtime.VectorizedRuntime`), and Algorithm 3 run as
one batched vote over whole cohorts of faulty instances
(:class:`repro.core.runtime.BatchRecovery`).

Per fleet size (10^5 and 10^6 instances; small sizes under ``--smoke``)
the suite records:

* ``events_per_sec`` — per-instance event matrix stepping (each instance
  consuming its own stream; one ``table[S, E]`` gather per machine and
  step);
* ``broadcast_events_per_sec`` — shared globally-ordered stream stepping
  (the composed-map fast path, cost mostly independent of ``N``);
* ``recovery`` — latency of one :func:`repro.core.runtime.recover_fleet`
  pass over a 10 % faulty cohort, under a crash plan (two machines of
  every faulty instance crash) and under a Byzantine plan (one machine
  lies), both drawn from the existing
  :class:`repro.simulation.faults.FaultInjector` machinery and verified
  to round-trip (``is_consistent`` after recovery).

Results merge into ``BENCH_perf.json`` under a top-level ``"runtime"``
block (schema ``repro-bench-perf/5``); the fusion ``cases`` are left
untouched.  Regenerate with::

    PYTHONPATH=src python benchmarks/bench_runtime_throughput.py

``--smoke`` runs token fleet sizes and never writes (the CI throughput
smoke uses it, serially and with ``REPRO_FUSION_WORKERS=2``); it also
recovers a crash cohort and a liar cohort of a small counters-8 fleet
(top=6561), so CI exercises the vote on a top past 4096 states.
``--check`` validates the payload it just measured.
"""

from __future__ import annotations

import json
import os
import sys
import time
from typing import Dict, Optional, Sequence

_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)
_BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
if _BENCH_DIR not in sys.path:
    sys.path.insert(0, _BENCH_DIR)

from repro.core.fusion import generate_fusion
from repro.core.runtime import BatchRecovery, VectorizedRuntime, recover_fleet
from repro.core.shm import resolve_workers
from repro.machines import mod_counter
from repro.simulation.faults import FaultInjector, FaultKind
from repro.utils.rng import as_generator, derive_seed

from bench_perf_regression import RESULT_PATH, SCHEMA

#: Fleet widths for the committed trajectory (the acceptance criterion
#: asks for a throughput case at >= 10^5 instances) and for CI smoke.
FLEET_SIZES = (100_000, 1_000_000)
SMOKE_FLEET_SIZES = (2_000, 10_000)

#: Steps per throughput measurement and the faulty-cohort fraction.
STEPS = 20
FAULTY_FRACTION = 0.1

SEED = 0x5EED

#: Smoke-only large-top case: counters-8 (top=6561) at a CI-sized fleet.
LARGE_TOP_COUNTERS = 8
LARGE_TOP_INSTANCES = 2_000


def _fusion():
    """The counters-3 family fused for f=2 with the Byzantine margin.

    Five machines total (three originals, two backups), ``dmin`` deep
    enough to both correct two crashes and outvote one liar — so one
    fleet exercises both recovery paths the latency record reports.
    """
    machines = [
        mod_counter(3, count_event=e, events=(0, 1, 2), name="c%d" % e)
        for e in range(3)
    ]
    return generate_fusion(machines, f=2, byzantine=True)


def _large_top_fusion():
    """counters-8 (top=6561) fused for f=1 with the Byzantine margin: two
    backups, enough to correct two crashes or outvote one liar."""
    events = tuple(range(LARGE_TOP_COUNTERS))
    machines = [
        mod_counter(3, count_event=e, events=events, name="c%d" % e)
        for e in events
    ]
    return generate_fusion(machines, f=1, byzantine=True)


def _timed_recovery(runtime, recovery, faulty, expected_max_faults=None):
    start = time.perf_counter()
    recover_fleet(
        runtime, recovery, instances=faulty, expected_max_faults=expected_max_faults
    )
    elapsed = time.perf_counter() - start
    return {
        "seconds": round(elapsed, 6),
        "instances_per_sec": round(len(faulty) / elapsed),
        "consistent_after": runtime.is_consistent(),
    }


def run_case(
    num_instances: int,
    workers: Optional[int] = None,
    rounds: int = 1,
) -> Dict[str, object]:
    """Measure one fleet width; returns the case record."""
    fusion = _fusion()
    recovery = BatchRecovery(fusion.product, fusion.backups)
    names = [m.name for m in fusion.all_machines]
    generator = as_generator(derive_seed(SEED, "runtime-throughput", num_instances))
    matrix = generator.integers(0, 3, size=(STEPS, num_instances))
    stream = [int(e) for e in generator.integers(0, 3, size=STEPS)]
    injector = FaultInjector(names, seed=derive_seed(SEED, "plan", num_instances))

    with VectorizedRuntime(
        fusion.all_machines, num_instances, workers=workers
    ) as runtime:
        best_matrix = best_stream = float("inf")
        for _ in range(max(1, rounds)):
            start = time.perf_counter()
            runtime.apply_event_matrix(matrix)
            best_matrix = min(best_matrix, time.perf_counter() - start)
            start = time.perf_counter()
            runtime.apply_stream(stream)
            best_stream = min(best_stream, time.perf_counter() - start)

        recovery_record = _faulty_cohort_recoveries(
            runtime, recovery, fusion, generator, injector
        )

    return {
        "num_instances": num_instances,
        "num_machines": len(names),
        "steps": STEPS,
        "matrix_seconds": round(best_matrix, 6),
        "events_per_sec": round(num_instances * STEPS / best_matrix),
        "stream_seconds": round(best_stream, 6),
        "broadcast_events_per_sec": round(num_instances * STEPS / best_stream),
        "recovery": recovery_record,
    }


def _faulty_cohort_recoveries(runtime, recovery, fusion, generator, injector):
    """Crash a 10 % cohort, heal it, then plant liars in it and heal again."""
    names = [m.name for m in fusion.all_machines]
    num_instances = runtime.num_instances
    faulty = [
        int(i)
        for i in generator.choice(
            num_instances,
            size=max(1, int(num_instances * FAULTY_FRACTION)),
            replace=False,
        )
    ]

    crash_plan = injector.random_plan(
        num_crash=fusion.f, num_byzantine=0, workload_length=STEPS
    )
    for event in crash_plan.events:
        assert event.kind is FaultKind.CRASH
        runtime.crash_instances(names.index(event.server), faulty)
    crash_record = _timed_recovery(
        runtime, recovery, faulty, expected_max_faults=fusion.f
    )

    byz_plan = injector.random_plan(
        num_crash=0, num_byzantine=fusion.byzantine_f, workload_length=STEPS
    )
    for event in byz_plan.events:
        assert event.kind is FaultKind.BYZANTINE
        runtime.corrupt_instances(names.index(event.server), faulty, rng=generator)
    byzantine_record = _timed_recovery(runtime, recovery, faulty)
    return {
        "faulty_instances": len(faulty),
        "crash": dict(crash_record, faults=[e.server for e in crash_plan.events]),
        "byzantine": dict(
            byzantine_record, faults=[e.server for e in byz_plan.events]
        ),
    }


def run_large_top_case() -> Dict[str, object]:
    """Smoke-only: both recovery plans on a counters-8 fleet (top=6561)."""
    fusion = _large_top_fusion()
    recovery = BatchRecovery(fusion.product, fusion.backups)
    names = [m.name for m in fusion.all_machines]
    generator = as_generator(derive_seed(SEED, "large-top"))
    matrix = generator.integers(
        0, LARGE_TOP_COUNTERS, size=(STEPS, LARGE_TOP_INSTANCES)
    )
    injector = FaultInjector(names, seed=derive_seed(SEED, "large-top-plan"))
    with VectorizedRuntime(fusion.all_machines, LARGE_TOP_INSTANCES) as runtime:
        runtime.apply_event_matrix(matrix)
        return {
            "num_instances": LARGE_TOP_INSTANCES,
            "top_states": recovery.top.num_states,
            "recovery": _faulty_cohort_recoveries(
                runtime, recovery, fusion, generator, injector
            ),
        }


def run_suite(
    sizes: Sequence[int] = FLEET_SIZES,
    workers: Optional[int] = None,
    rounds: int = 1,
) -> Dict[str, object]:
    resolved = resolve_workers(workers)
    return {
        "note": (
            "Vectorized streaming-runtime throughput (events/sec over a "
            "counters-3 f=2 Byzantine fusion, 5 machines) and batched "
            "Algorithm-3 recovery latency over a 10% faulty cohort, "
            "crash and Byzantine plans; regenerate with PYTHONPATH=src "
            "python benchmarks/bench_runtime_throughput.py"
        ),
        "workers": resolved,
        "cases": {
            "N=%d" % size: run_case(size, workers=workers, rounds=rounds)
            for size in sizes
        },
    }


def _recovery_failures(name: str, record: Dict[str, object]) -> Sequence[str]:
    failures = []
    for kind in ("crash", "byzantine"):
        entry = record[kind]
        if not entry["consistent_after"]:
            failures.append("%s: %s recovery did not round-trip" % (name, kind))
        if not 0 < entry["seconds"] < 60:
            failures.append("%s: %s recovery latency out of range" % (name, kind))
    return failures


def check_payload(
    runtime_block: Dict[str, object], large_top: Optional[Dict[str, object]] = None
) -> Sequence[str]:
    """Sanity guards on a freshly measured payload (and, when given, the
    smoke-only large-top record); returns failures."""
    failures = []
    for name, record in runtime_block["cases"].items():
        if record["events_per_sec"] <= 10_000:
            failures.append("%s: implausibly low matrix throughput" % name)
        if record["broadcast_events_per_sec"] <= record["events_per_sec"]:
            failures.append("%s: composed-map path slower than per-step path" % name)
        failures.extend(_recovery_failures(name, record["recovery"]))
    if large_top is not None:
        if large_top["top_states"] <= 4096:
            failures.append(
                "large-top: top has only %d states" % large_top["top_states"]
            )
        failures.extend(_recovery_failures("large-top", large_top["recovery"]))
    return failures


def merge_results(runtime_block: Dict[str, object], path: str = RESULT_PATH) -> None:
    """Install the runtime block into ``BENCH_perf.json``, preserving the
    fusion cases (and bumping the schema tag)."""
    payload: Dict[str, object] = {"schema": SCHEMA, "cases": {}}
    if os.path.exists(path):
        with open(path) as handle:
            payload = json.load(handle)
    payload["schema"] = SCHEMA
    payload["runtime"] = runtime_block
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=False)
        handle.write("\n")


# ----------------------------------------------------------------------
# pytest entry points (benchmark suite; smoke-sized)
# ----------------------------------------------------------------------
def test_throughput_smoke_round_trips():
    record = run_case(SMOKE_FLEET_SIZES[0], workers=1, rounds=1)
    assert record["events_per_sec"] > 0
    assert record["recovery"]["crash"]["consistent_after"]
    assert record["recovery"]["byzantine"]["consistent_after"]


def test_throughput_smoke_pooled_matches_contract(monkeypatch):
    import repro.core.runtime as runtime_module

    monkeypatch.setattr(runtime_module, "_RUNTIME_POOL_MIN_INSTANCES", 1)
    record = run_case(SMOKE_FLEET_SIZES[0], workers=2, rounds=1)
    assert record["events_per_sec"] > 0
    assert record["recovery"]["crash"]["consistent_after"]
    assert record["recovery"]["byzantine"]["consistent_after"]


def test_check_flags_large_top_round_trip_failure():
    ok = {"consistent_after": True, "seconds": 0.01}
    large_top = {
        "top_states": 6561,
        "recovery": {"crash": ok, "byzantine": dict(ok, consistent_after=False)},
    }
    assert check_payload({"cases": {}}, large_top) == [
        "large-top: byzantine recovery did not round-trip"
    ]


def main(argv: Sequence[str]) -> int:
    smoke = "--smoke" in argv
    rounds = 1 if smoke else 3
    for arg in argv:
        if arg.startswith("--rounds="):
            try:
                rounds = int(arg.split("=", 1)[1])
            except ValueError:
                print("invalid --rounds value %r" % arg.split("=", 1)[1])
                return 2
    sizes = SMOKE_FLEET_SIZES if smoke else FLEET_SIZES
    block = run_suite(sizes=sizes, rounds=rounds)
    large_top = run_large_top_case() if smoke else None
    for name, record in block["cases"].items():
        print(
            "%-12s %12s ev/s matrix  %12s ev/s broadcast  recovery %0.4fs/%0.4fs "
            "(crash/byz over %d instances)"
            % (
                name,
                "{:,}".format(record["events_per_sec"]),
                "{:,}".format(record["broadcast_events_per_sec"]),
                record["recovery"]["crash"]["seconds"],
                record["recovery"]["byzantine"]["seconds"],
                record["recovery"]["faulty_instances"],
            )
        )
    if large_top is not None:
        print(
            "%-12s top=%d  recovery %0.4fs/%0.4fs (crash/byz over %d instances)"
            % (
                "large-top",
                large_top["top_states"],
                large_top["recovery"]["crash"]["seconds"],
                large_top["recovery"]["byzantine"]["seconds"],
                large_top["recovery"]["faulty_instances"],
            )
        )
    if "--check" in argv:
        failures = check_payload(block, large_top)
        if failures:
            print("FAILED: %s" % "; ".join(failures))
            return 1
        print("check passed")
    if not smoke:
        merge_results(block)
        print("merged runtime block into %s" % RESULT_PATH)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
