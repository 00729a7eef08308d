"""The benchmark's two workloads, driven through the library's public API.

Every workload does both halves of the paper in three kinds of unit:
cold passes and warm hits of Algorithm 2 (``generate_fusion`` computing
from scratch, or served from an ``ArtifactStore``) and fleet rounds of
Algorithm 3 (a ``VectorizedRuntime`` fleet of the fused system, stepped
by event matrices and healed by ``recover_fleet``).  What differs is
which layers carry the weight; ``README.md`` says why each workload was
chosen.  Every output is checked against an answer the benchmark knows
independently, and every check counts as one operation.
"""

from __future__ import annotations

import dataclasses
import gc
import os
import shutil
import tempfile
import time
import zlib
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from bench_network_chaos_smoke import _zoo as zoo_machines
from bench_perf_regression import CASES, EXPECTED_SUMMARIES
from bench_runtime import GENERATION_CASES
from repro import BatchRecovery, VectorizedRuntime, generate_fusion, recover_fleet
from repro.core.shm import SharedWorkerPool
from repro.io.store import ArtifactStore
from repro.machines.random_machines import random_counter_family
from repro.simulation import DistributedSystem
from repro.simulation.fabric import NetworkChaosSpec
from repro.simulation.faults import FaultInjector
from repro.utils.timing import Stopwatch

import oracle
from tracing import NullTracer

#: Per-instance event-matrix depth, as in the runtime throughput study.
STEPS = 40

#: Instances whose states are re-derived in Python after every step.
WATCHED_INSTANCES = 16

#: Where POSIX shared-memory segments appear as files.
SHM_DIR = "/dev/shm"

#: Counters of the resilience and budget layers that mean a degraded run.
DEGRADATION_COUNTERS = {
    "resilience": ("crashes", "timeouts", "rebuilds", "retries", "degraded"),
    "resources": ("spills", "shm_fallbacks", "disk_retries"),
}


class Run:
    """Samples and checked operations of one benchmark run."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failures: List[str] = []

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def check(self, operation: str, problems: Sequence[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append("%s: %s" % (operation, "; ".join(problems)))

    @property
    def failed(self) -> int:
        return len(self.failures)


@dataclasses.dataclass(frozen=True)
class Job:
    """One ``generate_fusion`` call of a pass."""

    label: str
    build: Callable[[], list]
    f: int = 1
    byzantine: bool = False
    expected: Optional[dict] = None  #: frozen summary, when one exists
    brute_force: bool = False  #: check against the oracle module

    @property
    def key(self) -> str:
        return "%s f=%d%s" % (self.label, self.f, " byzantine" if self.byzantine else "")


def shm_segments() -> set:
    """Names of the ``psm_*`` shared-memory segments linked in ``/dev/shm``."""
    try:
        return {name for name in os.listdir(SHM_DIR) if name.startswith("psm_")}
    except FileNotFoundError:
        return set()


def degradation_problems(watch: Stopwatch) -> List[str]:
    stages = watch.as_dict()
    return [
        "%s.%s=%d" % (stage, counter, stages[stage][counter])
        for stage, counters in DEGRADATION_COUNTERS.items()
        for counter in counters
        if stages.get(stage, {}).get(counter, 0)
    ]


def settle() -> None:
    """Collect garbage left by the checks, so no timed call pays for it."""
    gc.collect()


def corrupt_partition(labels: List[np.ndarray]) -> List[np.ndarray]:
    """Move top state 0 of the first backup into the next block."""
    first = np.array(labels[0], dtype=np.int64)
    blocks = int(first.max()) + 1
    first[0] = (first[0] + 1) % blocks
    return [first] + list(labels[1:])


class Fleet:
    """``N`` instances of one fused system, checked against ``DFSM.step``."""

    def __init__(self, fusion, instances: int, workers: int, rng, tracer) -> None:
        self.machines = fusion.all_machines
        self.tracer = tracer
        self.runtime = VectorizedRuntime(self.machines, instances, workers=workers)
        self.recovery = BatchRecovery(fusion.product, fusion.backups)
        self.events = self.runtime.alphabet
        self.watched = np.sort(rng.choice(instances, WATCHED_INSTANCES, replace=False))
        self.truth = [[m.initial for m in self.machines] for _ in self.watched]

    def _state_problems(self) -> List[str]:
        reported = self.runtime.report_matrix(self.watched)
        for column, states in enumerate(self.truth):
            for m, machine in enumerate(self.machines):
                if machine.state_label(int(reported[m, column])) != states[m]:
                    return ["instance %d diverged from DFSM.step" % self.watched[column]]
        return []

    def _advance_truth(self, column: int, events) -> None:
        states = self.truth[column]
        for event in events:
            for m, machine in enumerate(self.machines):
                states[m] = machine.step(states[m], event)

    def apply_matrix(self, run: Run, rng, steps: int = STEPS, timed: bool = True) -> None:
        size = self.runtime.num_instances
        matrix = rng.integers(0, len(self.events), size=(steps, size))
        settle()
        with self.tracer.span("runtime.apply_event_matrix", events=steps * size):
            start = time.perf_counter()
            self.runtime.apply_event_matrix(matrix)
            elapsed = time.perf_counter() - start
        if timed:
            run.sample("events_per_s", steps * size / elapsed)
        for column, instance in enumerate(self.watched):
            self._advance_truth(column, [self.events[e] for e in matrix[:, instance]])
        run.check("apply_event_matrix", self._state_problems())

    def apply_stream(self, run: Run, rng, steps: int = STEPS) -> None:
        stream = [self.events[e] for e in rng.integers(0, len(self.events), size=steps)]
        size = self.runtime.num_instances
        settle()
        with self.tracer.span("runtime.apply_stream", events=steps * size):
            self.runtime.apply_stream(stream)
        for column in range(len(self.watched)):
            self._advance_truth(column, stream)
        run.check("apply_stream", self._state_problems())

    def recover(self, run: Run, rng, cohort_size: int, crashes: int, corrupt: bool) -> None:
        """Inject faults into a cohort, heal it, compare with a snapshot.

        ``crashes > 0`` crashes that many machines of every cohort
        instance; ``crashes == 0`` makes one machine lie instead.
        """
        cohort = np.sort(
            rng.choice(self.runtime.num_instances, cohort_size, replace=False)
        )
        snapshot = self.runtime.report_matrix(cohort)
        if crashes:
            for victim in rng.choice(len(self.machines), crashes, replace=False):
                self.runtime.crash_instances(int(victim), cohort)
        else:
            liar = int(rng.integers(len(self.machines)))
            self.runtime.corrupt_instances(liar, cohort, rng=rng)
        budget = crashes or None
        kind = "crash" if crashes else "byzantine"
        settle()
        with self.tracer.span("runtime.recover_fleet", instances=cohort_size, kind=kind):
            start = time.perf_counter()
            if self.tracer.enabled:
                # recover_fleet's three public steps, so each gets a span.
                with self.tracer.span("runtime.report"):
                    reported = self.runtime.report_matrix(cohort)
                with self.tracer.span("runtime.recover_batch"):
                    outcome = self.recovery.recover_batch(
                        reported, expected_max_faults=budget
                    )
                with self.tracer.span("runtime.restore"):
                    self.runtime.restore_matrix(outcome.machine_states, cohort)
            else:
                recover_fleet(
                    self.runtime, self.recovery, instances=cohort,
                    expected_max_faults=budget,
                )
            elapsed = time.perf_counter() - start
        run.sample("recovery_ms", elapsed * 1000.0)
        restored = self.runtime.report_matrix(cohort)
        if corrupt:
            restored[0, 0] = (restored[0, 0] + 1) % self.machines[0].num_states
        problems = [] if np.array_equal(restored, snapshot) else [
            "%s recovery did not restore the pre-fault states" % kind
        ]
        run.check("recover_fleet", problems)

    def close(self) -> None:
        self.runtime.close()


class Workload:
    """Shared unit machinery; subclasses fix the inputs and worker count."""

    name = ""
    workers = 1
    fleet_instances = 2**17
    cohort_size = 8
    #: Share of the measured seconds each kind of unit gets.
    shares = {"cold": 0.3, "warm": 0.2, "fleet": 0.5}
    #: About as much recovery time per round as the round's matrix takes.
    recoveries_per_round = 4

    def __init__(self, seed: int, out_dir: str, corrupt: Optional[str] = None) -> None:
        self.seed = seed
        self.rng = np.random.default_rng([seed, zlib.crc32(self.name.encode())])
        self.tracer = NullTracer()
        self.corrupt = corrupt
        self.out_dir = out_dir
        self.fleet: Optional[Fleet] = None
        self.warm_store: Optional[str] = None
        self.jobs: List[Job] = []
        self.warm_job: Optional[Job] = None
        self.warm_summary: Optional[dict] = None
        self.recoveries = 0
        self.shm_at_start = shm_segments()

    # -- set-up ----------------------------------------------------------
    def setup(self, run: Run) -> None:
        """Inputs and warm-up; timed as ``setup_s``."""
        # Pays lazy imports (numpy.ma, the dense engine) outside the timers.
        generate_fusion(CASES["counters-3 (top=27)"](), f=1, workers=1)

    def new_store_dir(self) -> str:
        os.makedirs(self.out_dir, exist_ok=True)
        return tempfile.mkdtemp(prefix="store-", dir=self.out_dir)

    # -- operations ------------------------------------------------------
    def fuse(self, run: Run, job: Job, workers: int, store_dir=None, kind="cold"):
        """One checked ``generate_fusion`` call; returns (result, seconds, stopwatch).

        ``kind`` is ``cold``, ``warm`` (served from ``store_dir``) or
        ``prime`` (an untimed set-up call that fills ``store_dir``).
        """
        machines = job.build()
        store = ArtifactStore(store_dir) if store_dir is not None else None
        watch = Stopwatch()
        segments = shm_segments()
        settle()
        with self.tracer.span("fusion.generate", job=job.key, kind=kind, workers=workers) as span:
            start = time.perf_counter()
            result = generate_fusion(
                machines, job.f, byzantine=job.byzantine, workers=workers,
                store=store, stopwatch=watch,
            )
            elapsed = time.perf_counter() - start
        span["attrs"].update(
            stages=watch.as_dict(),
            top_size=result.top_size,
            ledger_nnz=result.graph.ledger.nnz if result.graph.ledger is not None else 0,
        )
        problems = degradation_problems(watch)
        stranded = shm_segments() - segments
        if stranded:
            problems.append("left %s in %s" % (sorted(stranded), SHM_DIR))
        summary = result.summary()
        expected = job.expected
        if kind == "warm" and expected is None:
            expected = self.warm_summary
        if expected is not None and summary != expected:
            problems.append("summary differs from the known answer")
        if kind == "warm":
            stats = store.stats
            if stats.commits or stats.quarantined or not stats.hits:
                problems.append(
                    "warm hit made %d commits, %d quarantines, %d hits"
                    % (stats.commits, stats.quarantined, stats.hits)
                )
        if job.brute_force:
            labels = [p.labels for p in result.partitions]
            if self.corrupt == "partition":
                labels = corrupt_partition(labels)
                self.corrupt = None
            tuples = [result.product.state_tuple(i) for i in range(result.top_size)]
            problems += oracle.fusion_failures(
                machines, job.f, job.byzantine, tuples, labels
            )
        run.check("generate_fusion %s %s" % (kind, job.key), problems)
        return result, elapsed, watch

    def make_fleet(self, fusion) -> Fleet:
        return Fleet(fusion, self.fleet_instances, self.workers, self.rng, self.tracer)

    def prime_warm_store(self, run: Run, job: Job):
        """Fill a store for ``job``'s warm hits with one checked call; returns its result."""
        self.warm_job = job
        self.warm_store = self.new_store_dir()
        result = self.fuse(run, job, self.workers, self.warm_store, kind="prime")[0]
        self.warm_summary = result.summary()
        return result

    def warm_hit(self, run: Run) -> None:
        elapsed = self.fuse(run, self.warm_job, self.workers, self.warm_store, kind="warm")[1]
        run.sample("warm_hit_s", elapsed)

    def recovery_plan(self, index: int) -> int:
        """Machines crashed by recovery ``index`` (0 = one Byzantine liar)."""
        return 1

    # -- the measured units ---------------------------------------------
    def unit(self, kind: str, run: Run) -> None:
        {"cold": self.cold_pass, "warm": self.warm_hit, "fleet": self.fleet_round}[kind](run)

    def cold_pass(self, run: Run) -> None:
        """Each cold job once."""
        total = 0.0
        for job in self.jobs:
            elapsed = self.fuse(run, job, self.workers)[1]
            run.sample("cold " + job.key, elapsed)
            total += elapsed
        run.sample("fusion_s", total)

    def fleet_round(self, run: Run) -> None:
        """One event matrix, one broadcast stream, then the round's recoveries."""
        fleet = self.fleet
        fleet.tracer = self.tracer
        fleet.apply_matrix(run, self.rng)
        fleet.apply_stream(run, self.rng)
        for _ in range(self.recoveries_per_round):
            corrupt = self.corrupt == "restore"
            self.corrupt = None if corrupt else self.corrupt
            plan = self.recovery_plan(self.recoveries)
            self.recoveries += 1
            fleet.recover(run, self.rng, self.cohort_size, plan, corrupt)

    # -- traced-run extras -----------------------------------------------
    def other_worker_stages(self, run: Run) -> Dict[str, float]:
        """Stage self-seconds of one cold pass at the other worker count."""
        stages: Dict[str, float] = {}
        for job in self.jobs:
            watch = self.fuse(run, job, 2 if self.workers == 1 else 1)[2]
            for stage, seconds in watch.exclusive_totals().items():
                stages[stage] = stages.get(stage, 0.0) + seconds
        return stages

    def extras(self, run: Run) -> Dict[str, float]:
        """Per-layer figures measured outside the units."""
        values: Dict[str, float] = {}
        if self.workers > 1:
            start = time.perf_counter()
            pool = SharedWorkerPool(self.workers)
            for future in [pool.submit(os.getpid) for _ in range(self.workers)]:
                future.result()
            values["pool.start_s"] = time.perf_counter() - start
            start = time.perf_counter()
            pool.close()
            values["pool.close_s"] = time.perf_counter() - start
        return values

    def close(self) -> None:
        if self.fleet is not None:
            self.fleet.close()
            self.fleet = None
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def stray_segments(self) -> List[str]:
        """Problems if ``psm_*`` segments appeared since start; call after ``close``."""
        stray = shm_segments() - self.shm_at_start
        return ["left %s in %s" % (sorted(stray), SHM_DIR)] if stray else []


class Counters10Durable(Workload):
    """Serial sparse path with the durable store on the cold path."""

    name = "counters10-durable"
    workers = 1
    CASE = "counters-10 (top=59049)"

    def setup(self, run: Run) -> None:
        super().setup(run)
        self.jobs = [Job(self.CASE, CASES[self.CASE], expected=EXPECTED_SUMMARIES[self.CASE])]

    def cold_pass(self, run: Run) -> None:
        """The cold call into a fresh store, which then serves the warm hits.

        The first unit of a run is a cold pass, so the store and the
        fleet exist before the first warm hit and fleet round.
        """
        job = self.jobs[0]
        store = self.new_store_dir()
        result, elapsed, _ = self.fuse(run, job, self.workers, store)
        run.sample("cold " + job.key, elapsed)
        run.sample("fusion_s", elapsed)
        if self.warm_store is not None:
            shutil.rmtree(self.warm_store, ignore_errors=True)
        self.warm_store, self.warm_job = store, job
        if self.fleet is None:
            self.fleet = self.make_fleet(result)


class ZooFleet(Workload):
    """Many small dense fusions, then a pooled 2^17-instance fleet."""

    name = "zoo-fleet"
    workers = 2
    cohort_size = 2**17 // 10
    shares = {"cold": 0.35, "warm": 0.15, "fleet": 0.5}
    recoveries_per_round = 24
    NETWORK_CHAOS = "drop=0.25,reorder=0.15,partition=0.05,partition_ticks=4,seed=%d"
    SIM_EVENTS = 4000

    def setup(self, run: Run) -> None:
        super().setup(run)
        family_seed = int(self.rng.integers(2**31))
        sets = dict(GENERATION_CASES)
        sets["zoo (top=120)"] = zoo_machines
        sets["random-counters-8"] = lambda: random_counter_family(
            8, modulus=3, num_events=5, rng=family_seed
        )
        self.jobs = [
            Job(
                label, build, f, byzantine,
                expected=EXPECTED_SUMMARIES.get(label) if (f, byzantine) == (1, False) else None,
                brute_force=True,
            )
            for label, build in sets.items()
            for f, byzantine in ((1, False), (2, False), (3, False), (1, True))
        ]
        fleet_job = Job("zoo", zoo_machines, f=2, byzantine=True, brute_force=True)
        self.fleet = self.make_fleet(self.prime_warm_store(run, fleet_job))
        # The first pooled step starts the runtime's workers.
        self.fleet.apply_matrix(run, self.rng, steps=1, timed=False)

    def recovery_plan(self, index: int) -> int:
        return 2 if index % 2 == 0 else 0

    def extras(self, run: Run) -> Dict[str, float]:
        values = super().extras(run)
        fusion = generate_fusion(zoo_machines(), 2, workers=self.workers)
        workload = [str(e) for e in self.rng.choice(list("abc"), self.SIM_EVENTS)]
        system = DistributedSystem.with_fusion_backups(
            zoo_machines(), f=2, fusion=fusion, engine="vectorized",
            network=NetworkChaosSpec.parse(self.NETWORK_CHAOS % self.seed),
            supervised=True, heartbeat_interval=5,
        )
        plan = FaultInjector(system.server_names(), seed=self.seed).random_plan(
            num_crash=2, num_byzantine=0, workload_length=self.SIM_EVENTS
        )
        with self.tracer.span("sim.run", events=self.SIM_EVENTS) as span:
            start = time.perf_counter()
            report = system.run(workload, fault_plan=plan, rng=self.seed)
            elapsed = time.perf_counter() - start
        delivery = report.delivery or {}
        span["attrs"].update(recoveries=report.recoveries, delivery=delivery)
        problems = [] if report.status == "healthy" and report.consistent else [
            "simulation ended %s, consistent=%s" % (report.status, report.consistent)
        ]
        run.check("DistributedSystem.run", problems)
        values.update({
            "sim.events_per_s": report.events_applied / elapsed,
            "sim.recoveries": report.recoveries,
            "fabric.delivered": delivery.get("delivered", 0),
            "fabric.dropped": delivery.get("dropped", 0),
        })
        return values


WORKLOADS = {cls.name: cls for cls in (Counters10Durable, ZooFleet)}
