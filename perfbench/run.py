"""Benchmark command: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload zoo-fleet --seed 1 --seconds 30 --trace 0

Run from the repository root (or any checkout of it).  ``--trace 0``
prints the end-to-end metrics; ``--trace 1`` runs a separate traced
measurement, prints the per-layer table and writes the spans to
``.perfbench_out/``.  The last line of standard output is always
``{"correct", "attempted", "failed", "metrics"}``.  ``README.md`` in
this directory explains the workloads and the metric choices.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Name -> unit of every end-to-end metric (tracing off).
END_TO_END = {
    "setup_s": "s",
    "fusion_s": "s",
    "warm_hit_s": "s",
    "events_per_s": "1/s",
    "recovery_ms": "ms",
    "peak_rss_mb": "MB",
    "ok_ops_ratio": "ratio",
}

#: Name -> unit of every per-layer metric (traced run).
PER_LAYER = {
    "product.build_s": "s",
    "product.states": "count",
    "graph.assemble_s": "s",
    "ledger.build_s": "s",
    "ledger.nnz": "count",
    "descent.self_s": "s",
    "descent.closure_s": "s",
    "descent.prune_s": "s",
    "prune.rounds": "count",
    "prune.spent": "count",
    "prune.truncated": "count",
    "prune.seeded": "count",
    "fusion.self_s": "s",
    "trace.coverage": "ratio",
    "pool.start_s": "s",
    "pool.close_s": "s",
    "pool.gain.product_build": "ratio",
    "pool.gain.ledger_build": "ratio",
    "pool.gain.prune": "ratio",
    "pool.gain.closure": "ratio",
    "pool.gain.descent": "ratio",
    "resilience.retries": "count",
    "resilience.degraded": "count",
    "budget.spills": "count",
    "budget.shm_fallbacks": "count",
    "store.commit_s": "s",
    "store.load_s": "s",
    "store.commits": "count",
    "store.hits": "count",
    "runtime.step_s": "s",
    "runtime.recover_batch_s": "s",
    "runtime.restore_s": "s",
    "runtime.broadcast_events_per_s": "1/s",
    "recovery.p90_ms": "ms",
    "sim.events_per_s": "1/s",
    "sim.recoveries": "count",
    "fabric.delivered": "count",
    "fabric.dropped": "count",
    "rss.parent_mb": "MB",
    "rss.workers_mb": "MB",
    "host.calib_s": "s",
    "host.calib_drift": "ratio",
    "trace.overhead_ratio": "ratio",
}

#: Stopwatch stage -> per-layer metric holding its self-seconds.
STAGE_METRICS = {
    "product_build": "product.build_s",
    "graph_assemble": "graph.assemble_s",
    "ledger_build": "ledger.build_s",
    "descent": "descent.self_s",
    "closure": "descent.closure_s",
    "prune": "descent.prune_s",
    "store_commit": "store.commit_s",
    "store_load": "store.load_s",
}

#: Stopwatch counter -> per-layer metric summing it.
COUNTER_METRICS = {
    ("prune", "rounds"): "prune.rounds",
    ("prune", "spent"): "prune.spent",
    ("prune", "truncated"): "prune.truncated",
    ("prune", "seeded"): "prune.seeded",
    ("store", "commits"): "store.commits",
    ("store", "hits"): "store.hits",
    ("resilience", "retries"): "resilience.retries",
    ("resilience", "degraded"): "resilience.degraded",
    ("resources", "spills"): "budget.spills",
    ("resources", "shm_fallbacks"): "budget.shm_fallbacks",
}

#: The five pooled fusion stages whose serial/pooled ratio is reported.
POOLED_STAGES = ("product_build", "ledger_build", "prune", "closure", "descent")

#: Fresh processes that repeat the set-up; ``setup_s`` is their median.
SETUP_REPEATS = 3

#: Units of each kind a run makes at least.  Two, because a cold pass
#: that runs while an earlier pass's fleet is alive sets the peak RSS: with
#: one pass on a slow host, counters10-durable read 100 MB less.
MIN_UNITS = 2

#: Share of the measured seconds spent timing the host probe between units.
PROBE_SHARE = 0.1

#: Host probe timings before each set-up process and after the last.
SETUP_PROBES = 10

#: Probe seconds the end-to-end timings are scaled to (about its mean on
#: the 2-vCPU reference container), so they stay near measured seconds.
PROBE_REF_S = 0.013

#: ``prctl`` option that makes orphaned descendants children of this process.
PR_SET_CHILD_SUBREAPER = 36

#: Seconds a child may take to end on its own before it is killed.
CHILD_GRACE_S = 10.0


def hermetic_environment() -> None:
    """Drop every ``REPRO_*`` knob so only explicit arguments steer the library."""
    for key in [key for key in os.environ if key.startswith("REPRO_")]:
        del os.environ[key]


def become_subreaper() -> None:
    """Adopt orphaned descendants (Linux), so :func:`end_children` waits for them too."""
    try:
        import ctypes

        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes = [ctypes.c_int] + [ctypes.c_ulong] * 4
        prctl.restype = ctypes.c_int
        prctl(PR_SET_CHILD_SUBREAPER, 1, 0, 0, 0)
    except (OSError, AttributeError):
        pass


def live_children() -> list:
    """Pids of this process's children that have not ended (zombies excluded)."""
    me = os.getpid()
    pids = []
    try:
        entries = os.listdir("/proc")
    except OSError:
        return pids
    for entry in entries:
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if fields[0] != "Z" and int(fields[1]) == me:
            pids.append(int(entry))
    return pids


def end_children() -> list:
    """Stop every process this one started and wait until each has ended.

    multiprocessing's resource tracker (started by the first shared-memory
    segment) would otherwise outlive the run by a moment.  Children still
    running after ``CHILD_GRACE_S`` are killed; returns their pids.
    """
    from multiprocessing import resource_tracker

    resource_tracker._resource_tracker._stop()
    killed: list = []
    deadline = time.monotonic() + CHILD_GRACE_S
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return killed
        if pid:
            continue
        if time.monotonic() > deadline:
            stragglers = live_children()
            if not stragglers:
                return killed
            for pid in stragglers:
                os.kill(pid, signal.SIGKILL)
            killed += stragglers
            deadline = time.monotonic() + CHILD_GRACE_S
        time.sleep(0.01)


def host_fingerprint() -> dict:
    import numpy

    model = ""
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "cpu_count": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def calibrate() -> float:
    """Median of three timings of a fixed numpy sort plus a Python loop."""
    import numpy as np

    data = np.random.default_rng(0).integers(0, 2**31, size=2_000_000)
    timings = []
    for _ in range(3):
        start = time.perf_counter()
        np.sort(data)
        total = 0
        for value in range(500_000):
            total += value ^ 7
        timings.append(time.perf_counter() - start)
    return statistics.median(timings)


class HostProbe:
    """A small fixed kernel timed between units: its mean time tracks host speed.

    The kernel mixes what the library spends its time on: mostly a random
    gather from a 1 MB table (like a transition-table step or a vote),
    then a numpy sort and a Python loop.  It never calls the library, so
    a change to the library cannot move it.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self._sort = np.sort
        self._keys = rng.integers(0, 2**31, size=250_000)
        self._table = np.arange(2**18, dtype=np.int32)
        self._index = rng.integers(0, self._table.size, size=1_800_000)
        self.samples: list = []
        self.total = 0.0

    def time_once(self) -> None:
        start = time.perf_counter()
        self._sort(self._keys)
        self._table[self._index].sum()
        total = 0
        for value in range(20_000):
            total += value ^ 7
        self.samples.append(time.perf_counter() - start)
        self.total += self.samples[-1]

    def keep_up(self, busy_seconds: float) -> None:
        """Probe until probing has taken ``PROBE_SHARE`` of ``busy_seconds``."""
        while not self.samples or self.total < PROBE_SHARE * busy_seconds:
            self.time_once()

    def slowdown(self) -> float:
        """Mean probe time over ``PROBE_REF_S``: above 1 means a slow host."""
        return self.total / len(self.samples) / PROBE_REF_S


def measure_setup(workload: str, seed: int, probe: HostProbe) -> list:
    """Set-up seconds of fresh processes, from spawn to the first timed call.

    ``probe`` is timed before each set-up and after the last, so it sees
    the host as the set-ups did.
    """
    samples = []
    for _ in range(SETUP_REPEATS):
        for _ in range(SETUP_PROBES):
            probe.time_once()
        start = time.monotonic()
        child = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=150,
        )
        if child.returncode != 0:
            raise RuntimeError("set-up process failed:\n%s" % child.stderr)
        samples.append(float(child.stdout.strip().splitlines()[-1]) - start)
    for _ in range(SETUP_PROBES):
        probe.time_once()
    return samples


def unit_of(metric: str) -> str:
    """The kind of unit whose spans give a per-layer metric its value."""
    if metric in ("store.load_s", "store.hits"):
        return "warm"
    return "fleet" if metric.startswith("runtime.") else "cold"


def layer_values(tracer, root_id: int) -> dict:
    """Per-layer figures of one traced unit, from its spans."""
    values: dict = {}

    def add(metric, amount):
        values[metric] = values.get(metric, 0.0) + amount

    broadcast_events = broadcast_seconds = 0.0
    for span in tracer.descendants(root_id):
        seconds = span["end"] - span["start"]
        attrs = span["attrs"]
        name = span["name"]
        if name == "fusion.generate":
            stages = attrs["stages"]
            for stage, metric in STAGE_METRICS.items():
                add(metric, stages.get(stage, {}).get("exclusive_seconds", 0.0))
            for (stage, counter), metric in COUNTER_METRICS.items():
                add(metric, stages.get(stage, {}).get(counter, 0))
            values["product.states"] = max(values.get("product.states", 0), attrs["top_size"])
            values["ledger.nnz"] = max(values.get("ledger.nnz", 0), attrs["ledger_nnz"])
            if attrs["kind"] == "cold":
                attributed = sum(entry["exclusive_seconds"] for entry in stages.values())
                add("fusion.self_s", seconds - attributed)
                add("fusion_traced_s", seconds)
        elif name == "runtime.apply_event_matrix":
            add("runtime.step_s", seconds)
        elif name == "runtime.apply_stream":
            broadcast_events += attrs["events"]
            broadcast_seconds += seconds
        elif name == "runtime.recover_batch":
            add("runtime.recover_batch_s", seconds)
        elif name in ("runtime.report", "runtime.restore"):
            add("runtime.restore_s", seconds)
    if broadcast_seconds:
        values["runtime.broadcast_events_per_s"] = broadcast_events / broadcast_seconds
    if values.get("fusion_traced_s"):
        values["trace.coverage"] = (
            values["fusion_traced_s"] - values["fusion.self_s"]
        ) / values["fusion_traced_s"]
    return values


def percentile(values, fraction: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(fraction * len(ordered)))]


def peak_rss() -> tuple:
    """(parent, largest worker) peak resident MB; call after workers exit."""
    parent = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return parent, workers


def measure(workload, run, seconds: float, tracer=None, probe=None) -> dict:
    """Units until ``seconds`` have elapsed and each kind ran ``MIN_UNITS`` times.

    The next unit is always of the kind furthest below its share of the
    time spent so far, so every kind's samples are spread over the whole
    run and a few slow seconds of the host cannot land on all of them.
    A ``probe`` is timed between units for ``PROBE_SHARE`` of the time.
    """
    shares = workload.shares
    spent = dict.fromkeys(shares, 0.0)
    counts = dict.fromkeys(shares, 0)
    deadline = time.perf_counter() + seconds
    while min(counts.values()) < MIN_UNITS or time.perf_counter() < deadline:
        if probe is not None:
            probe.keep_up(sum(spent.values()))
        kind = min(shares, key=lambda k: spent[k] / shares[k])
        start = time.perf_counter()
        if tracer is None:
            workload.unit(kind, run)
        else:
            with tracer.span(kind, index=counts[kind]):
                workload.unit(kind, run)
        spent[kind] += time.perf_counter() - start
        counts[kind] += 1
    if probe is not None:
        probe.keep_up(sum(spent.values()))
    return counts


def traced_metrics(workload, run, seconds: float) -> tuple:
    from tracing import Tracer
    from workloads import Run

    baseline = Run()
    workload.cold_pass(baseline)
    run.attempted += baseline.attempted
    run.failures += baseline.failures

    tracer = Tracer()
    workload.tracer = tracer
    counts = measure(workload, run, seconds, tracer)
    per_unit = {kind: [] for kind in workload.shares}
    for span in tracer.spans:
        if span["parent"] is None and span["name"] in per_unit:
            per_unit[span["name"]].append(layer_values(tracer, span["id"]))
    values = {name: 0.0 for name in PER_LAYER}
    for kind, entries in per_unit.items():
        for name in entries[0]:
            if unit_of(name) == kind:
                values[name] = statistics.median(entry[name] for entry in entries)
    traced = values.pop("fusion_traced_s")
    values["trace.overhead_ratio"] = traced / baseline.samples["fusion_s"][0]
    values["recovery.p90_ms"] = percentile(run.samples["recovery_ms"], 0.9)

    other = workload.other_worker_stages(run)
    for stage in POOLED_STAGES:
        own = values[STAGE_METRICS[stage]]
        serial, pooled = (own, other.get(stage, 0.0)) if workload.workers == 1 else (
            other.get(stage, 0.0), own)
        values["pool.gain." + stage] = serial / pooled if pooled else 0.0
    values.update(workload.extras(run))
    workload.close()
    values["rss.parent_mb"], values["rss.workers_mb"] = peak_rss()

    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(
        OUT_DIR, "trace-%s-seed%d.json" % (workload.name, workload.seed)))
    return values, {"units": counts}


def untraced_metrics(workload, run, seconds: float) -> tuple:
    probe = HostProbe()
    counts = measure(workload, run, seconds, probe=probe)
    workload.close()
    parent, workers = peak_rss()
    # Means, not medians: see "Statistics" in README.md.  Every matrix
    # has the same number of events, so the harmonic mean of the rates
    # is total events over total seconds.
    measured = {
        "fusion_s": sum(
            statistics.fmean(series)
            for name, series in run.samples.items() if name.startswith("cold ")
        ),
        "warm_hit_s": statistics.fmean(run.samples["warm_hit_s"]),
        "events_per_s": statistics.harmonic_mean(run.samples["events_per_s"]),
        "recovery_ms": statistics.fmean(run.samples["recovery_ms"]),
    }
    # Scaled to the reference host speed, so a slow stretch of the shared
    # host does not read as a slower program: see "Statistics" in README.md.
    slowdown = probe.slowdown()
    values = {
        name: value * slowdown if name == "events_per_s" else value / slowdown
        for name, value in measured.items()
    }
    values["peak_rss_mb"] = parent + workers
    return values, {
        "units": counts,
        "measured": measured,
        "slowdown": slowdown,
        "probes": len(probe.samples),
        "rss_mb": {"parent": parent, "workers": workers},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up in a fresh process and print the clock (internal)")
    args = parser.parse_args(argv)

    hermetic_environment()
    for required in ("src/repro", "benchmarks"):
        if not os.path.isdir(os.path.join(ROOT, required)):
            print("perfbench: %s is missing; run from a full checkout" % required,
                  file=sys.stderr)
            return 2
    sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "benchmarks"), HERE]
    become_subreaper()
    try:
        if args.setup_only:
            return setup_only(args.workload, args.seed)
        return benchmark(parser, args)
    finally:
        end_children()


def setup_only(name: str, seed: int) -> int:
    """Set the workload up in this fresh process and print the clock after it."""
    from workloads import WORKLOADS, Run

    workload = WORKLOADS[name](seed, os.path.join(OUT_DIR, "setup-%d" % os.getpid()))
    try:
        workload.setup(Run())
        stamp = time.monotonic()
    finally:
        workload.close()
    print(stamp)
    return 0


def benchmark(parser, args) -> int:
    calib_start = calibrate()
    from workloads import WORKLOADS, Run

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r (choose from %s)" % (args.workload, sorted(WORKLOADS)))
    workload = WORKLOADS[args.workload](
        args.seed, os.path.join(OUT_DIR, "%s-%d" % (args.workload, os.getpid()))
    )
    run = Run()
    try:
        workload.setup(run)
        if args.trace:
            values, record = traced_metrics(workload, run, args.seconds)
        else:
            values, record = untraced_metrics(workload, run, args.seconds)
    finally:
        workload.close()
    if not args.trace:
        probe = HostProbe()
        record["setup_samples"] = measure_setup(args.workload, args.seed, probe)
        record["setup_slowdown"] = probe.slowdown()
        values["setup_s"] = statistics.median(record["setup_samples"]) / probe.slowdown()
    # Before the resource tracker stops: it would unlink a leaked segment.
    run.check("no shared-memory segment left after close", workload.stray_segments())
    killed = end_children()
    run.check("every child process ended on its own",
              ["killed %s" % killed] if killed else [])
    calib_end = calibrate()
    values["ok_ops_ratio"] = (run.attempted - run.failed) / run.attempted
    values["host.calib_s"] = (calib_start + calib_end) / 2
    values["host.calib_drift"] = calib_end / calib_start
    declared = PER_LAYER if args.trace else END_TO_END

    print(json.dumps({"record": dict(
        record,
        workload=args.workload, seed=args.seed, trace=args.trace,
        samples={name: [round(v, 6) for v in series] for name, series in run.samples.items()},
        host=host_fingerprint(),
        calib_s=[calib_start, calib_end],
        failures=run.failures[:10],
    )}))
    if args.trace:
        print("per-layer table (%s, medians over traced units):" % args.workload)
        for name, unit in declared.items():
            print("  %-32s %16.6g %s" % (name, values[name], unit))
    for failure in run.failures:
        print("FAILED %s" % failure)
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in declared.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
