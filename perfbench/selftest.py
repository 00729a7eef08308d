"""Self-test of the benchmark's checks and output format.

    python3 -m pytest perfbench/selftest.py -q

Corrupting one output (a partition label, a restored state) must drive
``ok_ops_ratio`` below 1, and the metric names and units the command
prints must be exactly those ``BENCHMARK.json`` declares, and no process
the command started may outlive it.  The file is not named
``test_*.py``, so the repository's own test run skips it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

#: One small zoo-fleet unit of each kind in a fresh process (the
#: benchmarks' own ``conftest`` module would clash with the repository's
#: under pytest).
ONE_PASS = """
import json, os, sys
sys.path[:0] = [os.path.join(%(root)r, "src"), os.path.join(%(root)r, "benchmarks"), %(here)r]
import run
run.hermetic_environment()
from workloads import Run, ZooFleet
workload = ZooFleet(seed=3, out_dir=os.path.join(%(root)r, ".perfbench_out", "selftest-%%d" %% os.getpid()), corrupt=%(corrupt)r)
workload.fleet_instances = 4096
workload.cohort_size = 409
result = Run()
try:
    workload.setup(result)
    for kind in workload.shares:
        workload.unit(kind, result)
finally:
    workload.close()
print(json.dumps({"attempted": result.attempted, "failures": result.failures}))
"""


def session_members(session: int) -> list:
    """Pids of the processes, zombies included, still in ``session``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open("/proc/%s/stat" % entry) as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except (OSError, IndexError):
            continue
        if int(fields[3]) == session:
            members.append(int(entry))
    return members


def one_small_pass(corrupt):
    child = subprocess.run(
        [sys.executable, "-c", ONE_PASS % {"root": ROOT, "here": HERE, "corrupt": corrupt}],
        cwd=ROOT, capture_output=True, text=True, timeout=180,
    )
    assert child.returncode == 0, child.stderr
    return json.loads(child.stdout.strip().splitlines()[-1])


def test_clean_pass_passes_every_check():
    result = one_small_pass(None)
    assert result["attempted"] > 0 and result["failures"] == []


@pytest.mark.parametrize("corrupt, symptom", [
    ("partition", "generate_fusion"),
    ("restore", "recover_fleet"),
])
def test_one_corrupted_output_lowers_ok_ops_ratio(corrupt, symptom):
    result = one_small_pass(corrupt)
    failures = result["failures"]
    assert (result["attempted"] - len(failures)) / result["attempted"] < 1
    assert len(failures) == 1 and failures[0].startswith(symptom)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, section):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        declared = {m["name"]: m["unit"] for m in json.load(handle)[section]}
    child = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "zoo-fleet",
         "--seed", "5", "--seconds", "0", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    stdout, stderr = child.communicate(timeout=180)
    assert child.returncode == 0, stderr
    # The run's session is its own (session id = its pid): nothing it
    # started may outlive it, not even multiprocessing's resource tracker.
    assert session_members(child.pid) == []
    result = json.loads(stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0
    printed = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert printed == declared
