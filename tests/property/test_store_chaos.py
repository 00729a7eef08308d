"""Crash-durability property tests: SIGKILL the owner, resume, compare.

The artifact store's acceptance contract, proven process-for-real:

* ``kill_during_write`` SIGKILLs the owner *mid artifact commit*,
  leaving a deliberately torn file at the final name — the restarted
  run must quarantine it, recompute, and finish with bytes identical
  to an undisturbed run.
* ``kill_between_levels`` SIGKILLs the owner right after a descent
  level checkpoint commits — the restarted run must resume from that
  committed level (never from scratch) and produce identical bytes.
* In both cases the dead owner's advisory lock is reclaimed by the
  restarted run and zero lock files survive the rerun.
* Two live processes sharing one store serialise on the run lock: one
  computes, the other blocks and then warm-loads the committed result.
* SIGINT during a hung pooled runtime step tears the worker pool down
  without stranding a single owned ``/dev/shm`` segment.
* SIGKILL of a pooled runtime's owner takes its workers and its
  ``/dev/shm`` segments with it.
* At the counters-9 scale, a store-backed fusion SIGKILLed between
  levels resumes byte-identically, and a third, fully warm call
  recomputes nothing and commits nothing.
"""

from __future__ import annotations

import glob
import json
import os
import signal
import subprocess
import sys
import time

import pytest

import repro
from repro.core.fusion import generate_fusion
from repro.machines.catalog import counters_family
from repro.utils.timing import Stopwatch

from ..conftest import psm_segments
from ..integration.test_partition_hashes import partitions_digest

_SRC_DIR = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

#: Child: one store-backed fusion run; prints a JSON line with the
#: summary, a digest of the partition labels, and the store counters.
_FUSION_CHILD = r"""
import hashlib, json, sys
from repro.core.fusion import generate_fusion
from repro.machines.catalog import counters_family
from repro.utils.timing import Stopwatch

store_root = sys.argv[1]
watch = Stopwatch()
result = generate_fusion(counters_family(6), 3, store=store_root, stopwatch=watch)
labels = hashlib.sha256()
for partition in result.partitions:
    labels.update(partition.labels.tobytes())
print(json.dumps({
    "summary": result.summary(),
    "labels": labels.hexdigest(),
    "store": watch.extras("store"),
    "stages": sorted(watch.as_dict()),
}))
"""


def _run_child(store_root: str, chaos: str = "", timeout: float = 120.0):
    env = dict(os.environ, PYTHONPATH=_SRC_DIR)
    env.pop("REPRO_CHAOS", None)
    if chaos:
        env["REPRO_CHAOS"] = chaos
    return subprocess.run(
        [sys.executable, "-c", _FUSION_CHILD, store_root],
        env=env,
        capture_output=True,
        text=True,
        timeout=timeout,
    )


def _reference(tmp_path) -> dict:
    """An undisturbed run against a throwaway store: the byte oracle."""
    root = str(tmp_path / "reference-store")
    completed = _run_child(root)
    assert completed.returncode == 0, completed.stderr
    return json.loads(completed.stdout)


def _lock_files(store_root: str):
    return glob.glob(os.path.join(store_root, "*", "*.lock"))


class TestCrashRecovery:
    @pytest.mark.parametrize(
        "chaos",
        [
            "kill_during_write=1.0,max=1,seed=5",
            "kill_between_levels=1.0,max=1,seed=3",
        ],
        ids=["kill_during_write", "kill_between_levels"],
    )
    def test_sigkilled_run_resumes_byte_identical(self, tmp_path, chaos):
        reference = _reference(tmp_path)
        store_root = str(tmp_path / "store")

        crashed = _run_child(store_root, chaos=chaos)
        assert crashed.returncode == -signal.SIGKILL, (
            "the chaos plan must SIGKILL the owner; got rc=%s stderr=%s"
            % (crashed.returncode, crashed.stderr)
        )
        assert _lock_files(store_root), "the dead owner must leave its lock behind"

        resumed = _run_child(store_root)
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(resumed.stdout)
        assert payload["summary"] == reference["summary"]
        assert payload["labels"] == reference["labels"]
        assert payload["store"]["stale_locks"] >= 1, (
            "the resumed run must reclaim the dead owner's lock"
        )
        assert _lock_files(store_root) == [], "no lock may survive a clean finish"

    def test_kill_during_write_leaves_torn_artifact_then_quarantines(self, tmp_path):
        reference = _reference(tmp_path)
        store_root = str(tmp_path / "store")
        crashed = _run_child(store_root, chaos="kill_during_write=1.0,max=1,seed=5")
        assert crashed.returncode == -signal.SIGKILL

        resumed = _run_child(store_root)
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(resumed.stdout)
        assert payload["store"]["quarantined"] >= 1, (
            "the torn final-name artifact must be quarantined, not loaded"
        )
        quarantined = glob.glob(os.path.join(store_root, "*", "quarantine", "*"))
        assert quarantined, "quarantined files must be kept aside for forensics"
        assert payload["labels"] == reference["labels"]

    def test_kill_between_levels_resumes_from_checkpoint(self, tmp_path):
        reference = _reference(tmp_path)
        store_root = str(tmp_path / "store")
        crashed = _run_child(store_root, chaos="kill_between_levels=1.0,max=1,seed=3")
        assert crashed.returncode == -signal.SIGKILL
        checkpoints = glob.glob(os.path.join(store_root, "*", "descent-*.npz"))
        assert checkpoints, "the kill fires only after a checkpoint committed"

        resumed = _run_child(store_root)
        assert resumed.returncode == 0, resumed.stderr
        payload = json.loads(resumed.stdout)
        assert payload["store"]["resumed_levels"] >= 1, (
            "the restarted descent must start from the committed level"
        )
        assert payload["labels"] == reference["labels"]


#: Child: a store-backed counters-9 fusion at ``f = 1``.
_COUNTERS9_CHILD = r"""
import sys
from repro.core.fusion import generate_fusion
from repro.machines.catalog import counters_family
generate_fusion(counters_family(9), 1, store=sys.argv[1])
"""


class TestCounters9CrashResumeWarm:
    @pytest.mark.usefixtures("no_stray_segments")
    def test_sigkill_resume_then_warm_hit(self, tmp_path, monkeypatch):
        """SIGKILL right after the first descent checkpoint commits; the
        chaos-free rerun reclaims the lock and resumes from that level;
        a third call is a pure warm hit.  Both finished runs match a
        no-store run bit for bit."""
        monkeypatch.delenv("REPRO_CHAOS", raising=False)
        reference = generate_fusion(counters_family(9), f=1)
        store_root = str(tmp_path / "store")
        env = dict(
            os.environ, PYTHONPATH=_SRC_DIR, REPRO_CHAOS="kill_between_levels=1.0,max=1,seed=3"
        )
        crashed = subprocess.run(
            [sys.executable, "-c", _COUNTERS9_CHILD, store_root],
            env=env, capture_output=True, text=True, timeout=300,
        )
        assert crashed.returncode == -signal.SIGKILL, crashed.stderr[-2000:]
        assert _lock_files(store_root), "the dead owner left no advisory lock behind"
        assert glob.glob(os.path.join(store_root, "*", "descent-*.npz"))

        resume_watch = Stopwatch()
        start = time.perf_counter()
        resumed = generate_fusion(
            counters_family(9), f=1, store=store_root, stopwatch=resume_watch
        )
        resume_seconds = time.perf_counter() - start
        resume_stats = resume_watch.extras("store")
        assert resumed.summary() == reference.summary()
        assert partitions_digest(resumed) == partitions_digest(reference)
        assert resume_stats["resumed_levels"] >= 1, "the descent restarted from scratch"
        assert resume_stats["stale_locks"] >= 1, "the dead owner's lock was never reclaimed"
        assert resume_stats["checkpoints"] >= 1
        assert _lock_files(store_root) == []

        warm_watch = Stopwatch()
        start = time.perf_counter()
        warm = generate_fusion(counters_family(9), f=1, store=store_root, stopwatch=warm_watch)
        warm_seconds = time.perf_counter() - start
        warm_stats = warm_watch.extras("store")
        assert not {"product_build", "ledger_build", "descent"} & set(warm_watch.as_dict())
        assert warm_stats["commits"] == 0, "a warm hit must write nothing"
        assert warm_stats["hits"] >= 1 and warm_stats["quarantined"] == 0
        assert warm.summary() == reference.summary()
        assert partitions_digest(warm) == partitions_digest(reference)
        assert 0 < warm_seconds < resume_seconds


class TestTwoProcessContention:
    def test_loser_blocks_then_warm_loads(self, tmp_path):
        reference = _reference(tmp_path)
        store_root = str(tmp_path / "store")
        env = dict(os.environ, PYTHONPATH=_SRC_DIR)
        env.pop("REPRO_CHAOS", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", _FUSION_CHILD, store_root],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        payloads = []
        for proc in procs:
            out, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err
            payloads.append(json.loads(out))

        for payload in payloads:
            assert payload["summary"] == reference["summary"]
            assert payload["labels"] == reference["labels"]
        # Exactly one process computed; the other serialised on the run
        # lock and reused its artifacts.  The loser may still have raced
        # the winner to the machines.npz manifest (benign: identical
        # bytes, atomic replace), so its commit count is at most that
        # one — never the >= 3 commits (product + ledger + checkpoints +
        # result) a computing run performs — and it must not have run
        # any compute stage at all.
        payloads.sort(key=lambda p: p["store"]["commits"])
        loser, winner = payloads
        assert loser["store"]["commits"] <= 1, (
            "the losing process must warm-load, not recompute"
        )
        assert winner["store"]["commits"] >= 3, (
            "the winning process must commit its artifacts"
        )
        for stage in ("product_build", "ledger_build", "descent"):
            assert stage not in loser["stages"], (
                "the losing process recomputed %s" % stage
            )
            assert stage in winner["stages"]
        assert _lock_files(store_root) == []


#: Child: a pooled runtime fleet (four counters, 64 instances) built
#: with 2 workers; run with ``REPRO_RUNTIME_POOL_MIN_INSTANCES=1`` so
#: every step is a pooled ``runtime_step`` wave.
_RUNTIME_CHILD_SETUP = r"""
import numpy as np
from repro.core.runtime import VectorizedRuntime
from repro.machines.catalog import counters_family
machines = counters_family(4)
events = np.zeros((4, 64), dtype=np.int64)
"""


def _runtime_child_env(**extra):
    env = dict(
        os.environ, PYTHONPATH=_SRC_DIR, REPRO_RUNTIME_POOL_MIN_INSTANCES="1"
    )
    env.pop("REPRO_CHAOS", None)
    env.update(extra)
    return env


def _running(pid: int) -> bool:
    """True while ``pid`` exists and is not a zombie."""
    try:
        with open("/proc/%d/stat" % pid) as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


class TestSigintTeardown:
    def test_sigint_mid_hang_leaves_zero_owned_segments(self, tmp_path):
        """Ctrl-C while a pooled runtime step hangs: the pool must
        hard-kill its workers and unlink every owned segment, so the
        runtime's ``close()`` cannot deadlock joining the hung wave."""
        child = _RUNTIME_CHILD_SETUP + r"""
from repro.core.resilience import live_owned_segments
try:
    with VectorizedRuntime(machines, 64, workers=2) as runtime:
        print("STARTING", flush=True)
        runtime.apply_event_matrix(events)
    print("FINISHED-UNINTERRUPTED", flush=True)
except KeyboardInterrupt:
    leaked = live_owned_segments()
    print("LEAKED %r" % (leaked,) if leaked else "CLEAN", flush=True)
"""
        env = _runtime_child_env(
            REPRO_CHAOS="task_hang=1.0,stages=runtime_step,max=1,seed=1,hang_s=120",
        )
        proc = subprocess.Popen(
            [sys.executable, "-c", child],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            assert proc.stdout.readline().strip() == "STARTING"
            # Give the step time to publish its bundles and hit the hung task.
            time.sleep(3.0)
            os.kill(proc.pid, signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
        assert proc.returncode == 0, err
        assert out.strip() == "CLEAN", out


@pytest.mark.skipif(
    not sys.platform.startswith("linux"), reason="PR_SET_PDEATHSIG is Linux-only"
)
class TestOwnerSigkill:
    def test_sigkilled_owner_takes_workers_and_segments_along(self):
        """SIGKILL the owner of a pooled runtime mid-life: within 10 s no
        worker may survive and no segment it published may remain."""
        child = _RUNTIME_CHILD_SETUP + r"""
import json, time
runtime = VectorizedRuntime(machines, 64, workers=2)
runtime.apply_event_matrix(events)
print(json.dumps(sorted(runtime._pool._executor._processes)), flush=True)
time.sleep(120)
"""
        before = psm_segments()
        proc = subprocess.Popen(
            [sys.executable, "-c", child],
            env=_runtime_child_env(),
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            workers = json.loads(proc.stdout.readline())
            assert len(workers) == 2
            assert psm_segments() - before, "the pooled step published nothing"
            os.kill(proc.pid, signal.SIGKILL)
            proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        deadline = time.monotonic() + 10.0
        while time.monotonic() < deadline:
            survivors = [pid for pid in workers if _running(pid)]
            strays = psm_segments() - before
            if not survivors and not strays:
                break
            time.sleep(0.1)
        assert survivors == [], "orphaned pool workers: %s" % survivors
        assert strays == set(), "stranded /dev/shm segments: %s" % sorted(strays)
