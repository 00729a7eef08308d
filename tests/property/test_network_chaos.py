"""Seeded network-chaos properties — the fabric's core invariant.

Under *any* seeded network schedule (drops, duplicates, reorders,
bounded delays, partitions), as long as machine faults stay within the
fault budget, every client observes exactly the fault-free run's
states: the delivery protocol (sequence numbers, exactly-once
application, retry with backoff) turns the adversarial network back
into the paper's perfect globally-ordered event stream.  The result is
byte-identical across reruns of one seed and across fusion generation
at workers 1, 2 and 4.

The same holds at mid size: the machine zoo under one fixed hostile
schedule, at ``f = 2`` and along ``f = 1..3``.

Past the budget the system must *degrade*, never lie: a schedule that
kills more than ``f`` links ends DEGRADED with the culprits named.
"""

from __future__ import annotations

import pytest

from repro.core.exceptions import FaultBudgetExceededError
from repro.core.fusion import generate_fusion
from repro.machines import fig1_counter_a, fig1_counter_b
from repro.machines.catalog import zoo
from repro.simulation import DistributedSystem, FaultInjector
from repro.simulation.fabric import NetworkChaosSpec
from repro.utils.rng import as_generator, derive_seed

CHAOS_SEEDS = list(range(6))
WORKLOAD = [0, 1, 0, 0, 1, 1, 0, 1] * 5
F = 2


def _machines():
    return [fig1_counter_a(), fig1_counter_b()]


@pytest.fixture(scope="module")
def fusion():
    return generate_fusion(_machines(), F)


@pytest.fixture(scope="module")
def reference_states(fusion):
    """Final states of a fault-free, fabric-free run."""
    system = DistributedSystem.with_fusion_backups(_machines(), f=F, fusion=fusion)
    report = system.run(WORKLOAD)
    assert report.consistent
    return system.states()


def _chaos_for(seed: int) -> NetworkChaosSpec:
    """A moderately hostile schedule drawn deterministically from ``seed``."""
    rng = as_generator(derive_seed(seed, "net-chaos-test"))
    return NetworkChaosSpec(
        {
            kind: float(rng.uniform(0.05, high))
            for kind, high in zip(
                NetworkChaosSpec._KIND_ORDER, (0.3, 0.25, 0.15, 0.25, 0.08)
            )
        },
        max_delay_ticks=int(rng.integers(1, 4)),
        partition_ticks=int(rng.integers(2, 7)),
        seed=seed,
    )


def _fault_plan(system, seed: int):
    """A within-budget crash plan drawn deterministically from ``seed``."""
    injector = FaultInjector(
        system.server_names(), seed=derive_seed(seed, "net-chaos-plan")
    )
    num_crash = int(injector.rng.integers(0, F + 1))
    return injector.random_plan(num_crash, 0, len(WORKLOAD))


class TestFaultFreeEquivalence:
    @pytest.mark.parametrize("seed", CHAOS_SEEDS)
    def test_any_seeded_schedule_yields_fault_free_states(
        self, seed, fusion, reference_states
    ):
        system = DistributedSystem.with_fusion_backups(
            _machines(),
            f=F,
            fusion=fusion,
            network=_chaos_for(seed),
            supervised=True,
            heartbeat_interval=7,
        )
        report = system.run(WORKLOAD, fault_plan=_fault_plan(system, seed))
        assert report.status == "healthy"
        assert report.consistent
        assert system.states() == reference_states

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:3])
    def test_reruns_agree_event_for_event(self, seed, fusion):
        finals = []
        for _ in range(2):
            system = DistributedSystem.with_fusion_backups(
                _machines(),
                f=F,
                fusion=fusion,
                network=_chaos_for(seed),
                supervised=True,
            )
            report = system.run(WORKLOAD, fault_plan=_fault_plan(system, seed))
            assert report.status == "healthy"
            finals.append((system.states(), report.delivery))
        assert finals[0] == finals[1]

    @pytest.mark.parametrize("seed", CHAOS_SEEDS[:2])
    def test_worker_counts_agree(self, seed, reference_states):
        """Fusion generated at workers 1, 2, 4 drives identical runs."""
        finals = []
        for workers in (1, 2, 4):
            fusion = generate_fusion(_machines(), F, workers=workers)
            system = DistributedSystem.with_fusion_backups(
                _machines(),
                f=F,
                fusion=fusion,
                network=_chaos_for(seed),
                supervised=True,
            )
            report = system.run(WORKLOAD, fault_plan=_fault_plan(system, seed))
            assert report.status == "healthy"
            finals.append(system.states())
        assert finals[0] == finals[1] == finals[2]
        assert finals[0] == reference_states


class TestPastBudgetDegrades:
    def test_killing_more_than_f_links_degrades_with_culprits(self, fusion):
        system = DistributedSystem.with_fusion_backups(
            _machines(), f=F, fusion=fusion, supervised=True,
            network=None,  # replaced below with targeted total loss
        )
        victims = tuple(system.server_names()[: F + 1])
        chaos = NetworkChaosSpec(
            {NetworkChaosSpec._KIND_ORDER[0]: 1.0},  # DROP everything ...
            servers=victims,  # ... on f+1 links
            seed=3,
        )
        system = DistributedSystem.with_fusion_backups(
            _machines(), f=F, fusion=fusion, supervised=True, network=chaos
        )
        report = system.run(WORKLOAD)
        assert report.status == "degraded"
        assert set(victims) <= set(report.culprits)
        assert report.faults_injected >= F + 1
        # The supervisor refused to restore: the dead servers stay down.
        for name in victims:
            assert system.server(name).report_state() is None

    def test_direct_recover_raises_typed_error(self, fusion):
        system = DistributedSystem.with_fusion_backups(
            _machines(), f=F, fusion=fusion, supervised=True
        )
        for name in list(system.server_names())[: F + 1]:
            system.server(name).crash()
        with pytest.raises(FaultBudgetExceededError) as excinfo:
            system.recover()
        assert len(excinfo.value.culprits) == F + 1
        assert excinfo.value.observed == F + 1
        assert excinfo.value.tolerated == F


#: A quarter of all transmissions dropped, reorders and link partitions
#: on top, all drawn from one seed.
ZOO_CHAOS = "drop=0.25,reorder=0.15,partition=0.05,partition_ticks=4,seed=11"
ZOO_WORKLOAD = list("abacbcab") * 4


def _zoo_reference(fusion, f):
    """Final states of an undisturbed, fabric-free zoo run at this ``f``."""
    system = DistributedSystem.with_fusion_backups(zoo(), f=f, fusion=fusion)
    assert system.run(ZOO_WORKLOAD).consistent
    return system.states()


def _zoo_chaos_run(fusion, f):
    system = DistributedSystem.with_fusion_backups(
        zoo(),
        f=f,
        fusion=fusion,
        network=NetworkChaosSpec.parse(ZOO_CHAOS),
        supervised=True,
        heartbeat_interval=5,
    )
    return system, system.run(ZOO_WORKLOAD)


@pytest.mark.usefixtures("no_stray_segments")
class TestZooUnderSeededChaos:
    def test_chaos_run_matches_fault_free_reference(self, monkeypatch):
        """The schedule fires (``dropped > 0``) and the run ends healthy
        with the fabric-free states."""
        monkeypatch.delenv("REPRO_NET_CHAOS", raising=False)
        fusion = generate_fusion(zoo(), 2)
        system, report = _zoo_chaos_run(fusion, 2)
        assert report.status == "healthy", report.culprits
        assert report.consistent
        assert system.states() == _zoo_reference(fusion, 2)
        assert report.delivery["delivered"] > 0
        assert report.delivery["dropped"] > 0, "the chaos schedule never fired"

    def test_f_sweep_stays_healthy(self, monkeypatch):
        """More redundancy, same hostile network: healthy at every ``f``."""
        monkeypatch.delenv("REPRO_NET_CHAOS", raising=False)
        backups = []
        for f in (1, 2, 3):
            fusion = generate_fusion(zoo(), f)
            system, report = _zoo_chaos_run(fusion, f)
            assert report.status == "healthy" and report.consistent, f
            assert system.states() == _zoo_reference(fusion, f), f
            assert report.delivery["delivered"] > 0, f
            assert 1 <= len(fusion.backups) < len(system.server_names())
            backups.append(len(fusion.backups))
        assert backups == sorted(backups)
