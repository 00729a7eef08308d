"""Seeded end-to-end fuzz: heterogeneous fleets, faults, full round-trips.

Each case draws a random heterogeneous machine set (TCP, cache-coherence,
parity/toggle and counter machines), fuses it with Algorithm 2, executes
a random event stream with faults injected mid-stream, recovers with
Algorithm 3, and asserts the round trip: after recovery every server —
original and fusion backup — is back in exactly the state a fault-free
run would have produced.  Every draw derives from the case seed via
:mod:`repro.utils.rng`, so failures replay exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.fusion import generate_fusion
from repro.core.runtime import BatchRecovery, VectorizedRuntime, recover_fleet
from repro.machines import (
    mesi,
    mod_counter,
    msi,
    parity_checker,
    tcp_simplified,
    toggle_switch,
)
from repro.simulation.faults import FaultInjector
from repro.simulation.system import DistributedSystem
from repro.utils.rng import as_generator, derive_seed

FUZZ_SEEDS = list(range(8))


def _machine_pool(generator):
    """Candidate heterogeneous machines over one shared merged alphabet."""
    events = ("a", "b", "c")
    return [
        tcp_simplified(events=events),
        msi(events=events),
        mesi(events=events),
        parity_checker("a", events=events, name="parity-a"),
        parity_checker("b", events=events, name="parity-b"),
        toggle_switch("c", events=events, name="toggle-c"),
        mod_counter(3, count_event="a", events=events, name="count-a"),
        mod_counter(int(generator.integers(2, 5)), count_event="b", events=events, name="count-b"),
    ]


def _draw_scenario(seed):
    """A reproducible fuzz case: machines, fusion, workload and faults."""
    generator = as_generator(derive_seed(seed, "e2e-fuzz"))
    pool = _machine_pool(generator)
    count = int(generator.integers(2, 4))
    picks = generator.choice(len(pool), size=count, replace=False)
    machines = [pool[int(i)] for i in sorted(picks)]
    byzantine = bool(generator.integers(0, 2))
    f = int(generator.integers(2, 4)) if byzantine else int(generator.integers(1, 3))
    fusion = generate_fusion(machines, f=f, byzantine=byzantine)
    budget = fusion.byzantine_f if byzantine else fusion.f
    workload = [
        ("a", "b", "c")[int(e)]
        for e in generator.integers(0, 3, size=int(generator.integers(5, 30)))
    ]
    return generator, machines, fusion, byzantine, budget, workload


def _fault_plan(generator, seed, system, byzantine, budget, workload):
    injector = FaultInjector(system.server_names(), seed=derive_seed(seed, "plan"))
    num_faults = int(generator.integers(1, budget + 1))
    num_byzantine = int(generator.integers(0, num_faults + 1)) if byzantine else 0
    return injector.random_plan(
        num_crash=num_faults - num_byzantine,
        num_byzantine=num_byzantine,
        workload_length=len(workload),
    )


@pytest.mark.parametrize("seed", FUZZ_SEEDS)
def test_fuzzed_fleet_round_trips(seed):
    generator, machines, fusion, byzantine, budget, workload = _draw_scenario(seed)

    system = DistributedSystem.with_fusion_backups(
        machines, f=fusion.f, byzantine=byzantine, fusion=fusion
    )
    plan = _fault_plan(
        as_generator(derive_seed(seed, "faults")), seed, system, byzantine, budget, workload
    )
    report = system.run(workload, fault_plan=plan, rng=derive_seed(seed, "corrupt"))

    assert report.consistent
    assert report.events_applied == len(workload)
    assert report.faults_injected >= 1
    assert report.recoveries >= 1
    # Round trip: recovery restored the exact fault-free states.
    assert system.states() == {m.name: m.run(workload) for m in fusion.all_machines}


@pytest.mark.parametrize("seed", FUZZ_SEEDS[:4])
def test_fuzzed_fleet_scale_batch_round_trip(seed):
    """The same round trip at fleet scale: one VectorizedRuntime holding
    many instances, faults scattered across random (machine, instance)
    cells, one batched Algorithm 3 pass healing all of them."""
    generator, machines, fusion, byzantine, budget, workload = _draw_scenario(seed)
    recovery = BatchRecovery(fusion.product, fusion.backups)
    num_instances = int(generator.integers(10, 50))
    split = int(generator.integers(0, len(workload) + 1))

    with VectorizedRuntime(fusion.all_machines, num_instances, workers=1) as runtime:
        runtime.apply_stream(workload[:split])
        # Fault a distinct random machine row per draw, random instances.
        rows = generator.choice(runtime.num_machines, size=budget, replace=False)
        for row in rows:
            victims = generator.choice(
                num_instances, size=int(generator.integers(1, 6)), replace=False
            )
            corrupt = byzantine and bool(generator.integers(0, 2))
            if corrupt:
                runtime.corrupt_instances(int(row), victims, rng=generator)
            else:
                runtime.crash_instances(int(row), victims)
        runtime.apply_stream(workload[split:])
        assert not runtime.is_consistent()

        recover_fleet(runtime, recovery, expected_max_faults=None if byzantine else budget)

        assert runtime.is_consistent()
        expected = np.array(
            [
                [m.state_index(m.run(workload))] * num_instances
                for m in fusion.all_machines
            ],
            dtype=np.int64,
        )
        assert np.array_equal(runtime.visible_states, expected)
        assert np.array_equal(runtime.true_states, expected)
        assert not runtime.statuses.any()


def test_fuzz_is_reproducible():
    """Two draws from the same seed yield the identical scenario."""
    first = _draw_scenario(3)
    second = _draw_scenario(3)
    assert [m.name for m in first[1]] == [m.name for m in second[1]]
    assert first[5] == second[5]
    assert first[3] == second[3] and first[4] == second[4]
