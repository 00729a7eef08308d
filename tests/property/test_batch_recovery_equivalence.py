"""BatchRecovery ≡ RecoveryEngine under every server fault kind, f = 1..3.

The batched vote engine must reproduce the per-instance Algorithm 3
outcome-for-outcome on fusions produced by ``generate_fusion``: the same
recovered top state, counts vector, per-machine states, crash lists and
Byzantine suspicions — and the same exception types on ties, exceeded
fault budgets, all-crashed cohorts and impossible reported states —
under both :data:`FaultKind.CRASH` and :data:`FaultKind.BYZANTINE`
(the only kinds servers accept), on small tops and on a top past 4096
states.  The vote matrix itself is checked against a brute-force oracle
written from the definition: for each instance and top state, the
number of machines whose reported block contains that state.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import (
    FaultToleranceExceededError,
    RecoveryError,
    ReproError,
)
from repro.core.fusion import generate_fusion
from repro.core.recovery import RecoveryEngine
from repro.core.runtime import BatchRecovery
from repro.machines import mod_counter
from repro.simulation.faults import FaultKind
from repro.simulation.server import Server

RELAXED = settings(
    max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)

#: The fault kinds a simulated server accepts (the engine kinds target
#: pool workers, never Algorithm 3).
SERVER_FAULT_KINDS = [k for k in FaultKind if not k.targets_engine]


def _counters(count: int = 3):
    events = tuple(range(count))
    return [
        mod_counter(3, count_event=e, events=events, name="m%d" % e) for e in events
    ]


@pytest.fixture(scope="module")
def fusions():
    """One fusion per (f, byzantine) the suite exercises, built once."""
    cases = {}
    for f in (1, 2, 3):
        cases[(f, False)] = generate_fusion(_counters(), f=f)
    for f in (1, 2, 3):
        cases[(f, True)] = generate_fusion(_counters(), f=f, byzantine=True)
    return cases


@pytest.fixture(scope="module")
def large_fusion():
    """counters-8 (top=6561), two backups: two crashes or one liar."""
    return generate_fusion(_counters(8), f=1, byzantine=True)


def _engines(fusion):
    return (
        RecoveryEngine(fusion.product, fusion.backups),
        BatchRecovery(fusion.product, fusion.backups),
    )


def _observations(fusion, names, stream):
    """Ground-truth reports after a shared stream, via per-server stepping."""
    servers = [Server(machine) for machine in fusion.all_machines]
    for server in servers:
        server.apply_sequence(stream)
    return {name: server.report_state() for name, server in zip(names, servers)}


def _outcomes_equal(ours, theirs):
    assert ours.top_index == theirs.top_index
    assert ours.top_state == theirs.top_state
    assert np.array_equal(ours.counts, theirs.counts)
    assert ours.machine_states == theirs.machine_states
    assert ours.crashed == theirs.crashed
    assert ours.suspected_byzantine == theirs.suspected_byzantine


def _lockstep_pairs(top, machine):
    """Every (top state, machine state) pair reachable when both machines
    start in their initial states and consume the same events."""
    start = (top.initial, machine.initial)
    seen, frontier = {start}, [start]
    while frontier:
        top_state, state = frontier.pop()
        for event in top.events:
            pair = (top.step(top_state, event), machine.step(state, event))
            if pair not in seen:
                seen.add(pair)
                frontier.append(pair)
    return seen


def _column_observations(fusion, names, reported, b):
    machines = fusion.all_machines
    return {
        name: (
            None
            if reported[m, b] < 0
            else machines[m].state_label(int(reported[m, b]))
        )
        for m, name in enumerate(names)
    }


def _column_matches(single, outcome, b, fusion, names):
    machines = fusion.all_machines
    assert int(outcome.top_indices[b]) == single.top_index
    for m, name in enumerate(names):
        assert (
            machines[m].state_label(int(outcome.machine_states[m, b]))
            == single.machine_states[name]
        )
        assert bool(outcome.crashed[m, b]) == (name in single.crashed)
        assert bool(outcome.suspected_byzantine[m, b]) == (
            name in single.suspected_byzantine
        )


class TestSingleInstanceEquivalence:
    def test_same_machine_naming(self, fusions):
        for fusion in fusions.values():
            engine, batch = _engines(fusion)
            assert engine.machine_names == batch.machine_names

    @pytest.mark.parametrize("kind", SERVER_FAULT_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("f", [1, 2, 3])
    @RELAXED
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    def test_outcome_equal_under_each_fault_kind(self, kind, f, fusions, data, seed):
        byzantine = kind is FaultKind.BYZANTINE
        fusion = fusions[(f, byzantine)]
        engine, batch = _engines(fusion)
        names = engine.machine_names
        rng = np.random.default_rng(seed)
        stream = list(rng.integers(0, 3, size=int(rng.integers(0, 25))))
        observations = _observations(fusion, names, stream)

        budget = fusion.f if not byzantine else fusion.byzantine_f
        count = data.draw(st.integers(min_value=0, max_value=budget))
        victims = data.draw(
            st.lists(st.sampled_from(list(names)), min_size=count, max_size=count, unique=True)
        )
        for victim in victims:
            if kind is FaultKind.CRASH:
                observations[victim] = None
            else:
                machine = fusion.all_machines[names.index(victim)]
                wrong = [s for s in machine.states if s != observations[victim]]
                observations[victim] = wrong[int(rng.integers(0, len(wrong)))]

        kwargs = {"expected_max_faults": budget} if kind is FaultKind.CRASH else {}
        try:
            expected = engine.recover(observations, **kwargs)
        except ReproError as exc:  # pragma: no cover - budget never exceeded here
            with pytest.raises(type(exc)):
                batch.recover(observations, **kwargs)
            return
        _outcomes_equal(batch.recover(observations, **kwargs), expected)

    @RELAXED
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_arbitrary_report_matrices_agree(self, fusions, seed):
        """Not just reachable runs: *any* observation map (valid states,
        random crashes) must produce identical outcomes or identical
        exception types — ties and overspent budgets included."""
        fusion = fusions[(1, False)]
        engine, batch = _engines(fusion)
        names = engine.machine_names
        rng = np.random.default_rng(seed)
        observations = {}
        for name in names:
            machine = fusion.all_machines[names.index(name)]
            if rng.random() < 0.3:
                observations[name] = None
            else:
                observations[name] = machine.state_label(
                    int(rng.integers(0, machine.num_states))
                )
        results = []
        for voter in (engine, batch):
            try:
                results.append(voter.recover(observations))
            except ReproError as exc:
                results.append(type(exc))
        if isinstance(results[0], type):
            assert results[0] is results[1]
        else:
            _outcomes_equal(results[1], results[0])


class TestErrorPathParity:
    def test_all_crashed(self, fusions):
        engine, batch = _engines(fusions[(1, False)])
        observations = {name: None for name in engine.machine_names}
        for voter in (engine, batch):
            with pytest.raises(RecoveryError):
                voter.recover(observations)

    def test_budget_exceeded(self, fusions):
        engine, batch = _engines(fusions[(1, False)])
        names = engine.machine_names
        observations = _observations(fusions[(1, False)], names, [0, 1])
        observations[names[0]] = None
        observations[names[1]] = None
        for voter in (engine, batch):
            with pytest.raises(FaultToleranceExceededError):
                voter.recover(observations, expected_max_faults=1)

    def test_unknown_machine(self, fusions):
        engine, batch = _engines(fusions[(1, False)])
        observations = _observations(
            fusions[(1, False)], engine.machine_names, []
        )
        observations["ghost"] = "x"
        for voter in (engine, batch):
            with pytest.raises(RecoveryError):
                voter.recover(observations)

    def test_byzantine_requires_all_reports(self, fusions):
        engine, batch = _engines(fusions[(1, True)])
        names = engine.machine_names
        observations = _observations(fusions[(1, True)], names, [0])
        observations[names[0]] = None
        for voter in (engine, batch):
            with pytest.raises(RecoveryError):
                voter.recover_from_byzantine(observations)


class TestBatchedCohorts:
    @RELAXED
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_batch_columns_match_single_instance_calls(self, fusions, seed):
        """A (M, B) cohort vote equals B per-instance votes."""
        fusion = fusions[(2, False)]
        engine, batch = _engines(fusion)
        names = batch.machine_names
        machines = fusion.all_machines
        rng = np.random.default_rng(seed)
        cohort = 7
        reported = np.zeros((len(names), cohort), dtype=np.int64)
        for b in range(cohort):
            stream = list(rng.integers(0, 3, size=int(rng.integers(0, 15))))
            observations = _observations(fusion, names, stream)
            dead = rng.choice(len(names), int(rng.integers(0, 3)), replace=False)
            for m in dead:
                observations[names[m]] = None
            for m, name in enumerate(names):
                state = observations[name]
                reported[m, b] = -1 if state is None else machines[m].state_index(state)
        outcome = batch.recover_batch(reported, expected_max_faults=2)
        for b in range(cohort):
            _column_matches(
                engine.recover(_column_observations(fusion, names, reported, b),
                               expected_max_faults=2),
                outcome, b, fusion, names,
            )

    @pytest.mark.parametrize("seed", [3, 11])
    def test_top_past_4096_matches_single_instance_calls(self, large_fusion, seed):
        """counters-8 (top=6561): a cohort mixing up to two crashes per
        instance with single liars votes like per-instance Algorithm 3."""
        fusion = large_fusion
        engine, batch = _engines(fusion)
        names = batch.machine_names
        machines = fusion.all_machines
        assert batch.top.num_states > 4096
        rng = np.random.default_rng(seed)
        cohort = 12
        reported = np.zeros((len(names), cohort), dtype=np.int64)
        for b in range(cohort):
            stream = list(rng.integers(0, 8, size=int(rng.integers(0, 30))))
            observations = _observations(fusion, names, stream)
            for m, name in enumerate(names):
                reported[m, b] = machines[m].state_index(observations[name])
            if b % 2:
                liar = int(rng.integers(len(names)))
                n = machines[liar].num_states
                reported[liar, b] = (reported[liar, b] + int(rng.integers(1, n))) % n
            else:
                dead = rng.choice(len(names), int(rng.integers(0, 3)), replace=False)
                reported[dead, b] = -1
        outcome = batch.recover_batch(reported)
        for b in range(cohort):
            observations = _column_observations(fusion, names, reported, b)
            single = engine.recover(observations)
            assert np.array_equal(outcome.counts[b], single.counts)
            _column_matches(single, outcome, b, fusion, names)


class TestVoteOracle:
    @RELAXED
    @given(data=st.data())
    def test_counts_match_brute_force_vote(self, fusions, data):
        """``BatchOutcome.counts`` and the winners equal a vote counted
        from Algorithm 3's definition on arbitrary valid cohorts."""
        key = data.draw(st.sampled_from(sorted(fusions)))
        fusion = fusions[key]
        batch = BatchRecovery(fusion.product, fusion.backups)
        machines = fusion.all_machines
        pairs = [_lockstep_pairs(fusion.product.machine, m) for m in machines]
        cohort = data.draw(st.integers(min_value=1, max_value=6))
        reported = np.full((len(machines), cohort), -1, dtype=np.int64)
        for b in range(cohort):
            alive = data.draw(
                st.lists(st.booleans(), min_size=len(machines), max_size=len(machines))
                .filter(any)
            )
            for m, machine in enumerate(machines):
                if alive[m]:
                    states = sorted({s for _, s in pairs[m]}, key=machine.state_index)
                    reported[m, b] = machine.state_index(
                        data.draw(st.sampled_from(states))
                    )
        outcome = batch.recover_batch(reported, strict=False)
        top = fusion.product.machine
        oracle = np.zeros((cohort, top.num_states), dtype=np.int64)
        for b in range(cohort):
            for t, top_state in enumerate(top.states):
                for m, machine in enumerate(machines):
                    if reported[m, b] >= 0 and (
                        top_state, machine.state_label(int(reported[m, b]))
                    ) in pairs[m]:
                        oracle[b, t] += 1
        assert np.array_equal(outcome.counts, oracle)
        assert outcome.top_indices.tolist() == oracle.argmax(axis=1).tolist()

