"""BatchRecovery against Algorithm 3 written from the paper, f = 1..3.

The batched engine must reproduce :class:`Algorithm3Oracle`, a
naive per-instance Algorithm 3 built in this module from the paper's
definitions, outcome-for-outcome on fusions produced by
``generate_fusion``: the same recovered top state, counts vector,
per-machine states, crash lists and Byzantine suspicions — and the same
exception types on ties, exceeded fault budgets, all-crashed cohorts and
impossible reported states — under both :data:`FaultKind.CRASH` and
:data:`FaultKind.BYZANTINE` (the only kinds servers accept), on small
tops and on a top past 4096 states — and on the catalog's heterogeneous
machine sets (per-machine alphabets, protocols, a shift register) as well
as the counters.  The vote matrix itself is checked
against a brute-force count: for each instance and top state, the
number of machines whose reported state is reachable alongside it.
The engine decodes by table lookups up to a radius of ``⌊backups/2⌋``
lies and counts the vote past it, so cohorts with more liars, a key cut
short, an evicted table cache and the memory of a 4096-instance
recovery are checked too.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.exceptions import (
    FaultBudgetExceededError,
    FaultToleranceExceededError,
    RecoveryError,
    ReproError,
)
from repro.core.fusion import generate_fusion
from repro.core.partition import set_representation
from repro.core.recovery import RecoveryOutcome, recover_top_state
from repro.core import runtime as runtime_module
from repro.core.runtime import BatchRecovery, VectorizedRuntime, recover_fleet
from repro.machines import mod_counter
from repro.simulation.faults import FaultKind
from repro.simulation.server import Server

from ..machine_sets import MACHINE_SETS

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


_CATALOG_FUSIONS = {}


def _catalog_fusion(label, f, byzantine):
    """``generate_fusion`` of a :data:`MACHINE_SETS` entry, built once."""
    key = (label, f, byzantine)
    if key not in _CATALOG_FUSIONS:
        _CATALOG_FUSIONS[key] = generate_fusion(
            MACHINE_SETS[label](), f=f, byzantine=byzantine
        )
    return _CATALOG_FUSIONS[key]


@pytest.fixture(scope="module")
def large_fusion():
    """counters-8 (top=6561), two backups: two crashes or one liar."""
    return generate_fusion(_counters(8), f=1, byzantine=True)


class Algorithm3Oracle:
    """Algorithm 3 from the paper, one instance at a time.

    Every machine's state stands for its block of top states, the set
    representation of Algorithm 1 (:func:`set_representation`).  The
    vote counts, per top state, the reported blocks containing it
    (:func:`recover_top_state`); the winner is projected back onto every
    machine as the one block that contains it.  Machines are named in
    product order, then the backups, a repeated name getting ``#2``,
    ``#3``, ...
    """

    def __init__(self, product, backups):
        top = product.machine
        self.top = top
        self.product = product
        self.blocks = {}
        for machine in (*product.components, *backups):
            name, suffix = machine.name, 2
            while name in self.blocks:
                name, suffix = "%s#%d" % (machine.name, suffix), suffix + 1
            self.blocks[name] = {
                state: frozenset(top.state_index(t) for t in tops)
                for state, tops in set_representation(top, machine).items()
            }

    @property
    def machine_names(self):
        return tuple(self.blocks)

    def recover(self, observations, strict=True, expected_max_faults=None):
        if set(observations) - set(self.blocks):
            raise RecoveryError("observations for unknown machines")
        crashed, reported = [], {}
        for name, blocks in self.blocks.items():
            state = observations.get(name)
            if state is None:
                crashed.append(name)
            elif state not in blocks:
                raise RecoveryError("%r cannot be in state %r" % (name, state))
            else:
                reported[name] = blocks[state]
        if expected_max_faults is not None and len(crashed) > expected_max_faults:
            raise FaultBudgetExceededError.for_crashes(crashed, expected_max_faults)
        if not reported:
            raise RecoveryError("every machine crashed")
        top_index, counts = recover_top_state(
            list(reported.values()), self.top.num_states, strict=strict
        )
        machine_states = {
            name: next(s for s, block in blocks.items() if top_index in block)
            for name, blocks in self.blocks.items()
        }
        return RecoveryOutcome(
            top_state=self.product.state_tuple(top_index),
            top_index=top_index,
            counts=counts,
            machine_states=machine_states,
            crashed=tuple(crashed),
            suspected_byzantine=tuple(
                name for name, block in reported.items() if top_index not in block
            ),
        )

    def recover_from_byzantine(self, observations):
        if any(observations.get(name) is None for name in self.blocks):
            raise RecoveryError("Byzantine recovery expects every machine's report")
        return self.recover(observations)


def _engines(fusion):
    return (
        Algorithm3Oracle(fusion.product, fusion.backups),
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
            oracle, batch = _engines(fusion)
            assert oracle.machine_names == batch.machine_names

    @pytest.mark.parametrize("kind", SERVER_FAULT_KINDS, ids=lambda k: k.value)
    @pytest.mark.parametrize("f", [1, 2, 3])
    @RELAXED
    @given(data=st.data(), seed=st.integers(min_value=0, max_value=10_000))
    def test_outcome_equal_under_each_fault_kind(self, kind, f, fusions, data, seed):
        byzantine = kind is FaultKind.BYZANTINE
        fusion = fusions[(f, byzantine)]
        oracle, batch = _engines(fusion)
        names = oracle.machine_names
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
            expected = oracle.recover(observations, **kwargs)
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
        oracle, batch = _engines(fusion)
        names = oracle.machine_names
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
        for voter in (oracle, batch):
            try:
                results.append(voter.recover(observations))
            except ReproError as exc:
                results.append(type(exc))
        if isinstance(results[0], type):
            assert results[0] is results[1]
        else:
            _outcomes_equal(results[1], results[0])


class TestCatalogMachineSets:
    @pytest.mark.parametrize(
        "kind", [FaultKind.CRASH, FaultKind.BYZANTINE], ids=lambda k: k.value
    )
    @pytest.mark.parametrize("f", [1, 2])
    @pytest.mark.parametrize("label", list(MACHINE_SETS))
    @RELAXED
    @given(data=st.data())
    def test_outcome_equal_within_budget(self, label, f, kind, data):
        """Reachable runs with up to the fusion's budget of crashes or
        liars vote like the oracle on every catalog machine set."""
        byzantine = kind is FaultKind.BYZANTINE
        fusion = _catalog_fusion(label, f, byzantine)
        oracle, batch = _engines(fusion)
        names = oracle.machine_names
        assert names == batch.machine_names
        events = list(fusion.product.machine.events)
        stream = data.draw(st.lists(st.sampled_from(events), max_size=25))
        observations = _observations(fusion, names, stream)

        budget = fusion.f if not byzantine else fusion.byzantine_f
        victims = data.draw(
            st.lists(st.sampled_from(list(names)), max_size=budget, unique=True)
        )
        for victim in victims:
            if kind is FaultKind.CRASH:
                observations[victim] = None
            else:
                machine = fusion.all_machines[names.index(victim)]
                wrong = [s for s in machine.states if s != observations[victim]]
                observations[victim] = data.draw(st.sampled_from(wrong))

        kwargs = {"expected_max_faults": budget} if kind is FaultKind.CRASH else {}
        expected = oracle.recover(observations, **kwargs)
        assert expected.top_state == fusion.product.machine.run(stream)
        _outcomes_equal(batch.recover(observations, **kwargs), expected)


class TestErrorPathParity:
    def test_all_crashed(self, fusions):
        oracle, batch = _engines(fusions[(1, False)])
        observations = {name: None for name in oracle.machine_names}
        for voter in (oracle, batch):
            with pytest.raises(RecoveryError):
                voter.recover(observations)

    def test_budget_exceeded(self, fusions):
        oracle, batch = _engines(fusions[(1, False)])
        names = oracle.machine_names
        observations = _observations(fusions[(1, False)], names, [0, 1])
        observations[names[0]] = None
        observations[names[1]] = None
        for voter in (oracle, batch):
            with pytest.raises(FaultToleranceExceededError):
                voter.recover(observations, expected_max_faults=1)

    def test_unknown_machine(self, fusions):
        oracle, batch = _engines(fusions[(1, False)])
        observations = _observations(
            fusions[(1, False)], oracle.machine_names, []
        )
        observations["ghost"] = "x"
        for voter in (oracle, batch):
            with pytest.raises(RecoveryError):
                voter.recover(observations)

    def test_byzantine_requires_all_reports(self, fusions):
        oracle, batch = _engines(fusions[(1, True)])
        names = oracle.machine_names
        observations = _observations(fusions[(1, True)], names, [0])
        observations[names[0]] = None
        for voter in (oracle, batch):
            with pytest.raises(RecoveryError):
                voter.recover_from_byzantine(observations)


class TestBatchedCohorts:
    @pytest.mark.parametrize("label", list(MACHINE_SETS))
    @RELAXED
    @given(seed=st.integers(min_value=0, max_value=10_000))
    def test_batch_columns_match_single_instance_calls(self, label, seed):
        """An (M, B) cohort with up to two crashes per instance equals B
        per-instance votes on every catalog machine set."""
        fusion = _catalog_fusion(label, 2, False)
        oracle, batch = _engines(fusion)
        names = batch.machine_names
        machines = fusion.all_machines
        events = list(fusion.product.machine.events)
        rng = np.random.default_rng(seed)
        cohort = 7
        reported = np.zeros((len(names), cohort), dtype=np.int64)
        for b in range(cohort):
            picks = rng.integers(0, len(events), size=int(rng.integers(0, 15)))
            observations = _observations(fusion, names, [events[i] for i in picks])
            for m, name in enumerate(names):
                reported[m, b] = machines[m].state_index(observations[name])
            dead = rng.choice(len(names), int(rng.integers(0, 3)), replace=False)
            reported[dead, b] = -1
        outcome = batch.recover_batch(reported, expected_max_faults=2)
        for b in range(cohort):
            single = oracle.recover(
                _column_observations(fusion, names, reported, b),
                expected_max_faults=2,
            )
            assert np.array_equal(outcome.counts[b], single.counts)
            _column_matches(single, outcome, b, fusion, names)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_top_past_4096_matches_single_instance_calls(self, large_fusion, seed):
        """counters-8 (top=6561): a cohort mixing up to two crashes per
        instance with single liars votes like per-instance Algorithm 3."""
        fusion = large_fusion
        oracle, batch = _engines(fusion)
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
            single = oracle.recover(observations)
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


def _tie_message(counts):
    """The vote's strict-tie message for one instance's counts."""
    best = int(counts.max())
    return (
        "ambiguous recovery: top states %s tie with %d votes each "
        "(more faults than the system tolerates?)"
        % (np.flatnonzero(counts == best).tolist(), best)
    )


def _faulty_cohort(fusion, rng, cohort, max_liars, max_crashes):
    """Reachable columns, each with random liars and crashes."""
    machines = fusion.all_machines
    top = fusion.product.machine
    reported = np.empty((len(machines), cohort), dtype=np.int64)
    for b in range(cohort):
        stream = [top.events[i] for i in rng.integers(0, len(top.events), 20)]
        for m, machine in enumerate(machines):
            reported[m, b] = machine.state_index(machine.run(stream))
        victims = rng.permutation(len(machines))
        liars = victims[: int(rng.integers(0, max_liars + 1))]
        dead = victims[liars.size :][: int(rng.integers(0, max_crashes + 1))]
        for m in liars:
            n = machines[m].num_states
            if n > 1:
                reported[m, b] = (reported[m, b] + int(rng.integers(1, n))) % n
        reported[dead, b] = -1
    return reported


class TestRadiusFallback:
    """Columns past the radius bound (``⌊backups/2⌋`` lies) are counted
    by the vote; winners, suspicions and tie errors must still be the
    oracle's, column for column."""

    @pytest.mark.parametrize("key", [(1, True), (2, True), (3, False)])
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_liars_past_the_radius_vote_like_the_oracle(self, fusions, key, seed):
        fusion = fusions[key]
        oracle, batch = _engines(fusion)
        names = batch.machine_names
        rng = np.random.default_rng(seed)
        bound = len(fusion.backups) // 2
        reported = _faulty_cohort(fusion, rng, 24, bound + 2, 1)
        # Drop the (rare) all-crashed draws; strict=False never raises.
        reported = reported[:, (reported >= 0).any(axis=0)]
        outcome = batch.recover_batch(reported, strict=False)
        first_tie = None
        for b in range(reported.shape[1]):
            observations = _column_observations(fusion, names, reported, b)
            single = oracle.recover(observations, strict=False)
            _column_matches(single, outcome, b, fusion, names)
            try:
                oracle.recover(observations, strict=True)
            except RecoveryError:
                message = _tie_message(single.counts)
                with pytest.raises(RecoveryError) as caught:
                    batch.recover_batch(reported[:, b], strict=True)
                assert str(caught.value) == message
                if first_tie is None:
                    first_tie = message
            else:
                batch.recover_batch(reported[:, b], strict=True)
        if first_tie is not None:
            with pytest.raises(RecoveryError) as caught:
                batch.recover_batch(reported, strict=True)
            assert str(caught.value) == first_tie

    def test_machines_past_the_key_are_compared_on_each_hit(self, large_fusion):
        """An engine whose key covers only the first machines (as past an
        int64 key space) expands runs of equal keys and compares the
        rest on each hit; its outcomes equal the full key's."""
        fusion = large_fusion
        full = BatchRecovery(fusion.product, fusion.backups)
        rng = np.random.default_rng(7)
        reported = _faulty_cohort(fusion, rng, 40, 2, 2)
        reported = reported[:, (reported >= 0).any(axis=0)]
        expected = full.recover_batch(reported, strict=False)
        for keyed in (1, 4):
            cut = BatchRecovery(fusion.product, fusion.backups)
            cut._strides = cut._strides[:keyed]
            outcome = cut.recover_batch(reported, strict=False)
            assert np.array_equal(outcome.top_indices, expected.top_indices)
            assert np.array_equal(
                outcome.suspected_byzantine, expected.suspected_byzantine
            )

    def test_evicted_tables_are_rebuilt(self, large_fusion, monkeypatch):
        """A cache of one table's bytes keeps one table and the outcomes."""
        fusion = large_fusion
        full = BatchRecovery(fusion.product, fusion.backups)
        one_table = full.top.num_states * (8 + 4)
        monkeypatch.setattr(runtime_module, "_TABLE_CACHE_BYTES", one_table)
        small = BatchRecovery(fusion.product, fusion.backups)
        rng = np.random.default_rng(5)
        for _ in range(3):
            reported = _faulty_cohort(fusion, rng, 12, 1, 2)
            reported = reported[:, (reported >= 0).any(axis=0)]
            expected = full.recover_batch(reported, strict=False).top_indices
            outcome = small.recover_batch(reported, strict=False)
            assert np.array_equal(outcome.top_indices, expected)
            assert len(small._tables) == 1
            assert small._table_bytes == one_table


class TestRecoveryMemory:
    def test_warm_fleet_recovery_is_linear_in_the_cohort(self, large_fusion):
        """A warm 4096-instance ``recover_fleet`` on counters-8 (top=6561)
        peaks under a tenth of a ``(4096, |top|)`` int16 vote matrix, and
        16 sampled columns equal the oracle's."""
        fusion = large_fusion
        oracle, batch = _engines(fusion)
        names = batch.machine_names
        cohort = 4096
        vote_bytes = cohort * batch.top.num_states * np.dtype(np.int16).itemsize
        rng = np.random.default_rng(17)
        with VectorizedRuntime(fusion.all_machines, cohort, workers=1) as runtime:
            events = rng.integers(0, len(runtime.alphabet), size=(30, cohort))
            runtime.apply_event_matrix(events)
            truth = runtime.report_matrix()
            for _ in range(2):  # the first pass builds the table
                runtime.crash_instances(0)
                runtime.crash_instances(9)
                reported = runtime.report_matrix()
                tracemalloc.start()
                outcome = recover_fleet(runtime, batch, expected_max_faults=2)
                peak = tracemalloc.get_traced_memory()[1]
                tracemalloc.stop()
            assert peak < vote_bytes / 10
            assert np.array_equal(runtime.report_matrix(), truth)
        for b in rng.choice(cohort, 16, replace=False):
            observations = _column_observations(fusion, names, reported, b)
            single = oracle.recover(observations, expected_max_faults=2)
            _column_matches(single, outcome, b, fusion, names)
