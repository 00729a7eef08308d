"""Theorem 4 against brute force: Algorithm 2 uses the fewest backups.

Each backup adds at most one to the weight of every fault-graph edge,
and a copy of ``top`` adds exactly one, so ``A`` has an
``(f, m)``-fusion exactly when ``dmin(A) + m > f`` (Theorem 4).  On
hypothesis machine sets with a ``top`` of at most 27 states, at
``f = 1..3``:

* :func:`generate_fusion` returns ``max(0, f + 1 - dmin(A))`` backups,
  with ``dmin(A)`` taken from the Hamming-distance oracle of
  ``test_fault_graph_oracle``;
* when that count is positive, one backup fewer is not enough:
  :func:`repro.core.exhaustive.find_all_fusions` tries every multiset of
  that many non-trivial closed partitions of ``top`` and finds none;
* the backups themselves are minimal in the sense of Definition 6
  (Theorem 5): :func:`repro.core.exhaustive.is_minimal_fusion` replaces
  each backup by every closed partition at or below it and finds no
  fusion strictly below the one returned.

Example counts follow the active hypothesis profile, so
``--hypothesis-profile=oracle`` (registered in ``tests/conftest.py``)
raises them.
"""

from __future__ import annotations

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import generate_fusion
from repro.core.exhaustive import find_all_fusions, is_minimal_fusion

from .strategies import machine_set_strategy
from .test_fault_graph_oracle import oracle_dmin, state_words


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(machines=machine_set_strategy(), f=st.integers(min_value=1, max_value=3))
def test_backup_count_is_the_theorem4_minimum(machines, f):
    result = generate_fusion(machines, f)
    dmin = oracle_dmin(state_words(result.product, []))
    assert result.num_backups == max(0, f + 1 - dmin)
    if result.num_backups >= 1:
        fewer = find_all_fusions(machines, f, result.num_backups - 1, product=result.product)
        assert fewer == []


@settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(machines=machine_set_strategy(), f=st.integers(min_value=1, max_value=3))
def test_backups_are_definition6_minimal(machines, f):
    result = generate_fusion(machines, f)
    if result.num_backups:
        assert is_minimal_fusion(
            machines, result.backups, f, product=result.product
        )
