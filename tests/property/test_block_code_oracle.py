"""BatchRecovery against the decoders of the system's block code, f = 1..3.

PAPER.md reads ``dmin`` as a code's minimum distance.  Each top state's
*word* holds the state it puts every machine in (originals, then
backups, from Algorithm 1's set representation), and the words form a
:class:`repro.coding.hamming.BlockCode`.  A crash is then an erasure
and a lie an error, so Algorithm 3 is decoding.  On every
``tests/machine_sets.py`` set at f = 1..3 this module draws reachable
runs, crashes or corrupts machines, within the fusion's budget and
past it, and checks ``recover_batch`` against the code's naive
decoders:

* crash-only reports: ``decode_erasures``;
* lies without crashes: ``decode_errors``;
* where the decoder finds several words, ``recover_batch`` raises
  :class:`RecoveryError` under ``strict``, and otherwise it recovers the
  decoded word's top state.

Within the budget (``f`` crashes, ``⌊f/2⌋`` lies) no decode may be
ambiguous.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.coding.hamming import BlockCode
from repro.core.exceptions import RecoveryError, ReproError
from repro.core.fusion import generate_fusion
from repro.core.partition import set_representation
from repro.core.runtime import BatchRecovery

from ..machine_sets import MACHINE_SETS

ORACLE = settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])

_SYSTEMS = {}


def _system(label, f):
    """``(fusion, engine, code, top index of each word)``, built once."""
    key = (label, f)
    if key not in _SYSTEMS:
        fusion = generate_fusion(MACHINE_SETS[label](), f=f)
        top = fusion.product.machine
        blocks = [set_representation(top, m) for m in fusion.all_machines]
        words = [
            tuple(
                next(state for state, tops in machine.items() if t in tops)
                for machine in blocks
            )
            for t in top.states
        ]
        code = BlockCode(words)
        index = {word: t for t, word in enumerate(words)}
        engine = BatchRecovery(fusion.product, fusion.backups)
        _SYSTEMS[key] = (fusion, engine, code, index)
    return _SYSTEMS[key]


def _received(data, fusion, code, kind):
    """A reachable run's word with some positions erased or corrupted,
    and the number of faults."""
    events = list(fusion.product.machine.events)
    stream = data.draw(st.lists(st.sampled_from(events), max_size=20))
    word = [machine.run(stream) for machine in fusion.all_machines]
    length = len(word)
    # Any number of crashes short of all; any number of lies.
    most = length - 1 if kind == "crash" else length
    victims = data.draw(
        st.lists(
            st.integers(min_value=0, max_value=length - 1),
            max_size=most,
            unique=True,
        )
    )
    for m in victims:
        if kind == "crash":
            word[m] = None
        else:
            symbols = sorted({w[m] for w in code.codewords} - {word[m]}, key=repr)
            if symbols:
                word[m] = data.draw(st.sampled_from(symbols))
    return word, len(victims)


def _decode(code, index, received, kind):
    """The decoded top index, or ``None`` when the decode is ambiguous."""
    try:
        if kind == "crash":
            return index[code.decode_erasures(received)]
        return index[code.decode_errors(received)]
    except ReproError:
        return None


@pytest.mark.parametrize("kind", ["crash", "byzantine"])
@pytest.mark.parametrize("f", [1, 2, 3])
@pytest.mark.parametrize("label", list(MACHINE_SETS))
@ORACLE
@given(data=st.data())
def test_recover_batch_decodes_like_the_block_code(label, f, kind, data):
    fusion, engine, code, index = _system(label, f)
    machines = fusion.all_machines
    cohort = data.draw(st.integers(min_value=1, max_value=4))
    reported = np.empty((len(machines), cohort), dtype=np.int64)
    expected = []
    for b in range(cohort):
        received, faults = _received(data, fusion, code, kind)
        for m, (machine, symbol) in enumerate(zip(machines, received)):
            reported[m, b] = -1 if symbol is None else machine.state_index(symbol)
        decoded = _decode(code, index, received, kind)
        budget = fusion.f if kind == "crash" else fusion.f // 2
        if faults <= budget:
            assert decoded is not None, "a fault within the budget is ambiguous"
        expected.append(decoded)

    outcome = engine.recover_batch(reported, strict=False)
    for b, decoded in enumerate(expected):
        if decoded is None:
            with pytest.raises(RecoveryError, match="ambiguous recovery"):
                engine.recover_batch(reported[:, b], strict=True)
        else:
            assert int(outcome.top_indices[b]) == decoded
    unique = [b for b, decoded in enumerate(expected) if decoded is not None]
    if len(unique) < cohort:
        with pytest.raises(RecoveryError, match="ambiguous recovery"):
            engine.recover_batch(reported, strict=True)
    strict = engine.recover_batch(reported[:, unique], strict=True)
    assert strict.top_indices.tolist() == [expected[b] for b in unique]
