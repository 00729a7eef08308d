"""Shared type aliases used across the :mod:`repro.core` package.

The library represents DFSM states and events by arbitrary hashable
labels at the API boundary (strings, integers, tuples) and by dense
integer indices internally, so that hot loops can operate on NumPy
arrays.  These aliases document which of the two representations a
function expects.
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence, Tuple, Union

import numpy as np

__all__ = [
    "StateLabel",
    "EventLabel",
    "StateIndex",
    "EventIndex",
    "TransitionMap",
    "StateTuple",
    "BlockLabelVector",
    "narrow_index_dtype",
    "narrow_key_dtype",
]


def narrow_index_dtype(num_values: int) -> type:
    """The narrowest NumPy integer dtype indexing ``num_values`` items.

    One shared policy for every structure that stores state indices or
    partition labels compactly (the sparse ledger's Hamming ball, the
    cross product's cached label matrix): ``int32`` whenever the value
    range fits, ``int64`` otherwise.  Keeping the rule here — the bottom
    of the layer map — lets producers and consumers agree without
    importing across layers.
    """
    return np.int32 if num_values <= np.iinfo(np.int32).max else np.int64


#: Largest block count whose canonical pair keys ``a * B + b`` (with
#: ``a < b < B``, so the largest key is ``B**2 - 1``) still fit int32:
#: ``46340**2 < 2**31 - 1 < 46341**2``.  Module-level so tests can patch
#: it down and exercise the int64 key path on small machines (see
#: ``tests/property/test_narrow_keys.py``).
_KEY_INT32_BLOCK_LIMIT = 46341


def narrow_key_dtype(num_blocks: int) -> type:
    """The narrowest dtype holding pair keys ``a * num_blocks + b``.

    The sparse pair ledger addresses unordered state pairs by the
    canonical key ``a * B + b`` (``a < b``) and packs its keys with this
    rule, so the merges and sorts that dominate the large benchmarks
    move half the bytes whenever the state count is below
    :data:`_KEY_INT32_BLOCK_LIMIT` (46341).  Consumers must build keys
    with an explicit ``astype`` to this dtype *before* the multiply:
    letting NumPy promote would compute — and ship — int64 everywhere.
    """
    return np.int32 if num_blocks < _KEY_INT32_BLOCK_LIMIT else np.int64

#: A user-facing state label.  Any hashable value is accepted.
StateLabel = Hashable

#: A user-facing event label.  Any hashable value is accepted.
EventLabel = Hashable

#: Internal dense index of a state (row into the transition table).
StateIndex = int

#: Internal dense index of an event (column into the transition table).
EventIndex = int

#: Mapping form of a transition function:
#: ``{state_label: {event_label: next_state_label}}``.
TransitionMap = Mapping[StateLabel, Mapping[EventLabel, StateLabel]]

#: A state of a reachable cross product: one component label per machine.
StateTuple = Tuple[StateLabel, ...]

#: A partition of the top machine's states encoded as a vector of block
#: identifiers, one entry per top state index.
BlockLabelVector = Sequence[int]

#: Either representation of a state accepted by convenience helpers.
AnyState = Union[StateLabel, StateIndex]
