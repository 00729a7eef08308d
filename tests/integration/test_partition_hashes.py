"""Byte-identity guard: the partitions ``generate_fusion`` chooses are pinned.

Closed partitions are unique, so every change to the closure kernel, the
candidate order of the level scan or the doomed-pair prune must leave the
chosen partitions byte-for-byte unchanged.  The frozen summaries only pin
sizes and ``dmin``; this guard pins the canonical label vectors
themselves, as one sha256 per fusion over every partition of the result.

The machine sets are the runtime study's generation cases and the
machine zoo of :mod:`repro.machines.catalog`, keyed by the first word of
their catalog label, each at crash ``f = 1..3`` and Byzantine ``f = 1``.
"""

from __future__ import annotations

import hashlib

import pytest

from repro import generate_fusion
from repro.machines.catalog import GENERATION_CASES, zoo

CASES = {label.split()[0]: build for label, build in GENERATION_CASES.items()}
CASES["zoo"] = zoo

RUNS = ((1, False), (2, False), (3, False), (1, True))


def partitions_digest(result) -> str:
    """sha256 over the little-endian int64 canonical labels of every partition."""
    digest = hashlib.sha256()
    for partition in result.partitions:
        digest.update(partition.labels.astype("<i8").tobytes())
    return digest.hexdigest()


#: Recorded on the engine before the batched pair-closure kernel.
PINNED = {
    ('counters-3', 1, False): '51806f110aaf70cf38eb2fa09b538e8b13958f06ddf9cdc81be24159d10a9c7f',
    ('counters-3', 2, False): '6470780a6e82d1ab3c706c5ac0e13edd77494bb853f55bc3ed604ad2d2b0ba40',
    ('counters-3', 3, False): 'bcb70e919be8655db0f11c2c97e51b765aff3b89938935fe747f94f0beebdfa7',
    ('counters-3', 1, True): '6470780a6e82d1ab3c706c5ac0e13edd77494bb853f55bc3ed604ad2d2b0ba40',
    ('counters-5', 1, False): 'cb768d070cf5e9a2544d1b92e75ee2a71875687591461ae90932cc6e6f057f4a',
    ('counters-5', 2, False): '812b84789af20e45c04a616aa3c6c55e8818642929cfeace82f7bf7dffaf2cb0',
    ('counters-5', 3, False): '90e151be1138dc68a06af6da075d3f0cfa5d01d42568474023287c3958d8ef5d',
    ('counters-5', 1, True): '812b84789af20e45c04a616aa3c6c55e8818642929cfeace82f7bf7dffaf2cb0',
    ('mesi+tcp', 1, False): '18ce1749c68f96db009d13ca732cb7efd744f390533d11aa2b9240f5899e49d4',
    ('mesi+tcp', 2, False): '3a3f3a5b6bc12c4809a33ae7b2c19c5218289e4f0051067ce152c38535bf6561',
    ('mesi+tcp', 3, False): 'b349f0505e8d89c78c3cfd5d7fc46b3dcec74a957f60cc16e78787023303d6f8',
    ('mesi+tcp', 1, True): '3a3f3a5b6bc12c4809a33ae7b2c19c5218289e4f0051067ce152c38535bf6561',
    ('mesi+counters+shift', 1, False): '641457e3029538b85f8e4b5827c7b67515277d2820847a1f1d8ea6f7ca789064',
    ('mesi+counters+shift', 2, False): 'b2695cd6bcc738ae88e34843a2291a911afc70ec84edb7259c9de645b2fda526',
    ('mesi+counters+shift', 3, False): 'b5776b2a65778065f789ff1f09fb21d572626466a1fbc36314dcd00868bf03d4',
    ('mesi+counters+shift', 1, True): 'b2695cd6bcc738ae88e34843a2291a911afc70ec84edb7259c9de645b2fda526',
    ('counters-6', 1, False): 'b4d2a8900f28305b6ed7f26d242c010945f0b47045116c655c032c6200392eb1',
    ('counters-6', 2, False): '96a01d7833b801460a2d7205d9c560ac1bc25b1f14439190b0beb15a9294d807',
    ('counters-6', 3, False): '1a9cd070e9c4619e9b8fefc0c67dab685fe399a86f347f4d756cacc372e6883b',
    ('counters-6', 1, True): '96a01d7833b801460a2d7205d9c560ac1bc25b1f14439190b0beb15a9294d807',
    ('zoo', 1, False): 'fc256ff91ecfd419717ef3077f33d0d67c0cd9056b3975a8f9a3b4c2ba50bb10',
    ('zoo', 2, False): 'ec89d2490ed40362c33d5c42d2b771cdcea78cac4eed98cf5ba91b1357efb094',
    ('zoo', 3, False): 'c8b415b356f07f6feda0357cc8f3bb77cb8fbadab81ac823fb56379600dbe226',
    ('zoo', 1, True): 'ec89d2490ed40362c33d5c42d2b771cdcea78cac4eed98cf5ba91b1357efb094',
}


@pytest.mark.parametrize(
    "case,f,byzantine",
    [(case, f, byzantine) for case in CASES for f, byzantine in RUNS],
    ids=lambda value: str(value),
)
def test_generate_fusion_partitions_are_pinned(case, f, byzantine):
    result = generate_fusion(CASES[case](), f, byzantine=byzantine)
    assert partitions_digest(result) == PINNED[(case, f, byzantine)]
