"""Compact checksummed NumPy container format for on-disk artifacts.

``json_io`` keeps the *descriptions* of machines durable; this module
keeps the heavy numeric artifacts of a fusion run durable — the
reachable cross product, the sparse pair ledgers, mid-descent
checkpoints — in a format the :class:`~repro.io.store.ArtifactStore`
can commit atomically and load without copying.

Layout of a ``repro.npz/1`` container::

    MAGIC (8 bytes) | header length (u64 LE) | header JSON
    | sha256(header JSON) (32 bytes) | zero pad to 64-byte boundary
    | blob 0 | pad | blob 1 | pad | ...

The header records, per array: name, dtype, shape, byte offset
(relative to the 64-aligned data start), byte length and CRC32.  Each
blob is 64-byte aligned so a memory-mapped load can hand back zero-copy
``numpy`` views with natural alignment.  A torn or bit-flipped file
fails either the header digest or a blob CRC and raises
:class:`~repro.core.exceptions.StoreCorruptionError` — the store layer
quarantines on that signal instead of ever acting on a bad read.
"""

from __future__ import annotations

import hashlib
import json
import os
import zlib
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..core.dfsm import DFSM
from ..core.exceptions import StoreCorruptionError
from .json_io import _decode_label, _encode_label, machine_to_dict

__all__ = [
    "MAGIC",
    "FORMAT",
    "write_container",
    "read_container",
    "save_machines",
    "load_machines",
    "machine_set_digest",
]

MAGIC = b"REPRONPZ"
FORMAT = "repro.npz/1"
_ALIGN = 64
_DIGEST_LEN = 32


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def _contiguous(array: np.ndarray) -> np.ndarray:
    arr = np.asarray(array)
    if arr.dtype == object:
        raise StoreCorruptionError("object arrays cannot be stored in a container")
    return np.ascontiguousarray(arr)


def _byte_view(arr: np.ndarray) -> memoryview:
    """Flat byte view of a C-contiguous array: its raw bytes, not a copy."""
    return memoryview(arr.reshape(-1).view(np.uint8))


def write_container(
    path: str,
    arrays: Mapping[str, np.ndarray],
    meta: Optional[Mapping[str, Any]] = None,
    *,
    fsync: bool = True,
    truncate_at: Optional[int] = None,
) -> None:
    """Write ``arrays`` (+ JSON-safe ``meta``) as one container file.

    ``truncate_at`` deliberately stops the write after that many bytes —
    it exists solely so the chaos harness can manufacture a torn file
    the same way a mid-write crash would.
    """
    items: List[Tuple[str, np.ndarray]] = [
        (str(name), _contiguous(arr)) for name, arr in arrays.items()
    ]
    descriptors = []
    blobs: List[memoryview] = []
    offset = 0
    for name, arr in items:
        offset = _aligned(offset)
        nbytes = int(arr.nbytes)
        blob = _byte_view(arr)
        descriptors.append(
            {
                "name": name,
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": nbytes,
                "crc32": zlib.crc32(blob) & 0xFFFFFFFF,
            }
        )
        blobs.append(blob)
        offset += nbytes
    header = {
        "format": FORMAT,
        "meta": dict(meta) if meta else {},
        "arrays": descriptors,
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    digest = hashlib.sha256(header_bytes).digest()
    prefix_len = len(MAGIC) + 8 + len(header_bytes) + _DIGEST_LEN
    data_start = _aligned(prefix_len)

    # Blobs go to the file straight from the arrays' buffers: the
    # counters-10 ledger alone is hundreds of MB, too big to copy twice.
    chunks: List[Any] = [
        MAGIC,
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
        digest,
        b"\x00" * (data_start - prefix_len),
    ]
    written = data_start
    for descriptor, blob in zip(descriptors, blobs):
        target = data_start + descriptor["offset"]
        chunks.append(b"\x00" * (target - written))
        chunks.append(blob)
        written = target + len(blob)

    remaining = written if truncate_at is None else max(0, min(truncate_at, written))
    with open(path, "wb") as handle:
        for chunk in chunks:
            if remaining <= 0:
                break
            handle.write(chunk[:remaining])
            remaining -= len(chunk)
        if fsync:
            handle.flush()
            os.fsync(handle.fileno())


def read_container(
    path: str, *, verify: bool = True, mmap: bool = True
) -> Tuple[Dict[str, np.ndarray], Dict[str, Any]]:
    """Load a container written by :func:`write_container`.

    Returns ``(arrays, meta)``.  With ``mmap=True`` the arrays are
    read-only zero-copy views into a memory map of the file.  Any
    structural or checksum failure raises :class:`StoreCorruptionError`.
    """
    try:
        size = os.path.getsize(path)
    except OSError as exc:
        raise StoreCorruptionError("unreadable container %s: %s" % (path, exc)) from exc
    min_prefix = len(MAGIC) + 8
    if size < min_prefix:
        raise StoreCorruptionError("container %s truncated before header" % path)
    with open(path, "rb") as handle:
        prefix = handle.read(min_prefix)
        if prefix[: len(MAGIC)] != MAGIC:
            raise StoreCorruptionError("container %s has bad magic" % path)
        header_len = int.from_bytes(prefix[len(MAGIC) :], "little")
        if header_len <= 0 or min_prefix + header_len + _DIGEST_LEN > size:
            raise StoreCorruptionError("container %s truncated inside header" % path)
        header_bytes = handle.read(header_len)
        digest = handle.read(_DIGEST_LEN)
    if len(header_bytes) != header_len or len(digest) != _DIGEST_LEN:
        raise StoreCorruptionError("container %s truncated inside header" % path)
    if hashlib.sha256(header_bytes).digest() != digest:
        raise StoreCorruptionError("container %s header digest mismatch" % path)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise StoreCorruptionError("container %s header is not JSON: %s" % (path, exc)) from exc
    if header.get("format") != FORMAT:
        raise StoreCorruptionError(
            "container %s has unsupported format %r" % (path, header.get("format"))
        )
    data_start = _aligned(min_prefix + header_len + _DIGEST_LEN)
    if mmap and size > data_start:
        buffer: Any = np.memmap(path, dtype=np.uint8, mode="r")
    else:
        with open(path, "rb") as handle:
            buffer = np.frombuffer(handle.read(), dtype=np.uint8)
    arrays: Dict[str, np.ndarray] = {}
    for descriptor in header.get("arrays", ()):
        try:
            name = descriptor["name"]
            dtype = np.dtype(descriptor["dtype"])
            shape = tuple(int(dim) for dim in descriptor["shape"])
            offset = int(descriptor["offset"])
            nbytes = int(descriptor["nbytes"])
            crc = int(descriptor["crc32"])
        except (KeyError, TypeError, ValueError) as exc:
            raise StoreCorruptionError(
                "container %s has malformed array descriptor: %s" % (path, exc)
            ) from exc
        start = data_start + offset
        end = start + nbytes
        if end > size:
            raise StoreCorruptionError(
                "container %s truncated inside blob %r" % (path, name)
            )
        raw = buffer[start:end]
        if verify and (zlib.crc32(raw) & 0xFFFFFFFF) != crc:
            raise StoreCorruptionError(
                "container %s blob %r failed CRC32" % (path, name)
            )
        try:
            view = np.frombuffer(raw, dtype=dtype)
            if shape:
                view = view.reshape(shape)
            elif view.size == 1:
                view = view.reshape(())
        except (ValueError, TypeError) as exc:
            raise StoreCorruptionError(
                "container %s blob %r does not match its descriptor: %s"
                % (path, name, exc)
            ) from exc
        arrays[name] = view
    return arrays, header.get("meta", {})


# ---------------------------------------------------------------------------
# Machine codec


def machine_set_digest(machines: Sequence[DFSM]) -> str:
    """Canonical content digest of a machine set.

    Closed-partition canonicalisation keeps quotient machines stable
    across runs, so hashing the sorted-keys JSON of every machine's
    complete description yields the content address the store keys on.
    """
    payload = json.dumps(
        [machine_to_dict(machine) for machine in machines], sort_keys=True
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def save_machines(path: str, machines: Sequence[DFSM], *, fsync: bool = True) -> None:
    """Persist a machine set: transition tables as blobs, labels in meta."""
    arrays: Dict[str, np.ndarray] = {}
    described = []
    for index, machine in enumerate(machines):
        arrays["table_%d" % index] = machine.transition_table.astype(np.int64)
        described.append(
            {
                "name": machine.name,
                "states": [_encode_label(s) for s in machine.states],
                "events": [_encode_label(e) for e in machine.events],
                "initial": int(machine.states.index(machine.initial)),
            }
        )
    write_container(
        path,
        arrays,
        {"kind": "machines", "machines": described},
        fsync=fsync,
    )


def load_machines(path: str) -> List[DFSM]:
    """Inverse of :func:`save_machines`."""
    arrays, meta = read_container(path)
    described = meta.get("machines")
    if not isinstance(described, list):
        raise StoreCorruptionError("container %s is not a machine set" % path)
    machines: List[DFSM] = []
    for index, entry in enumerate(described):
        try:
            table = arrays["table_%d" % index]
            states = [_decode_label(s) for s in entry["states"]]
            events = [_decode_label(e) for e in entry["events"]]
            machines.append(
                DFSM.from_table(
                    np.asarray(table),
                    initial=int(entry["initial"]),
                    events=events,
                    state_labels=states,
                    name=entry.get("name", "DFSM"),
                )
            )
        except StoreCorruptionError:
            raise
        except Exception as exc:  # noqa: BLE001 - any malformation quarantines
            raise StoreCorruptionError(
                "container %s machine %d is malformed: %s" % (path, index, exc)
            ) from exc
    return machines
