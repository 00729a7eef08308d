"""Resource-exhaustion governor: memory/disk budgets and spill-to-disk.

The engine survives crashes, hangs and hostile networks (PRs 6-9), but
those defenses assume infinite resources: ENOSPC mid-commit, or a
ledger that outgrows RAM used to die with a raw
``OSError``/``MemoryError``.  This module turns resource exhaustion into
*graceful degradation*:

* :func:`parse_byte_size` — typed parsing of the ``REPRO_MEMORY_BUDGET``
  / ``REPRO_DISK_BUDGET`` size strings (raises
  :class:`~repro.core.exceptions.SpecParseError` naming the offending
  token, never a bare ``ValueError``).
* :class:`ResourceBudget` — the two optional watermarks, read once per
  fusion from the environment or ``generate_fusion(budget=...)``.
* :class:`ResourceGovernor` — meters large pair-key arrays against the
  budget, decides when a merge must spill, and owns the spill
  directory.  One governor is *activated* per ``generate_fusion`` call
  (:func:`activate`); the sparse layer consults :func:`current_governor`
  so no signature in the hot path changes.
* :func:`external_sort_unique` — the spill machinery itself: sorted,
  duplicate-free key runs written to scratch and k-way merged back
  through bounded read windows.  Because the packed pair keys are plain
  integers and set union is associative, the external merge is
  **byte-identical** to the in-memory ``sort + dedup`` it replaces (the
  property suite asserts this on full fusions).
* :class:`BudgetStats` — spills, retries and peak bytes, folded into
  the fusion stopwatch as the ``resources`` stage.

The chaos kind ``mem_pressure`` is drawn here (owner stage
``budget_check``), so a seeded ``REPRO_CHAOS`` plan can prove the spill
path without a machine that is actually out of memory.
"""

from __future__ import annotations

import errno
import itertools
import os
import shutil
import tempfile
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence

import numpy as np

from .exceptions import ResourceExhaustedError, SpecParseError
from .resilience import ChaosSpec, EngineFaultKind, chaos_from_env

__all__ = [
    "MEMORY_BUDGET_ENV",
    "DISK_BUDGET_ENV",
    "BudgetStats",
    "ResourceBudget",
    "ResourceGovernor",
    "activate",
    "current_governor",
    "external_sort_unique",
    "parse_byte_size",
]

MEMORY_BUDGET_ENV = "REPRO_MEMORY_BUDGET"
DISK_BUDGET_ENV = "REPRO_DISK_BUDGET"

#: Elements per bounded read window of the external merge.  Each two-run
#: merge step holds at most two windows plus one merged chunk in memory,
#: independent of the total run size.
_SPILL_WINDOW = 1 << 18

#: Monotonic run-file batch counter (spill batches within one process).
_RUN_SEQ = itertools.count()

_SIZE_SUFFIXES = {
    "": 1,
    "b": 1,
    "k": 1 << 10,
    "kb": 1 << 10,
    "kib": 1 << 10,
    "m": 1 << 20,
    "mb": 1 << 20,
    "mib": 1 << 20,
    "g": 1 << 30,
    "gb": 1 << 30,
    "gib": 1 << 30,
    "t": 1 << 40,
    "tb": 1 << 40,
    "tib": 1 << 40,
}


def parse_byte_size(raw: str, knob: str) -> int:
    """Parse a human byte-size string (``"64M"``, ``"2GiB"``, ``"1048576"``).

    Raises :class:`SpecParseError` naming the offending token on
    anything unparsable, zero or negative — a malformed budget must
    never be silently ignored.

    >>> parse_byte_size("64k", "REPRO_MEMORY_BUDGET")
    65536
    >>> parse_byte_size("2MiB", "REPRO_MEMORY_BUDGET")
    2097152
    """
    text = str(raw).strip()
    number = text
    suffix = ""
    for index, char in enumerate(text):
        if char not in "0123456789.":
            number, suffix = text[:index], text[index:]
            break
    suffix = suffix.strip().lower()
    if suffix not in _SIZE_SUFFIXES:
        raise SpecParseError(
            knob, raw, "unknown size suffix %r (use k/M/G/T, optionally iB)" % suffix
        )
    try:
        value = float(number)
    except ValueError:
        raise SpecParseError(
            knob, raw, "size must be a number with an optional suffix"
        ) from None
    size = int(value * _SIZE_SUFFIXES[suffix])
    if size <= 0:
        raise SpecParseError(knob, raw, "size must be positive, got %r" % raw)
    return size


@dataclass(frozen=True)
class ResourceBudget:
    """The two optional watermarks, in bytes (``None`` = unbounded).

    >>> ResourceBudget.from_mapping({"memory": "1M"}).memory
    1048576
    """

    memory: Optional[int] = None
    disk: Optional[int] = None

    @classmethod
    def from_env(cls) -> "ResourceBudget":
        """Read the two ``REPRO_*_BUDGET`` environment knobs."""
        values = {}
        for attr, knob in (
            ("memory", MEMORY_BUDGET_ENV),
            ("disk", DISK_BUDGET_ENV),
        ):
            raw = os.environ.get(knob, "").strip()
            values[attr] = parse_byte_size(raw, knob) if raw else None
        return cls(**values)

    @classmethod
    def from_mapping(cls, mapping) -> "ResourceBudget":
        """Build from ``{"memory": ..., "disk": ...}``.

        Values may be byte counts or size strings; unknown keys raise
        :class:`SpecParseError` so typos cannot silently disable a
        budget.
        """
        values: Dict[str, Optional[int]] = {"memory": None, "disk": None}
        for key, value in dict(mapping).items():
            if key not in values:
                raise SpecParseError(
                    "budget", str(key), "unknown budget key %r (use memory/disk)" % key
                )
            if value is None:
                continue
            if isinstance(value, str):
                values[key] = parse_byte_size(value, "budget[%s]" % key)
            else:
                size = int(value)
                if size <= 0:
                    raise SpecParseError(
                        "budget", str(value), "budget[%s] must be positive" % key
                    )
                values[key] = size
        return cls(**values)

    @classmethod
    def coerce(cls, value) -> "ResourceBudget":
        """Accept a :class:`ResourceBudget`, a mapping, or ``None`` (env)."""
        if value is None:
            return cls.from_env()
        if isinstance(value, cls):
            return value
        return cls.from_mapping(value)

    @property
    def bounded(self) -> bool:
        return self.memory is not None or self.disk is not None


@dataclass
class BudgetStats:
    """What the governor did during one fusion.

    The integer view (:meth:`as_counters`) is folded into the fusion
    stopwatch under the ``resources`` stage, where the benchmark and the
    spill tests read it.
    """

    spills: int = 0  #: merges routed through the external spill path
    spilled_bytes: int = 0  #: total bytes written to spill runs
    disk_retries: int = 0  #: store commits retried after ENOSPC/EDQUOT
    sweeps: int = 0  #: scratch sweeps performed to free disk space
    mem_peak: int = 0  #: peak observed pair-key working-set bytes
    chaos: int = 0  #: injected resource faults consumed

    def as_counters(self) -> Dict[str, int]:
        """The integer counters, keyed as the benchmark schema stores them."""
        return {
            "spills": self.spills,
            "spilled_bytes": self.spilled_bytes,
            "disk_retries": self.disk_retries,
            "sweeps": self.sweeps,
            "mem_peak": self.mem_peak,
            "chaos": self.chaos,
        }


# ----------------------------------------------------------------------
# External merge of sorted duplicate-free runs
# ----------------------------------------------------------------------
def _dedup_sorted(packed: np.ndarray) -> np.ndarray:
    """Drop duplicate neighbours of a sorted array (neighbour-diff mask).

    ``np.compress`` instead of boolean fancy indexing: on the reference
    containers the latter is several times slower at the
    tens-of-millions scale of the ledger merges.  Shared with
    :mod:`repro.core.sparse`.
    """
    if packed.size <= 1:
        return packed
    keep = np.empty(packed.size, dtype=bool)
    keep[0] = True
    np.not_equal(packed[1:], packed[:-1], out=keep[1:])
    return np.compress(keep, packed)


class _RunReader:
    """Streams one sorted run file back in bounded windows."""

    def __init__(self, path: str, dtype: np.dtype, window: int) -> None:
        self._path = path
        self._dtype = np.dtype(dtype)
        self._window = int(window)
        self._offset = 0
        self._size = os.path.getsize(path) // self._dtype.itemsize

    def read(self) -> np.ndarray:
        """The next window of the run (empty at EOF)."""
        remaining = self._size - self._offset
        if remaining <= 0:
            return np.empty(0, dtype=self._dtype)
        count = min(self._window, remaining)
        chunk = np.fromfile(
            self._path,
            dtype=self._dtype,
            count=count,
            offset=self._offset * self._dtype.itemsize,
        )
        self._offset += count
        return chunk


def _merge_two_runs(
    a_path: str, b_path: str, out_path: str, dtype: np.dtype, window: int
) -> str:
    """Stream-merge two sorted duplicate-free runs into one.

    Holds at most two read windows plus one merged chunk in memory.  The
    cut point of each round is ``min(last(a_window), last(b_window))``:
    everything at or below it from both windows merges and dedups now,
    and every element still unread is strictly greater, so chunks never
    interleave and cross-window duplicates cannot survive.
    """
    reader_a = _RunReader(a_path, dtype, window)
    reader_b = _RunReader(b_path, dtype, window)
    buf_a = reader_a.read()
    buf_b = reader_b.read()
    have_last = False
    last = None
    with open(out_path, "wb") as out:
        while buf_a.size and buf_b.size:
            bound = min(buf_a[-1], buf_b[-1])
            take_a = int(np.searchsorted(buf_a, bound, side="right"))
            take_b = int(np.searchsorted(buf_b, bound, side="right"))
            chunk = np.concatenate((buf_a[:take_a], buf_b[:take_b]))
            chunk.sort()
            chunk = _dedup_sorted(chunk)
            if have_last and chunk.size and chunk[0] == last:
                chunk = chunk[1:]
            if chunk.size:
                last = chunk[-1]
                have_last = True
                out.write(chunk.tobytes())
            buf_a = buf_a[take_a:] if take_a < buf_a.size else reader_a.read()
            buf_b = buf_b[take_b:] if take_b < buf_b.size else reader_b.read()
        # Drain the surviving run.  Its elements are strictly greater
        # than the cut bound (hence than ``last``), so they copy through
        # verbatim — each run is already sorted and duplicate-free.
        for buf, reader in ((buf_a, reader_a), (buf_b, reader_b)):
            while buf.size:
                out.write(buf.tobytes())
                buf = reader.read()
    return out_path


def external_sort_unique(
    parts: Sequence[np.ndarray],
    spill_dir: str,
    window: int = _SPILL_WINDOW,
) -> np.ndarray:
    """Sorted unique union of ``parts`` via on-disk runs and k-way merge.

    Byte-identical to ``_sort_unique(np.concatenate(parts))`` — the key
    arrays are plain integers, so sorted order and duplicate identity do
    not depend on the merge route — while never holding more than one
    part plus two bounded windows in memory.

    >>> import numpy as np, tempfile
    >>> with tempfile.TemporaryDirectory() as scratch:
    ...     merged = external_sort_unique(
    ...         [np.array([3, 1, 7], np.int64), np.array([7, 2], np.int64)],
    ...         scratch, window=2)
    >>> merged
    array([1, 2, 3, 7])
    """
    parts = [np.asarray(part) for part in parts if np.asarray(part).size]
    if not parts:
        return np.empty(0, dtype=np.int64)
    dtype = parts[0].dtype
    window = max(2, int(window))
    batch = next(_RUN_SEQ)
    runs: List[str] = []
    try:
        for index, part in enumerate(parts):
            run = _dedup_sorted(np.sort(part))
            path = os.path.join(
                spill_dir, "run-%d-%d-%d.bin" % (os.getpid(), batch, index)
            )
            run.tofile(path)
            runs.append(path)
            del run
        generation = 0
        while len(runs) > 1:
            merged: List[str] = []
            generation += 1
            for pair_index in range(0, len(runs) - 1, 2):
                out_path = "%s.g%d" % (runs[pair_index], generation)
                _merge_two_runs(
                    runs[pair_index], runs[pair_index + 1], out_path, dtype, window
                )
                os.unlink(runs[pair_index])
                os.unlink(runs[pair_index + 1])
                merged.append(out_path)
            if len(runs) % 2:
                merged.append(runs[-1])
            runs = merged
        return np.fromfile(runs[0], dtype=dtype)
    finally:
        for path in runs:
            try:
                os.unlink(path)
            except OSError:
                pass


# ----------------------------------------------------------------------
# The governor
# ----------------------------------------------------------------------
class ResourceGovernor:
    """Meters resident bytes against the budget and owns the spill path.

    One governor is created per ``generate_fusion`` call and activated
    for its duration; the sparse layer asks :meth:`should_spill` before
    each large merge and routes through :meth:`spill_merge` when told
    to.  All methods are cheap no-ops when no budget is configured and
    no chaos plan is active.
    """

    def __init__(
        self,
        budget=None,
        chaos: Optional[ChaosSpec] = None,
        spill_dir: Optional[str] = None,
    ) -> None:
        self.budget = ResourceBudget.coerce(budget)
        self.stats = BudgetStats()
        self._chaos = chaos if chaos is not None else chaos_from_env()
        self._spill_dir = spill_dir
        self._owns_spill_dir = False

    # -- spill directory ------------------------------------------------
    def set_spill_dir(self, path: str) -> None:
        """Use the artifact store's scratch directory for spill runs."""
        self._spill_dir = str(path)
        self._owns_spill_dir = False

    def spill_dir(self) -> str:
        """The spill directory, creating a private temp dir on demand."""
        if self._spill_dir is None:
            self._spill_dir = tempfile.mkdtemp(prefix="repro-spill-")
            self._owns_spill_dir = True
        else:
            os.makedirs(self._spill_dir, exist_ok=True)
        return self._spill_dir

    def close(self) -> None:
        """Remove the private spill directory (store scratch is swept by
        the store itself)."""
        if self._owns_spill_dir and self._spill_dir is not None:
            shutil.rmtree(self._spill_dir, ignore_errors=True)
            self._spill_dir = None
            self._owns_spill_dir = False

    # -- memory watermark / spill decision ------------------------------
    def observe_memory(self, nbytes: int) -> None:
        """Record a large pair-key working set (peak tracking only)."""
        self.stats.mem_peak = max(self.stats.mem_peak, int(nbytes))

    def should_spill(self, nbytes: int) -> bool:
        """Must a merge holding ``nbytes`` at peak take the spill path?

        True above the ``REPRO_MEMORY_BUDGET`` watermark or when a
        seeded ``mem_pressure`` chaos fault fires (stage
        ``budget_check``).
        """
        nbytes = int(nbytes)
        self.observe_memory(nbytes)
        if self._chaos is not None:
            fault = self._chaos.draw("budget_check")
            if fault is not None and fault[0] == EngineFaultKind.MEM_PRESSURE.value:
                self.stats.chaos += 1
                return True
        if self.budget.memory is None:
            return False
        return nbytes > self.budget.memory

    def spill_merge(self, parts: Sequence[np.ndarray]) -> np.ndarray:
        """External sorted-unique union of ``parts`` through spill runs.

        A full disk while writing the runs surfaces as a typed
        :class:`ResourceExhaustedError` naming the disk budget — never a
        raw ``OSError`` from deep inside a merge.
        """
        live = [part for part in parts if part.size]
        self.stats.spills += 1
        spill_bytes = int(sum(part.nbytes for part in live))
        self.stats.spilled_bytes += spill_bytes
        try:
            return external_sort_unique(live, self.spill_dir())
        except OSError as exc:
            if exc.errno not in (errno.ENOSPC, errno.EDQUOT):
                raise
            raise ResourceExhaustedError.for_resource(
                "disk",
                self.budget.disk,
                spill_bytes,
                "spilling %d bytes of sorted runs failed (%s)" % (spill_bytes, exc),
            ) from exc

    # -- disk -----------------------------------------------------------
    def note_disk_retry(self) -> None:
        self.stats.disk_retries += 1

    def note_sweep(self) -> None:
        self.stats.sweeps += 1

    def memory_exhausted(self, observed: int, detail: str = "") -> ResourceExhaustedError:
        return ResourceExhaustedError.for_resource(
            "memory", self.budget.memory, observed, detail
        )


# ----------------------------------------------------------------------
# Activation (one governor per fusion, consulted by the sparse layer)
# ----------------------------------------------------------------------
_ACTIVE: List[ResourceGovernor] = []
_ACTIVE_LOCK = threading.Lock()


def current_governor() -> Optional[ResourceGovernor]:
    """The innermost active governor, or ``None`` outside a fusion."""
    with _ACTIVE_LOCK:
        return _ACTIVE[-1] if _ACTIVE else None


@contextmanager
def activate(governor: ResourceGovernor) -> Iterator[ResourceGovernor]:
    """Make ``governor`` the process-wide governor for the block."""
    with _ACTIVE_LOCK:
        _ACTIVE.append(governor)
    try:
        yield governor
    finally:
        with _ACTIVE_LOCK:
            if governor in _ACTIVE:
                _ACTIVE.remove(governor)
