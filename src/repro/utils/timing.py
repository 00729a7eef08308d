"""Small timing helpers used by benchmarks and the runtime study."""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["Stopwatch", "timed", "time_callable"]

T = TypeVar("T")


@dataclass
class Stopwatch:
    """Accumulates named wall-clock measurements.

    Measurements may nest (the fusion benchmarks time ``prune`` and
    ``closure`` *inside* ``descent``); besides each bucket's inclusive
    total, the stopwatch tracks its **exclusive** seconds — elapsed time
    minus the time spent in measurements nested within it — so per-stage
    numbers add up without double counting.  For a never-nested bucket
    the two are equal.

    >>> watch = Stopwatch()
    >>> with watch.measure("build"):
    ...     _ = sum(range(1000))
    >>> "build" in watch.totals()
    True

    >>> watch = Stopwatch()
    >>> with watch.measure("outer"):
    ...     with watch.measure("inner"):
    ...         _ = sum(range(1000))
    >>> snapshot = watch.as_dict()
    >>> 0.0 <= snapshot["outer"]["exclusive_seconds"] <= snapshot["outer"]["seconds"]
    True
    >>> abs(snapshot["outer"]["seconds"] - snapshot["inner"]["seconds"]
    ...     - snapshot["outer"]["exclusive_seconds"]) < 1e-9
    True
    """

    _totals: Dict[str, float] = field(default_factory=dict)
    _counts: Dict[str, int] = field(default_factory=dict)
    _exclusive: Dict[str, float] = field(default_factory=dict)
    _extras: Dict[str, Dict[str, int]] = field(default_factory=dict)
    _active: List[List] = field(default_factory=list)

    @contextmanager
    def measure(self, name: str) -> Iterator[None]:
        """Context manager adding the elapsed time to the named bucket.

        Nested ``measure`` blocks subtract their elapsed time from the
        enclosing block's ``exclusive_seconds``.
        """
        frame: List = [name, 0.0]  # [bucket, seconds spent in children]
        self._active.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self._active.pop()
            self._totals[name] = self._totals.get(name, 0.0) + elapsed
            self._counts[name] = self._counts.get(name, 0) + 1
            self._exclusive[name] = (
                self._exclusive.get(name, 0.0) + elapsed - frame[1]
            )
            if self._active:
                self._active[-1][1] += elapsed

    def totals(self) -> Dict[str, float]:
        """Total seconds per bucket."""
        return dict(self._totals)

    def exclusive_totals(self) -> Dict[str, float]:
        """Exclusive seconds per bucket (total minus nested measurements)."""
        return dict(self._exclusive)

    def counts(self) -> Dict[str, int]:
        """Number of measurements per bucket."""
        return dict(self._counts)

    def mean(self, name: str) -> float:
        """Mean seconds per measurement of the named bucket."""
        if name not in self._totals or self._counts.get(name, 0) == 0:
            raise KeyError("no measurements named %r" % name)
        return self._totals[name] / self._counts[name]

    def add(self, name: str, seconds: float) -> None:
        """Fold an externally-measured duration into the named bucket.

        The duration counts as exclusive to ``name``; if a ``measure``
        block is active, it is treated as nested within it (the seconds
        are subtracted from the enclosing bucket's exclusive total).
        """
        self._totals[name] = self._totals.get(name, 0.0) + float(seconds)
        self._counts[name] = self._counts.get(name, 0) + 1
        self._exclusive[name] = self._exclusive.get(name, 0.0) + float(seconds)
        if self._active:
            self._active[-1][1] += float(seconds)

    def accumulate(self, name: str, **fields: int) -> None:
        """Sum integer metadata counters into the named bucket.

        Stages can carry structured outcomes besides wall-clock — the
        ``prune`` stage records fixpoint rounds, swept pair cells and
        truncation events this way.  Each keyword is summed across calls
        and merged into the stage's :meth:`as_dict` entry.

        >>> watch = Stopwatch()
        >>> watch.accumulate("prune", rounds=2, truncated=0)
        >>> watch.accumulate("prune", rounds=1, truncated=1)
        >>> watch.as_dict()["prune"]["rounds"], watch.as_dict()["prune"]["truncated"]
        (3, 1)
        """
        extras = self._extras.setdefault(name, {})
        for key, value in fields.items():
            extras[key] = extras.get(key, 0) + int(value)

    def extras(self, name: str) -> Dict[str, int]:
        """The accumulated metadata counters of the named bucket."""
        return dict(self._extras.get(name, {}))

    def as_dict(self) -> Dict[str, Dict[str, float]]:
        """Machine-readable snapshot: ``{name: {"seconds", "count", ...}}``.

        Each entry carries both the inclusive ``seconds`` and the
        nesting-corrected ``exclusive_seconds``; metadata counters folded
        in with :meth:`accumulate` are merged into their stage's entry.
        """
        names = list(self._totals)
        names.extend(name for name in self._extras if name not in self._totals)
        snapshot: Dict[str, Dict[str, float]] = {}
        for name in names:
            entry: Dict[str, float] = {
                "seconds": self._totals.get(name, 0.0),
                "exclusive_seconds": self._exclusive.get(name, 0.0),
                "count": self._counts.get(name, 0),
            }
            entry.update(self._extras.get(name, {}))
            snapshot[name] = entry
        return snapshot


@contextmanager
def timed() -> Iterator[Callable[[], float]]:
    """Context manager yielding a callable that reports the elapsed seconds.

    >>> with timed() as elapsed:
    ...     _ = sum(range(1000))
    >>> elapsed() >= 0.0
    True
    """
    start = time.perf_counter()
    end: Optional[float] = None

    def reader() -> float:
        return (end if end is not None else time.perf_counter()) - start

    try:
        yield reader
    finally:
        end = time.perf_counter()


def time_callable(function: Callable[[], T]) -> Tuple[T, float]:
    """Call ``function`` and return ``(result, elapsed_seconds)``."""
    start = time.perf_counter()
    result = function()
    return result, time.perf_counter() - start
